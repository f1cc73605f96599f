"""Cyclic trace-one cubics t^3 - t^2 + a t + b: exhaustive enumeration by
toric height, classification by root field, and verification that the counts
per height match ideal counts in Q(sqrt(-3))."""

from .arith import InconsistencyError, factorize, is_prime
from .eisenstein import (formula3_count, ideal_count, ideal_count_oracle,
                         series_coeff)
from .enumeration import (EnumerationRow, enumerate_all, enumerate_field,
                          min_height)
from .fields import FieldClass, conductor_of, field_invariants, is_isomorphic
from .poly import (ParseError, TraceOnePoly, discriminant, height_sq,
                   is_cyclic, is_irreducible, parse_poly)
from .verify import (VerificationReport, formula3_divergences,
                     norm_proportionality_check, real_roots, reproduce_tables,
                     verify_corollary, verify_formula3, verify_theorem)

__version__ = "1.0.0"

__all__ = [
    "InconsistencyError", "factorize", "is_prime",
    "formula3_count", "ideal_count", "ideal_count_oracle", "series_coeff",
    "EnumerationRow", "enumerate_all", "enumerate_field", "min_height",
    "FieldClass", "conductor_of", "field_invariants", "is_isomorphic",
    "ParseError", "TraceOnePoly", "discriminant", "height_sq", "is_cyclic",
    "is_irreducible", "parse_poly",
    "VerificationReport", "formula3_divergences",
    "norm_proportionality_check", "real_roots", "reproduce_tables",
    "verify_corollary", "verify_formula3", "verify_theorem",
    "__version__",
]
