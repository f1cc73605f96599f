"""Global invariants of a cyclic trace-one cubic: conductor, field
discriminant, the cubic character that keys the field, and the
field-isomorphism test."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .arith import is_perfect_square, factorize, primes
from .padic import InconsistencyError, SplittingType, splitting_type
from .poly import TraceOnePoly, discriminant, is_cyclic

DEFAULT_MAX_PRIME = 10**6


def _max_key_prime() -> int:
    return int(os.environ.get("CUBICTRACE_MAX_PRIME", DEFAULT_MAX_PRIME))


def _primitive_root(p: int) -> int:
    """Least primitive root g mod the prime p; ind_p(x) is the discrete log
    of x to base g, taken mod 3."""
    qs = [q for q, _ in factorize(p - 1)]
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def _index(x: int, p: int, zeta: int) -> int:
    """ind_p(x) in {0, 1, 2}, read off x^((p-1)/3) = zeta^ind_p(x) mod p,
    where zeta = g^((p-1)/3)."""
    r = pow(x, (p - 1) // 3, p)
    return 0 if r == 1 else 1 if r == zeta else 2


def _cube_cosets(p: int) -> tuple[list[int], list[int], list[int]]:
    """The residues mod p with ind_p = 0, 1, 2: the cubes C = <g^3>, gC, g^2 C."""
    g = _primitive_root(p)
    h = g * g * g % p
    cubes = [1]
    for _ in range((p - 1) // 3 - 1):
        cubes.append(cubes[-1] * h % p)
    return cubes, [g * x % p for x in cubes], [g * g * x % p for x in cubes]


@dataclass(frozen=True)
class FieldClass:
    """Isomorphism class of a cyclic cubic field.

    Identified by the conductor c = p_1 ... p_k (p_1 < ... < p_k, each
    = 1 mod 3) and its cubic character chi = prod chi_{p_i}^{e_i}, stored as
    the exponents (e_1, ..., e_k) in {1, 2} normalized so e_1 = 1 (chi and
    its conjugate chi^2 cut out the same field).  chi_p(x) = w^ind_p(x) for
    a fixed primitive cube root of unity w.  The field discriminant is c^2.
    """

    conductor: int
    character: tuple[int, ...]

    @property
    def discriminant(self) -> int:
        return self.conductor**2

    @property
    def subgroup(self) -> frozenset[int]:
        """The index-3 splitting subgroup ker chi of (Z/c)*, built by CRT
        from the cube cosets mod each p_i.  Not cached: it has phi(c)/3
        elements, and the key (conductor, character) does not need it."""
        by_sum, m = [[0], [], []], 1  # residues mod m by sum e_i ind_i mod 3
        for (p, _), e in zip(factorize(self.conductor), self.character):
            cosets = _cube_cosets(p)
            u, v = p * pow(p, -1, m), m * pow(m, -1, p)
            m *= p
            sums = range(3) if m < self.conductor else (0,)
            by_sum = [[(x * u + y * v) % m for s in range(3)
                       for x in by_sum[s] for y in cosets[(t - s) * e % 3]]
                      for t in sums]
        return frozenset(by_sum[0])

    @cached_property
    def canonical_poly(self) -> TraceOnePoly:
        """The minimal-height member; ties broken by smallest |b|, then b > 0."""
        from .enumeration import classified_polys_for_a

        a0 = (1 - self.conductor) // 3
        members = [f for f, k in classified_polys_for_a(a0) if k == self]
        if not members:
            raise InconsistencyError(
                f"no minimal-height polynomial for conductor {self.conductor}")
        return min(members, key=lambda f: (abs(f.b), f.b < 0))

    def __str__(self) -> str:
        return f"K_{self.discriminant}"

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "discriminant": self.discriminant,
            "subgroup": sorted(self.subgroup),
            "canonical_poly": str(self.canonical_poly),
        }


def cubic_character(f: TraceOnePoly, conductor: int | None = None,
                    max_prime: int | None = None) -> tuple[int, ...]:
    """Exponents (1, e_2, ..., e_k) of the cubic character of the root field.

    A prime q not dividing c splits exactly when sum e_i ind_{p_i}(q) = 0
    mod 3.  Primes are classified by splitting_type in increasing order and
    each one filters the 2^(k-1) candidates; the search stops once a single
    candidate is left and at least one prime has split.  A ramified q, or a
    prime no candidate matches, is an inconsistency.
    """
    c = conductor_of(f) if conductor is None else conductor
    fac = list(factorize(c))
    if not fac or any(p % 3 != 1 or e != 1 for p, e in fac):
        raise InconsistencyError(
            f"{c} is not the conductor of a tame cyclic cubic field")
    ps = [p for p, _ in fac]
    zetas = [pow(_primitive_root(p), (p - 1) // 3, p) for p in ps]
    candidates = [(1, *es) for es in itertools.product((1, 2), repeat=len(ps) - 1)]
    bound = max_prime if max_prime is not None else _max_key_prime()
    seen_split = False
    for q in primes():
        if seen_split and len(candidates) == 1:
            return candidates[0]
        if q > bound:
            raise RuntimeError(
                f"prime bound {bound} exhausted keying {f} (conductor {c}, "
                f"{len(candidates)} candidate characters left)")
        if c % q == 0:
            continue
        kind = splitting_type(f, q)
        if kind is SplittingType.RAMIFIED:
            raise InconsistencyError(f"{q} ramified but coprime to conductor {c}")
        split = kind is SplittingType.SPLIT
        seen_split |= split
        ind = [_index(q, p, z) for p, z in zip(ps, zetas)]
        candidates = [es for es in candidates
                      if (sum(e * i for e, i in zip(es, ind)) % 3 == 0) == split]
        if not candidates:
            raise InconsistencyError(
                f"no cubic character mod {c} matches the {kind.value} prime {q} of {f}")


@lru_cache(maxsize=1 << 18)
def conductor_of(f: TraceOnePoly) -> int:
    """Conductor: product of the ramified primes (each exactly once)."""
    if not is_cyclic(f):
        raise ValueError(f"{f} is not cyclic")
    disc = discriminant(f)
    c = 1
    for p, _e in factorize(disc):
        if splitting_type(f, p) is SplittingType.RAMIFIED:
            if p == 3 or p % 3 != 1:
                raise InconsistencyError(
                    f"ramified prime {p} of {f} is not 1 mod 3 (wild or misclassified)")
            c *= p
    ok, _ = is_perfect_square(disc // (c * c)) if disc % (c * c) == 0 else (False, None)
    if not ok:
        raise InconsistencyError(f"disc(f)/c^2 is not a square index for {f}")
    return c


@lru_cache(maxsize=1 << 18)
def field_invariants(f: TraceOnePoly) -> FieldClass:
    """Full isomorphism-class descriptor of the root field of f."""
    c = conductor_of(f)
    return FieldClass(c, cubic_character(f, c))


def is_isomorphic(f: TraceOnePoly, g: TraceOnePoly) -> bool:
    """Root fields isomorphic: same conductor and same cubic character."""
    return field_invariants(f) == field_invariants(g)
