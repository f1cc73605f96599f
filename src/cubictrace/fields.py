"""Global invariants of a cyclic trace-one cubic, read off one element of
Z[w]: the conductor, the field discriminant, the cubic character that keys
the field, and the field-isomorphism test.

With h = 1 - 3a, q = 9a + 27b - 2 and s = sqrt(disc), alpha = (q + 3s
sqrt(-3))/2 has norm h^3 and K(w) = Q(w, alpha^(1/3)).  Let j = v_pi(alpha)
at the prime pi = 1 (mod 3) over each split p | h.  By Kummer p ramifies iff
3 does not divide j (3 never does: a root has trace 1, so K is tame by
Noether); c = 1, all j = 0 mod 3, exactly when f is reducible.  By cubic
reciprocity (Ireland & Rosen, ch. 9), chi = prod chi_p^(j s_p).  For a
single cubic, j comes from dividing alpha by pi at the primes of gcd(q, s)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .arith import factorize
from .eisenstein import _cornacchia, _valuation_at
from .padic import InconsistencyError
from .poly import TraceOnePoly, discriminant, is_cyclic


def _primitive_root(p: int) -> int:
    """Least primitive root g mod the prime p; ind_p(x) is the discrete log
    of x to base g, taken mod 3."""
    qs = [q for q, _ in factorize(p - 1)]
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


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


@lru_cache(maxsize=1 << 12)
def _omega_exponent(p: int) -> int:
    """s in {1, 2} with w = zeta^s mod pi, for pi = _cornacchia(p) and
    zeta = g^((p-1)/3): then (x/pi)_3 = w^(s ind_p(x)) for x prime to p."""
    x, y = _cornacchia(p)
    zeta = pow(_primitive_root(p), (p - 1) // 3, p)
    return 1 if -x * pow(y, -1, p) % p == zeta else 2


def _field_class(exponents) -> FieldClass | None:
    """The class of the (p, j = v_pi(alpha)) pairs, ascending in p, with
    pi = _cornacchia(p); None when c = 1, that is when f is reducible."""
    c, es = 1, []
    for p, j in exponents:
        if j % 3:
            c *= p
            es.append(j * _omega_exponent(p) % 3)
    if not es:
        return None
    if es[0] == 2:  # chi^2 cuts out the same field as chi
        es = [3 - e for e in es]
    return FieldClass(c, tuple(es))


def field_invariants(f: TraceOnePoly) -> FieldClass:
    """Full isomorphism-class descriptor of the root field of f, from the
    valuations of alpha at the primes of gcd(q, s)."""
    if not is_cyclic(f):
        raise ValueError(f"{f} is not cyclic")
    q, s = 9 * f.a + 27 * f.b - 2, math.isqrt(discriminant(f))
    alpha = ((q + 3 * s) // 2, 3 * s)  # q = 2x - y, y = 3s
    # v_p(gcd(q, s)) = min(j, 3 v_p(h) - j): 3 divides both or neither
    k = _field_class((p, _valuation_at(alpha, _cornacchia(p), p))
                     for p, e in factorize(math.gcd(q, s))
                     if p % 3 == 1 and e % 3)
    if k is None:
        raise InconsistencyError(f"{f} is cyclic but no prime ramifies")
    return k


def conductor_of(f: TraceOnePoly) -> int:
    """Conductor: the product of the ramified primes."""
    return field_invariants(f).conductor


def is_isomorphic(f: TraceOnePoly, g: TraceOnePoly) -> bool:
    """Root fields isomorphic: same conductor and same cubic character."""
    return field_invariants(f) == field_invariants(g)
