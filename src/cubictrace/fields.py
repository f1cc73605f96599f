"""Global invariants of a cyclic trace-one cubic, read off one element of
Z[w]: the conductor, the field discriminant, the cubic character that keys
the field, and the field-isomorphism test.

With h = 1 - 3a, q = 9a + 27b - 2 and s = sqrt(disc), alpha = (q + 3s
sqrt(-3))/2 has norm h^3 and K(w) = Q(w, alpha^(1/3)).  Let j = v_pi(alpha)
at the prime pi = 1 (mod 3) over each split p | h.  By Kummer p ramifies iff
3 does not divide j (3 never does: a root has trace 1, so K is tame by
Noether); c = 1, all j = 0 mod 3, exactly when f is reducible.  By cubic
reciprocity (Ireland & Rosen, ch. 9), chi = prod (./pi_i)_3^(j_i).  For a
single cubic, j comes from dividing alpha by pi at the primes of gcd(q, s)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import InconsistencyError, factorize
from .eisenstein import _cornacchia, _valuation_at
from .poly import TraceOnePoly, discriminant, is_cyclic


def _primitive_root(p: int) -> int:
    """Least primitive root mod the prime p, found by factoring p - 1; only
    the subgroup rendering (_cube_cosets) needs one."""
    qs = [q for q, _ in factorize(p - 1)]
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def _cube_cosets(p: int) -> tuple[list[int], list[int], list[int]]:
    """The residues x mod p with (x/pi)_3 = w^k for k = 0, 1, 2, that is
    x^((p-1)/3) = w^k mod pi, where pi = x_pi + y_pi w = _cornacchia(p) and
    so w = -x_pi / y_pi mod p: the cubes C = <g^3>, gC and g^2 C for the
    generator g with g^((p-1)/3) = w."""
    x, y = _cornacchia(p)
    g = _primitive_root(p)
    if pow(g, (p - 1) // 3, p) != -x * pow(y, -1, p) % p:
        g = pow(g, -1, p)  # (g^-1)^((p-1)/3) = w^-2 = w
    h = g * g * g % p
    cubes = [1]
    for _ in range((p - 1) // 3 - 1):
        cubes.append(cubes[-1] * h % p)
    return cubes, [g * u % p for u in cubes], [g * g * u % p for u in cubes]


@dataclass(frozen=True)
class FieldClass:
    """Isomorphism class of a cyclic cubic field.

    Identified by the conductor c = p_1 ... p_k (p_1 < ... < p_k, each
    = 1 mod 3) and its cubic character chi = prod chi_{p_i}^{e_i}, stored as
    the exponents (e_1, ..., e_k) in {1, 2} normalized so e_1 = 1 (chi and
    its conjugate chi^2 cut out the same field).  chi_p(x) = (x/pi_p)_3 is
    the cubic residue symbol at the primary prime pi_p = _cornacchia(p) = 1
    (mod 3).  The field discriminant is c^2.
    """

    conductor: int
    character: tuple[int, ...]

    def __post_init__(self):
        es = self.character  # count() beats a set check: the key is hot
        if not es or es[0] != 1 or es.count(1) + es.count(2) != len(es):
            raise ValueError(f"character {es} is not normalized: entries in "
                             "{1, 2}, the first equal to 1")

    @property
    def discriminant(self) -> int:
        return self.conductor**2

    @property
    def subgroup(self) -> frozenset[int]:
        """The index-3 splitting subgroup ker chi of (Z/c)*, built by CRT
        from the cube cosets mod each p_i.  Not cached: it has phi(c)/3
        elements, and the key (conductor, character) does not need it."""
        ps = factorize(self.conductor)
        if (len(ps) != len(self.character)
                or any(e != 1 or p % 3 != 1 for p, e in ps)):
            raise ValueError(f"character {self.character} needs "
                             f"{len(self.character)} distinct primes = 1 "
                             f"(mod 3) as conductor, not {self.conductor}")
        by_sum, m = [[0], [], []], 1  # residues mod m by sum e_i k_i mod 3
        for (p, _), e in zip(ps, self.character):
            cosets = _cube_cosets(p)
            u, v = p * pow(p, -1, m), m * pow(m, -1, p)
            m *= p
            sums = range(3) if m < self.conductor else (0,)
            by_sum = [[(x * u + y * v) % m for s in range(3)
                       for x in by_sum[s] for y in cosets[(t - s) * e % 3]]
                      for t in sums]
        return frozenset(by_sum[0])

    def __str__(self) -> str:
        return f"K_{self.discriminant}"


def _field_class(exponents) -> FieldClass | None:
    """The class of the (p, j = v_pi(alpha)) pairs, ascending in p, with
    pi = _cornacchia(p); None when c = 1, that is when f is reducible."""
    c, es = 1, []
    for p, j in exponents:
        if j % 3:
            c *= p
            es.append(j % 3)
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
