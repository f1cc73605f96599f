"""Local analysis of a trace-one cubic at a prime p.

Root finding mod p, the three-way splitting classification read off the
field key, and Dedekind's index-divisor criterion as an independent
cross-check.

Polynomials over F_p are represented as tuples of coefficients in
ascending degree order with no trailing zeros.
"""

from __future__ import annotations

import enum

from .arith import FACTOR_LIMIT, InconsistencyError, SizeLimitError, is_prime
from .fields import _cube_label, check_key, field_invariants
from .poly import TraceOnePoly

_BRUTE_FORCE_PRIME = 1024


class SplittingType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


# ---------------------------------------------------------------------------
# F_p[x] helpers.  Every divisor is monic: _fp_roots makes its input monic
# once, and _pgcd each remainder it divides by.

def _pnorm(c: list[int], p: int) -> tuple[int, ...]:
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmonic(u, p):
    inv = pow(u[-1], -1, p)
    return tuple(x * inv % p for x in u)


def _pdivmod(u, m, p):
    """Quotient and remainder of u (any integers) by a monic m over F_p."""
    d = len(m) - 1
    rem = list(u)
    quo = [0] * max(0, len(u) - d)
    for shift in range(len(u) - 1 - d, -1, -1):
        coef = rem[shift + d] % p
        quo[shift] = coef
        for j in range(d):  # m[d] = 1 cancels rem[shift + d]
            rem[shift + j] = (rem[shift + j] - coef * m[j]) % p
    return _pnorm(quo, p), _pnorm(rem[:d], p)


def _pgcd(u, v, p):
    """The monic gcd of a monic u and any v over F_p."""
    while v:
        v = _pmonic(v, p)
        u, v = v, _pdivmod(u, v, p)[1]
    return u


def _ppow_mod(base, e: int, m, p):
    """base^e mod a monic m over F_p, by left-to-right square and multiply."""
    result = (1,)
    for bit in bin(e)[2:]:
        for v in (result, base) if bit == "1" else (result,):
            out = [0] * (len(result) + len(v) - 1)
            for i, x in enumerate(result):
                for j, y in enumerate(v):
                    out[i + j] += x * y
            result = _pdivmod(out, m, p)[1]
    return result


def _split_roots(poly, p: int) -> set[int]:
    """Roots of a monic polynomial over F_p, p odd, known to split into
    distinct linear factors: gcd(poly, (x + c)^((p-1)/2) - 1) separates the
    roots r with r + c a nonzero square from the rest (Cantor-Zassenhaus).

    For roots r1 != r2, the sum over c of chi((r1 + c)(r2 + c)) is -1 (chi
    the quadratic character), so (p - 1)/2 of the c in [0, p) separate them.
    A poly that no such c splits does not split into distinct linear
    factors: InconsistencyError."""
    deg = len(poly) - 1
    if deg <= 0:
        return set()
    if deg == 1:
        return {-poly[0] % p}
    for c in range(p):
        h = [*_ppow_mod((c, 1), (p - 1) // 2, poly, p), 0]  # padded: h may be 0
        h[0] -= 1
        g = _pgcd(poly, _pnorm(h, p), p)
        if 0 < len(g) - 1 < deg:
            rest = _pdivmod(poly, g, p)[0]
            return _split_roots(g, p) | _split_roots(rest, p)
    raise InconsistencyError(f"{poly} does not split into distinct linear "
                             f"factors mod {p}: no c < {p} separates its roots")


def _fp_roots(poly, p: int) -> set[int]:
    """Distinct roots mod p of an integer polynomial of degree <= 3, given by
    its coefficients in ascending order (any leading coefficient).

    Up to _BRUTE_FORCE_PRIME every residue is tried; above it the roots are
    those of gcd(poly, x^p - x), split by _split_roots.  The zero polynomial
    mod p is rejected: every residue would be a root.
    """
    cbar = _pnorm(poly, p)
    if not cbar:
        raise ValueError(f"{tuple(poly)} vanishes mod {p}")
    if p <= _BRUTE_FORCE_PRIME:
        c0, c1, c2, c3 = cbar + (0,) * (4 - len(cbar))
        return {r for r in range(p) if (((c3 * r + c2) * r + c1) * r + c0) % p == 0}
    monic = _pmonic(cbar, p)
    xp = [*_ppow_mod((0, 1), p, monic, p), 0, 0]  # padded: x^p may have degree < 1
    xp[1] -= 1
    return _split_roots(_pgcd(monic, _pnorm(xp, p), p), p)


def _check_prime(p: int) -> None:
    """Refuse p unless is_prime proves it prime, as it does below
    FACTOR_LIMIT only: SizeLimitError past that, else ValueError."""
    if p >= FACTOR_LIMIT:
        raise SizeLimitError(f"cannot take {p} as a prime: is_prime is exact "
                             f"only below {FACTOR_LIMIT} (about 3.3e24)")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def roots_mod_p(f: TraceOnePoly, p: int) -> set[int]:
    """All residues r in [0, p) with f(r) = 0 mod p, for a prime p."""
    _check_prime(p)
    return _fp_roots((f.b, f.a, -1, 1), p)


# ---------------------------------------------------------------------------
# Classification

def splitting_type(f: TraceOnePoly, p: int) -> SplittingType:
    """Split / Inert / Ramified behavior of the prime p in the root field of
    f, read off its key (c, chi).  By class field theory (Washington,
    Cyclotomic Fields, ch. 3) p ramifies iff p | c, and otherwise splits iff
    chi(p) = 1: no root of f is counted or lifted, so index divisors of
    Z[theta] need no special case."""
    _check_prime(p)
    k = field_invariants(f)
    if k.conductor % p == 0:
        return SplittingType.RAMIFIED
    label = sum(e * _cube_label(p, q)
                for q, e in zip(check_key(k), k.character))
    return SplittingType.INERT if label % 3 else SplittingType.SPLIT


def dedekind_index_test(f: TraceOnePoly, p: int) -> bool:
    """Dedekind's criterion (Cohen, GTM 138, Thm 6.1.4) for a cubic: p
    divides [O_K : Z[theta]] iff p^2 | f(r) at a multiple root r of f mod p
    (repeated factors are linear; p | f'(r) makes any lift of r do)."""
    return any(f.derivative(r) % p == 0 and f(r) % (p * p) == 0
               for r in roots_mod_p(f, p))
