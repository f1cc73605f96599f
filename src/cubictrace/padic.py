"""Local analysis of a trace-one cubic at a prime p.

Root finding mod p, the three-way splitting classification read off the
field key, and Dedekind's index-divisor criterion as an independent
cross-check.

Polynomials over F_p are represented as tuples of coefficients in
ascending degree order with no trailing zeros.
"""

from __future__ import annotations

import enum
import itertools

from .arith import FACTOR_LIMIT, SizeLimitError, is_prime
from .fields import _cube_label, check_key, field_invariants
from .poly import TraceOnePoly

_BRUTE_FORCE_PRIME = 1024


class SplittingType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def valuation(n: int, p: int) -> int:
    if p < 2:
        raise ValueError(f"valuation at {p} is undefined")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# F_p[x] helpers

def _pnorm(c: list[int], p: int) -> tuple[int, ...]:
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul(u, v, p):
    if not u or not v:
        return ()
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    return _pnorm(out, p)


def _psub(u, v, p):
    out = list(u) + [0] * max(0, len(v) - len(u))
    for j, b in enumerate(v):
        out[j] = (out[j] - b) % p
    return _pnorm(out, p)


def _pdivmod(u, v, p):
    if not v:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(v[-1], -1, p)
    rem = list(u)
    quo = [0] * max(0, len(u) - len(v) + 1)
    while len(rem) >= len(v):
        while rem and rem[-1] % p == 0:
            rem.pop()
        if len(rem) < len(v):
            break
        coef = rem[-1] * inv % p
        shift = len(rem) - len(v)
        quo[shift] = coef
        for j, b in enumerate(v):
            rem[shift + j] = (rem[shift + j] - coef * b) % p
        rem.pop()
    return _pnorm(quo, p), _pnorm(rem, p)


def _pgcd(u, v, p):
    while v:
        u, v = v, _pdivmod(u, v, p)[1]
    if u:
        inv = pow(u[-1], -1, p)
        u = tuple(x * inv % p for x in u)
    return u


def _ppow_mod(base, e: int, modpoly, p):
    result = (1,)
    base = _pdivmod(base, modpoly, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), modpoly, p)[1]
        base = _pdivmod(_pmul(base, base, p), modpoly, p)[1]
        e >>= 1
    return result


def _split_roots(poly, p: int) -> set[int]:
    """Roots of a monic polynomial over F_p, p odd, known to split into
    distinct linear factors: gcd(poly, (x + c)^((p-1)/2) - 1) separates the
    roots r with r + c a nonzero square from the rest (Cantor-Zassenhaus)."""
    deg = len(poly) - 1
    if deg <= 0:
        return set()
    if deg == 1:
        return {-poly[0] % p}
    for c in itertools.count():
        h = _ppow_mod((c % p, 1), (p - 1) // 2, poly, p)
        g = _pgcd(poly, _psub(h, (1,), p), p)
        if 0 < len(g) - 1 < deg:
            rest = _pdivmod(poly, g, p)[0]
            return _split_roots(g, p) | _split_roots(rest, p)


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
    xp = _ppow_mod((0, 1), p, cbar, p)
    return _split_roots(_pgcd(cbar, _psub(xp, (0, 1), p), p), p)


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
