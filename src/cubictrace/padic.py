"""Local analysis of a trace-one cubic at a prime p.

Root finding mod p, Hensel-style lifting in Z_p and in the unramified
cubic extension W of Z_p, the three-way splitting classification, and
Dedekind's index-divisor criterion as an independent cross-check.

Polynomials over F_p are represented as tuples of coefficients in
ascending degree order with no trailing zeros.
"""

from __future__ import annotations

import enum
import itertools

from .arith import InconsistencyError
from .poly import TraceOnePoly, discriminant, is_cyclic

_BRUTE_FORCE_PRIME = 1024


class SplittingType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def valuation(n: int, p: int) -> int:
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


def roots_mod_p(f: TraceOnePoly, p: int) -> set[int]:
    """All residues r in [0, p) with f(r) = 0 mod p."""
    return _fp_roots((f.b, f.a, -1, 1), p)


# ---------------------------------------------------------------------------
# Lifting in Z_p and in the unramified cubic extension W of Z_p

def _shift_scale(coeffs, r: int, p: int):
    """G(r + p*y) for a degree <= 3 integer polynomial G, coefficients in y."""
    c = list(coeffs) + [0] * (4 - len(coeffs))
    c0, c1, c2, c3 = c[:4]
    a0 = ((c3 * r + c2) * r + c1) * r + c0
    a1 = (3 * c3 * r + 2 * c2) * r + c1
    a2 = 3 * c3 * r + c2
    return [a0, a1 * p, a2 * p * p, c3 * p**3]


def _has_root(coeffs, p: int, depth: int, unramified: bool) -> bool:
    """Whether the integer polynomial (degree <= 3) has a root in Z_p or,
    if `unramified`, in W, the unramified cubic extension ring of Z_p.

    The residue field of W is F_{p^3}, which contains no quadratic
    subextension, so a residue root is either in F_p or generates the whole
    cubic residue field; the latter happens exactly when the reduction has an
    irreducible cubic factor (then Hensel factor lifting certifies a root).
    Simple F_p residue roots lift by Hensel; multiple ones recurse on the
    shifted, rescaled polynomial.  Cosets of roots are never enumerated.
    """
    if depth < 0:
        raise InconsistencyError("p-adic root search exceeded depth budget")
    cbar = _pnorm(coeffs, p)
    roots = _fp_roots(cbar, p)
    if unramified and len(cbar) - 1 == 3 and not roots:
        return True  # irreducible cubic reduction: roots generate W
    multiple = []
    for r in sorted(roots):
        shifted = _shift_scale(coeffs, r, p)  # [G(r), G'(r) p, ...]
        if shifted[1] % (p * p):
            return True  # simple residue root lifts into Z_p, hence into W
        multiple.append(shifted)
    for shifted in multiple:
        mu = min(valuation(c, p) for c in shifted if c)
        reduced = [c // p**mu for c in shifted]
        if _has_root(reduced, p, depth - mu, unramified):
            return True
    return False


def _lift(f: TraceOnePoly, p: int, unramified: bool) -> bool:
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("discriminant is zero: p-adic valuation is infinite")
    return _has_root([f.b, f.a, -1, 1], p, valuation(disc, p) + 4, unramified)


def lift_root_zp(f: TraceOnePoly, p: int) -> bool:
    """Whether f has a root in Z_p.

    Decided by recursive residue analysis (see _has_root) on the F_p roots:
    a multiple residue root r is followed into f(r + p*y), never by
    enumerating the p lifts of r, so large index primes cost no memory.
    """
    return _lift(f, p, unramified=False)


def lift_root_unramified(f: TraceOnePoly, p: int) -> bool:
    """Whether f has a root in the degree-3 unramified extension ring W of Z_p.

    Decided by recursive residue analysis (see _has_root): the
    root sets of f modulo p^k in W can contain entire cosets of size p^3 and
    larger, so they are handled symbolically instead of being enumerated.
    """
    return _lift(f, p, unramified=True)


# ---------------------------------------------------------------------------
# Classification

def splitting_type(f: TraceOnePoly, p: int) -> SplittingType:
    """Split / Inert / Ramified behavior of p in the root field of f.

    Robust to index divisors: when p | disc(f), the decision is made by root
    lifting in Z_p and in the unramified cubic extension, never from the
    factorization of f mod p alone.
    """
    if not is_cyclic(f):
        raise ValueError(f"{f} is not cyclic")
    disc = discriminant(f)
    if disc % p != 0:
        n = len(roots_mod_p(f, p))
        if n == 3:
            return SplittingType.SPLIT
        if n == 0:
            return SplittingType.INERT
        raise InconsistencyError(
            f"{n} roots mod {p} for square-discriminant cubic {f}")
    if lift_root_zp(f, p):
        return SplittingType.SPLIT
    if lift_root_unramified(f, p):
        return SplittingType.INERT
    return SplittingType.RAMIFIED


def dedekind_index_test(f: TraceOnePoly, p: int) -> bool:
    """Dedekind's criterion (Cohen, GTM 138, Thm 6.1.4) for a cubic: p
    divides [O_K : Z[theta]] iff p^2 | f(r) at a multiple root r of f mod p
    (repeated factors are linear; p | f'(r) makes any lift of r do)."""
    return any(f.derivative(r) % p == 0 and f(r) % (p * p) == 0
               for r in roots_mod_p(f, p))
