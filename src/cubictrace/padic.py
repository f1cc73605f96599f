"""Local analysis of a trace-one cubic at a prime p.

Root counting mod p, Hensel-style lifting in Z_p and in the unramified
cubic extension W of Z_p, the three-way splitting classification, and
Dedekind's index-divisor criterion as an independent cross-check.

Polynomials over F_p are represented as tuples of coefficients in
ascending degree order with no trailing zeros.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache

from .poly import TraceOnePoly, discriminant, is_cyclic

_BRUTE_FORCE_PRIME = 1024
_LIFT_SET_CAP = 2_000_000


class InconsistencyError(RuntimeError):
    """Internal contradiction: the input violates an assumed invariant."""


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


def _sqrt_mod_p(n: int, p: int) -> int:
    """Tonelli-Shanks square root mod an odd prime; n must be a QR."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # find the least quadratic non-residue (deterministic)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _fbar(f: TraceOnePoly, p: int):
    return _pnorm([f.b, f.a, -1, 1], p)


def _split_roots(poly, p: int) -> set[int]:
    """Roots of a polynomial known to split into distinct linear factors."""
    deg = len(poly) - 1
    if deg <= 0:
        return set()
    if deg == 1:
        return {(-poly[0] * pow(poly[1], -1, p)) % p}
    if deg == 2:
        a2, a1, a0 = poly[2], poly[1], poly[0]
        s = _sqrt_mod_p((a1 * a1 - 4 * a2 * a0) % p, p)
        inv = pow(2 * a2, -1, p)
        return {(-a1 + s) * inv % p, (-a1 - s) * inv % p}
    # degree 3, fully split: peel off a factor with a quadratic-residue test
    for c in itertools.count():
        h = _ppow_mod((c % p, 1), (p - 1) // 2, poly, p)
        g = _pgcd(poly, _psub(h, (1,), p), p)
        if 0 < len(g) - 1 < 3:
            rest = _pdivmod(poly, g, p)[0]
            return _split_roots(g, p) | _split_roots(rest, p)


def roots_mod_p(f: TraceOnePoly, p: int) -> set[int]:
    """All residues r in [0, p) with f(r) = 0 mod p."""
    if p <= _BRUTE_FORCE_PRIME:
        return {r for r in range(p) if f(r) % p == 0}
    fb = _fbar(f, p)
    xp = _ppow_mod((0, 1), p, fb, p)
    g1 = _pgcd(fb, _psub(xp, (0, 1), p), p)
    if not g1:
        # x^p = x in F_p[x]/(f): f splits completely with distinct roots
        g1 = fb
    return _split_roots(g1, p)


def _root_count_mod_p(f: TraceOnePoly, p: int) -> int:
    """Number of distinct roots of f mod p (fast path for large p)."""
    if p <= _BRUTE_FORCE_PRIME:
        return len(roots_mod_p(f, p))
    fb = _fbar(f, p)
    xp = _ppow_mod((0, 1), p, fb, p)
    g1 = _pgcd(fb, _psub(xp, (0, 1), p), p)
    return 3 if not g1 else len(g1) - 1


# ---------------------------------------------------------------------------
# Lifting in Z_p

def lift_root_zp(f: TraceOnePoly, p: int, d: int | None = None) -> bool:
    """Whether f has a root in Z_p.

    Breadth-first lifting of the root set mod p^k for k = 1 .. 2d+1 with
    d = v_p(disc f); a survivor mod p^{2d+1} has derivative valuation <= d,
    so Hensel's lemma certifies a true root.
    """
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("discriminant is zero: p-adic valuation is infinite")
    if d is None:
        d = valuation(disc, p)
    roots = sorted(roots_mod_p(f, p))
    for k in range(1, 2 * d + 1):
        if not roots:
            return False
        pk = p**k
        nxt = set()
        for r in roots:
            # Hensel early exit: v(f(r)) >= k > 2 v(f'(r)) certifies a root
            fpr = f.derivative(r)
            v = min(valuation(fpr, p), k) if fpr else k
            if 2 * v < k:
                return True
            u = (f(r) // pk) % p
            alpha = fpr % p
            if alpha:
                t = -u * pow(alpha, -1, p) % p
                nxt.add(r + t * pk)
            elif u == 0:
                nxt.update(r + t * pk for t in range(p))
        if len(nxt) > _LIFT_SET_CAP:
            raise InconsistencyError(f"root set mod {p}^{k + 1} exceeded cap")
        roots = sorted(nxt)
    return bool(roots)


# ---------------------------------------------------------------------------
# Lifting in the unramified cubic extension W of Z_p

def _fp_distinct_roots(poly, p: int) -> set[int]:
    """Distinct F_p roots of a degree <= 3 polynomial over F_p."""
    poly = _pnorm(list(poly), p)
    if len(poly) <= 1:
        return set()
    if p <= _BRUTE_FORCE_PRIME:
        out = set()
        for r in range(p):
            acc = 0
            for c in reversed(poly):
                acc = (acc * r + c) % p
            if acc == 0:
                out.add(r)
        return out
    xp = _ppow_mod((0, 1), p, poly, p)
    g1 = _pgcd(poly, _psub(xp, (0, 1), p), p)
    if not g1:
        g1 = poly
    return _split_roots(g1, p)


def _shift_scale(coeffs, r: int, p: int):
    """G(r + p*y) for a degree <= 3 integer polynomial G, coefficients in y."""
    c = list(coeffs) + [0] * (4 - len(coeffs))
    c0, c1, c2, c3 = c[:4]
    a0 = ((c3 * r + c2) * r + c1) * r + c0
    a1 = (3 * c3 * r + 2 * c2) * r + c1
    a2 = 3 * c3 * r + c2
    return [a0, a1 * p, a2 * p * p, c3 * p**3]


def _has_unramified_root(coeffs, p: int, depth: int) -> bool:
    """Whether the integer polynomial (degree <= 3) has a root in W, the
    unramified cubic extension ring of Z_p.

    The residue field of W is F_{p^3}, which contains no quadratic
    subextension, so a residue root is either in F_p or generates the whole
    cubic residue field; the latter happens exactly when the reduction has an
    irreducible cubic factor (then Hensel factor lifting certifies a root).
    Simple F_p residue roots lift by Hensel; multiple ones recurse on the
    shifted, rescaled polynomial.  Cosets of roots are never enumerated.
    """
    if depth < 0:
        raise InconsistencyError("unramified root search exceeded depth budget")
    cbar = _pnorm(coeffs, p)
    roots = _fp_distinct_roots(cbar, p)
    if len(cbar) - 1 == 3 and not roots:
        return True  # irreducible cubic reduction: roots generate W
    dbar = _pnorm([i * c for i, c in enumerate(cbar)][1:], p)
    multiple = []
    for r in sorted(roots):
        acc = 0
        for c in reversed(dbar):
            acc = (acc * r + c) % p
        if acc != 0:
            return True  # simple residue root lifts into Z_p, hence into W
        multiple.append(r)
    for r in multiple:
        shifted = _shift_scale(coeffs, r, p)
        mu = min(valuation(c, p) for c in shifted if c)
        reduced = [c // p**mu for c in shifted]
        if _has_unramified_root(reduced, p, depth - mu):
            return True
    return False


def lift_root_unramified(f: TraceOnePoly, p: int) -> bool:
    """Whether f has a root in the degree-3 unramified extension ring W of Z_p.

    Decided by recursive residue analysis (see _has_unramified_root): the
    root sets of f modulo p^k in W can contain entire cosets of size p^3 and
    larger, so they are handled symbolically instead of being enumerated.
    """
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("discriminant is zero: p-adic valuation is infinite")
    d = valuation(disc, p)
    return _has_unramified_root([f.b, f.a, -1, 1], p, d + 4)


# ---------------------------------------------------------------------------
# Classification

@lru_cache(maxsize=1 << 18)
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
        n = _root_count_mod_p(f, p)
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
    """Dedekind's criterion: does p divide the index [O_K : Z[theta]]?

    Factor f mod p, set g = product of the distinct irreducible factors,
    h = f/g mod p, T = (g*h - f)/p; p divides the index iff
    gcd(T, g, h) != 1 in F_p[x].
    """
    fb = _fbar(f, p)
    roots = roots_mod_p(f, p)
    radical = (1,)
    for r in sorted(roots):
        radical = _pmul(radical, ((-r) % p, 1), p)
    # strip all linear root factors to expose a rootless residual factor
    residual = fb
    for r in sorted(roots):
        while True:
            q, rem = _pdivmod(residual, ((-r) % p, 1), p)
            if rem:
                break
            residual = q
    if len(residual) > 1:
        radical = _pmul(radical, residual, p)  # irreducible (no roots, deg <= 3)
    hbar = _pdivmod(fb, radical, p)[0]
    # lift g, h to Z[x] with coefficients in [0, p) and form T = (g*h - f)/p
    g_int = [c % p for c in radical]
    h_int = [c % p for c in hbar]
    gh = [0] * (len(g_int) + len(h_int) - 1)
    for i, x in enumerate(g_int):
        for j, y in enumerate(h_int):
            gh[i + j] += x * y
    f_int = [f.b, f.a, -1, 1]
    diff = [x - y for x, y in zip(gh + [0] * (4 - len(gh)), f_int)]
    if any(c % p for c in diff):
        raise InconsistencyError(
            f"g*h differs from {f} mod {p} in Dedekind's criterion")
    tbar = _pnorm([c // p for c in diff], p)
    d = _pgcd(_pgcd(tbar, radical, p), hbar, p)
    return len(d) > 1
