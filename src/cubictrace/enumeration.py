"""Exhaustive enumeration of cyclic trace-one cubics.

Enumeration is driven by the t-coefficient a.  With h = 1 - 3a, the b whose
discriminant is a nonzero square correspond to the conjugate pairs of
elements of norm h^3 in Z[w], which are generated from the factorization of
h (Cornacchia for each split prime) instead of testing every b with a
positive discriminant.  One walk, classified_polys_for_a, takes them by the
pattern of their valuations j_i mod 3 at the split primes, which fixes the
field (see `fields`): one key per pattern, one alpha per conjugate pair and
no reducible cubic.  Every such alpha gives an integer b, by the mod-27
congruence proved there.

A field's cubics need no walk.  For the key k = (c, chi = (e_p)), put
gamma_k = prod_{p | c} pi_p^(e_p) conj(pi_p)^(3 - e_p), of norm c^3.  The
cubics of k at H^2 = c*N are alpha = -gamma_k * beta^3, one for each
primary beta (beta = 1 mod 3) of norm N, so one for each ideal of norm N:
the identity d_N = #{cubics} made constructive.  _field_bs scans the
beta over a range of N; _members builds them at one a from N's factors.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt

from .arith import FACTOR_LIMIT, InconsistencyError, _past_limit, factorize
from .eisenstein import _conj, _cornacchia, _mul, series_coeff
from .fields import FieldClass, check_key
from .poly import TraceOnePoly


@lru_cache(maxsize=4096)
def _factor_row(p: int, e: int) -> tuple:
    """The choices at a split prime p exactly dividing h as p^e: row[r] holds
    pi^j conj(pi)^(3e-j) for the j = r (mod 3) in 0 .. 3e, pi = _cornacchia(p).
    Each is p^min(j, 3e-j) times pi^(2j-3e) or conj(pi)^(3e-2j), so the row
    takes the 3e - 1 products pi^2 .. pi^(3e) in Z[w].  Memoized: Cornacchia
    and the powers run once per (p, e), not per a."""
    n = 3 * e
    pi = _cornacchia(p)
    pows = [(1, 0), pi]
    for _ in range(n - 1):
        pows.append(_mul(pows[-1], pi))
    factors = []
    for j in range(n + 1):
        s = p ** min(j, n - j)
        x, y = pows[2 * j - n] if 2 * j >= n else _conj(pows[n - 2 * j])
        factors.append((s * x, s * y))
    return tuple(factors[0::3]), tuple(factors[1::3]), tuple(factors[2::3])


def _bad_alpha(alpha: tuple[int, int], a: int) -> InconsistencyError:
    """The error for an alpha of norm (1 - 3a)^3 whose b fails a check: first
    q = 9a - 2 (mod 27), then 27 disc = 4h^3 - q^2 > 0."""
    x, y = alpha
    q = 2 * x - y
    b, off = divmod(q - 9 * a + 2, 27)
    if off:
        return InconsistencyError(f"alpha = {x} + {y}w of norm (1 - 3a)^3 has "
                                  f"q = {q} != 9a - 2 (mod 27) at a = {a}")
    return InconsistencyError(f"alpha = {x} + {y}w gives b = {b} with "
                              f"disc <= 0 at a = {a}")


def classified_polys_for_a(a: int) -> tuple[tuple[TraceOnePoly, FieldClass], ...]:
    """(f, k) for each irreducible f = t^3 - t^2 + a t + b whose discriminant
    is a positive square, k the FieldClass of its root field, ascending in b.
    Not memoized.  The cubics are made here, so the census at a holds one
    list of pairs, sorted by b as an int: comparing the pairs themselves
    would compare cubics, tuple by tuple.

    With h = 1 - 3a and q = 9a + 27b - 2, disc = (4h^3 - q^2)/27, so
    disc = s^2 exactly when alpha = (q + 3s*sqrt(-3))/2 = x + y*w, with
    q = 2x - y and y = 3s, has norm h^3.  Such an alpha is = 2 (mod 3), since
    q = 1 (mod 3); q is its trace, so its conjugate gives the same b.

    By unique factorization alpha = u * r * prod pi_i^j_i conj(pi_i)^(3e_i-j_i)
    over the split primes p_i = pi_i conj(pi_i), where p_i^e_i exactly divides
    h, r is the rational part from the inert primes and u is a unit.  Every
    factor is taken = 1 (mod 3); of the six units only u = -1 then gives
    alpha = 2 (mod 3).  An inert prime with odd exponent in h^3 leaves no
    alpha at all.

    The pattern of the j_i mod 3 fixes the field (see `fields`): c is the
    product of the p_i with j_i != 0 and chi = prod (./pi_i)_3^(j_i).
    Conjugation (j_i -> 3e_i - j_i) negates it, so the walk takes each pattern
    whose first nonzero entry is 1, builds its FieldClass once and lists
    all its alpha.  It never walks the all-zero pattern: the reducible cubics
    and the rational alpha (disc = 0).  The walk is depth first, from a stack
    of pattern prefixes, and holds the alpha of one prefix per level and
    choice, never a whole level.  At the last prime it reads q off each
    product without building the product: Tr(x f) = x0 (2f0 - f1) -
    x1 (f0 + f1) for x = x0 + x1 w and f = f0 + f1 w.

    Every alpha = 2 (mod 3) of norm h^3 has q = 9a - 2 (mod 27), so b is an
    integer.  Since 3 | y, q^2 = 4h^3 - 3y^2 = 4h^3 (mod 27), and
    h^3 = 1 - 9a (mod 27) gives 4h^3 = (9a - 2)^2 (mod 27).  So 27 divides
    (q - (9a - 2)) (q + 9a - 2), and q + 9a - 2 = 2 (mod 3) is a unit mod 27.
    An alpha off that class, or with 4h^3 - q^2 = 27 disc <= 0, raises
    InconsistencyError instead of being skipped.
    """
    if a > 0:
        raise ValueError(f"enumeration requires a <= 0, got a = {a}")
    h = 1 - 3 * a
    rational = -1
    rows = []
    for p, e in factorize(h):
        if p % 3 == 2:
            if e % 2:
                return ()
            rational *= (-p) ** (3 * e // 2)
        else:
            rows.append((p, _factor_row(p, e)))
    if not rows:
        return ()
    out = []
    last = len(rows) - 1
    q0, four_h3 = 9 * a - 2, 4 * h**3
    stack = [(0, [(rational, 0)], 1, ())]  # (i, alphas, c, es) before prime i
    while stack:
        i, alphas, c, es = stack.pop()
        p, row = rows[i]  # r = 2 before any nonzero r: the conjugate of r = 1
        for r in (0, 1, 2) if es else (0, 1) if i < last else (1,):
            cr, er = (c * p, (*es, r)) if r else (c, es)
            if i < last:
                prefix = [_mul(x, f) for x in alphas for f in row[r]]
                stack.append((i + 1, prefix, cr, er))
                continue
            key = FieldClass(cr, er)
            for f0, f1 in row[r]:
                u, v = 2 * f0 - f1, f0 + f1
                for x0, x1 in alphas:
                    q = x0 * u - x1 * v
                    b, off = divmod(q - q0, 27)
                    if off or q * q >= four_h3:
                        raise _bad_alpha(_mul((x0, x1), (f0, f1)), a)
                    out.append((TraceOnePoly(a, b), key))
    out.sort(key=lambda pair: pair[0].b)
    return tuple(out)


class EnumerationRow(namedtuple("EnumerationRow", "n a polys predicted")):
    """Census of F_K members at one normalized height N (H^2 = c*N), as an
    immutable named tuple.  a is None, and polys is (), at an N where no
    integer a has 1 - 3a = c*N."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.polys)

    @property
    def height_sq(self):
        return None if self.a is None else 1 - 3 * self.a


def _neg_gamma(ps: tuple[int, ...], character: tuple[int, ...]) -> tuple:
    """-gamma_k for the key with primes ps and exponents character, where
    gamma_k = prod pi_p^(e_p) conj(pi_p)^(3 - e_p), of norm c^3: its factor
    at p is row e_p of _factor_row(p, 1).  The cubic of k at a primary
    beta has alpha = -gamma_k * beta^3."""
    g = (-1, 0)
    for p, e in zip(ps, character):
        g = _mul(g, _factor_row(p, 1)[e][0])
    return g


def _members(k: FieldClass, a: int) -> tuple[TraceOnePoly, ...]:
    """The cyclic cubics at a with root field k, ascending in b: one
    alpha = -gamma_k * beta^3 for each primary beta of norm N = (1 - 3a)/c.
    beta's factor at a split p^e || N is pi^i conj(pi)^(e-i), 0 <= i <= e,
    whose cubes are row 0 of _factor_row(p, e); at an inert p^e it is
    (-p)^(e/2) = 1 (mod 3), and an odd e leaves no beta.  For a <= 0: no
    cubics if c does not divide h = 1 - 3a, and a ValueError if it does but
    is not the product of len(chi) primes = 1 (mod 3).  Refuses
    h >= FACTOR_LIMIT, where the census at a stops, whether or not c | h."""
    h = 1 - 3 * a
    if h >= FACTOR_LIMIT:
        raise _past_limit(h)
    n, rest = divmod(h, k.conductor)
    if rest:
        return ()
    ps = check_key(k)
    alphas = [_neg_gamma(ps, k.character)]
    for p, e in factorize(n):
        if p % 3 == 2:
            if e % 2:
                return ()
            r = (-p) ** (3 * e // 2)
            alphas = [(r * x, r * y) for x, y in alphas]
        else:
            alphas = [_mul(x, f) for x in alphas for f in _factor_row(p, e)[0]]
    q0, four_h3 = 9 * a - 2, 4 * h**3
    bs = []
    for x, y in alphas:
        q = 2 * x - y
        b, off = divmod(q - q0, 27)
        if off or q * q >= four_h3:
            raise _bad_alpha((x, y), a)
        bs.append(b)
    bs.sort()
    return tuple(TraceOnePoly(a, b) for b in bs)


def _field_bs(k: FieldClass, n_max: int) -> list[list[int]]:
    """The unsorted b of k's cubics at each admissible N <= n_max, entry i at
    N = 3i + 1: as c = 1 (mod 3), the admissible N are those = 1 (mod 3).

    One scan, which factors no c*N, takes each primary beta = x + y w
    (x = 1, y = 0 mod 3) with N(beta) = ((2x - y)^2 + 3y^2)/4 <= n_max: for
    each y with 3y^2 <= 4 n_max, the x with |2x - y| <= isqrt(4 n_max - 3y^2).
    beta gives the cubic of alpha = -gamma_k * beta^3 at N = N(beta), with
    beta^3 = U + V w, U = x^3 - 3xy^2 + y^3 and V = 3xy(x - y); q, the trace
    of alpha, is linear in (U, V).  Like the rest of the library it keeps
    below FACTOR_LIMIT: it refuses, before any work, an n_max that reaches
    the least admissible N with c*N >= FACTOR_LIMIT, naming that c*N."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    ps = check_key(k)
    c = k.conductor
    n_past = -(-FACTOR_LIMIT // c)
    n_past += (1 - n_past) % 3
    if n_past <= n_max:
        raise _past_limit(c * n_past)
    g = _neg_gamma(ps, k.character)
    gu, gv = 2 * g[0] - g[1], -g[0] - g[1]  # q = gu U + gv V
    bs_at = [[] for _ in range((n_max + 2) // 3)]
    y_max = isqrt(4 * n_max // 3)
    for y in range(-y_max + y_max % 3, y_max + 1, 3):
        s = isqrt(4 * n_max - 3 * y * y)
        lo = -((s - y) // 2)
        yy, y3 = y * y, y**3
        for x in range(lo + (1 - lo) % 3, (y + s) // 2 + 1, 3):
            n = x * x - x * y + yy
            U, V = x * (x * x - 3 * yy) + y3, 3 * x * y * (x - y)
            q = gu * U + gv * V
            h = c * n
            b, off = divmod(q + 3 * h - 1, 27)  # 9a - 2 = 1 - 3h
            if off or q * q >= 4 * h**3:
                raise _bad_alpha(_mul(g, (U, V)), (1 - h) // 3)
            bs_at[n // 3].append(b)
    return bs_at


def enumerate_field(k: FieldClass, n_max: int) -> list[EnumerationRow]:
    """Rows for N = 1 .. n_max, cubics ascending in b, from the scan _field_bs
    (see there for the refusals); non-admissible N yield empty rows."""
    return _rows(k, n_max, _field_bs(k, n_max))


def _rows(k: FieldClass, n_max: int, bs_at) -> list[EnumerationRow]:
    """enumerate_field's rows from bs_at = _field_bs(k, n_max)."""
    c = k.conductor
    rows = []
    for n in range(1, n_max + 1):
        if n % 3 == 1:
            a = (1 - c * n) // 3
            polys = tuple(TraceOnePoly(a, b) for b in sorted(bs_at[n // 3]))
            rows.append(EnumerationRow(n, a, polys, series_coeff(n)))
        else:
            rows.append(EnumerationRow(n, None, (), series_coeff(n)))
    return rows


def min_height(k: FieldClass) -> int:
    """Smallest H^2 = c*N with a member of F_K; equals the conductor, so
    only N = 1, at a = (1 - c)/3, is checked."""
    check_key(k)
    if not _members(k, (1 - k.conductor) // 3):
        raise InconsistencyError(
            f"no member of the conductor-{k.conductor} class at H^2 = "
            f"{k.conductor}")
    return k.conductor


def enumerate_all(a_min: int) -> dict[FieldClass, list[TraceOnePoly]]:
    """Partition of all cyclic trace-one cubics with a_min <= a <= 0 by field."""
    if a_min > 0:
        raise ValueError(f"a_min must be <= 0, got {a_min}")
    census: dict[FieldClass, list[TraceOnePoly]] = {}
    for a in range(a_min, 1):
        for f, k in classified_polys_for_a(a):
            census.setdefault(k, []).append(f)
    return census
