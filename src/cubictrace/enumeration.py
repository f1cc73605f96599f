"""Exhaustive enumeration of cyclic trace-one cubics.

Enumeration is driven by the t-coefficient a.  With h = 1 - 3a, the b whose
discriminant is a nonzero square correspond to the conjugate pairs of
elements of norm h^3 in Z[w], which are generated from the factorization of
h (Cornacchia for each split prime) instead of testing every b in the
interval b_range(a).  One walk, _square_disc_alphas, takes them by the
pattern of their valuations j_i mod 3 at the split primes, which fixes the
field (see `fields`): one key per pattern, one alpha per conjugate pair and
no reducible cubic.  A field's cubics at a are one pattern, which _members
walks alone.  Every such alpha gives an integer b, by the mod-27
congruence proved there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod

from .arith import InconsistencyError, factorize
from .eisenstein import _conj, _cornacchia, _mul, series_coeff
from .fields import FieldClass, check_key
from .poly import TraceOnePoly


def b_range(a: int) -> range:
    """Exactly the integers b with disc(t^3 - t^2 + a t + b) > 0.

    The discriminant is quadratic in b with negative leading coefficient, so
    the solution set is an open interval; disc = 0 endpoints are excluded.
    """
    if a > 0:
        raise ValueError(f"enumeration requires a <= 0, got a = {a}")
    B = 4 - 18 * a
    C = a * a - 4 * a**3
    delta = B * B + 108 * C  # equals 16 (1-3a)^3 > 0
    s = isqrt(delta)
    lo = (B - s) // 54 - 1
    hi = (B + s) // 54 + 1
    while lo <= hi and -27 * lo * lo + B * lo + C <= 0:
        lo += 1
    while hi >= lo and -27 * hi * hi + B * hi + C <= 0:
        hi -= 1
    if lo > hi:
        return range(0, 0)
    return range(lo, hi + 1)


@lru_cache(maxsize=4096)
def _factor_row(p: int, e: int) -> tuple:
    """The choices at a split prime p exactly dividing h as p^e: row[r] holds
    pi^j conj(pi)^(3e-j) for the j = r (mod 3) in 0 .. 3e, pi = _cornacchia(p).
    Memoized: Cornacchia and the powers run once per (p, e), not per a."""
    pi = _cornacchia(p)
    pows = [(1, 0)]
    for _ in range(3 * e):
        pows.append(_mul(pows[-1], pi))
    factors = tuple(_mul(pows[j], _conj(pows[3 * e - j]))
                    for j in range(3 * e + 1))
    return factors[0::3], factors[1::3], factors[2::3]


def _square_disc_alphas(a: int, k: FieldClass | None = None):
    """(b, k) for each irreducible t^3 - t^2 + a t + b whose discriminant is a
    positive square, k the FieldClass of its root field, in walk order; given
    a key k, only the cubics with root field k.

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
    whose first nonzero entry is 1, builds its FieldClass once and yields
    all its alpha.  It never walks the all-zero pattern: the reducible cubics
    and the rational alpha (disc = 0).  Given k, it walks k's pattern alone:
    e_p at each p | c and 0 at the other split primes.  A key whose conductor
    is not the product of len(character) split primes of h has no pattern
    and no cubics at a.

    Every alpha = 2 (mod 3) of norm h^3 has q = 9a - 2 (mod 27), so b is an
    integer.  Since 3 | y, q^2 = 4h^3 - 3y^2 = 4h^3 (mod 27), and
    h^3 = 1 - 9a (mod 27) gives 4h^3 = (9a - 2)^2 (mod 27).  So 27 divides
    (q - (9a - 2)) (q + 9a - 2), and q + 9a - 2 = 2 (mod 3) is a unit mod 27.
    An alpha off that class, or with 4h^3 - q^2 = 27 disc <= 0 (b outside
    b_range(a)), raises InconsistencyError instead of being skipped.
    """
    if a > 0:
        raise ValueError(f"enumeration requires a <= 0, got a = {a}")
    h = 1 - 3 * a
    rational = -1
    rows = []
    for p, e in factorize(h):
        if p % 3 == 2:
            if e % 2:
                return
            rational *= (-p) ** (3 * e // 2)
        else:
            rows.append((p, _factor_row(p, e)))
    if k is not None:
        ps = [p for p, _ in rows if k.conductor % p == 0]
        if prod(ps) != k.conductor or len(ps) != len(k.character):
            return
        fixed = dict(zip(ps, k.character))
    last = len(rows) - 1
    four_h3 = 4 * h**3

    def walk(i: int, alphas: list, c: int, es: tuple):
        if i > last:
            key = FieldClass(c, es)
            for x, y in alphas:
                q = 2 * x - y
                b, off = divmod(q - 9 * a + 2, 27)
                if off:
                    raise InconsistencyError(
                        f"alpha = {x} + {y}w of norm (1 - 3a)^3 has q = {q} "
                        f"!= 9a - 2 (mod 27) at a = {a}")
                if q * q >= four_h3:
                    raise InconsistencyError(f"alpha = {x} + {y}w gives b = "
                                             f"{b} with disc <= 0 at a = {a}")
                yield b, key
            return
        p, row = rows[i]  # r = 2 before any nonzero r: the conjugate of r = 1
        for r in ((fixed.get(p, 0),) if k is not None else (0, 1, 2) if es
                  else (0, 1) if i < last else (1,)):
            yield from walk(i + 1, [_mul(x, f) for x in alphas for f in row[r]],
                            c * p if r else c, (*es, r) if r else es)

    if rows:
        yield from walk(0, [(rational, 0)], 1, ())


def classified_polys_for_a(a: int) -> tuple[tuple[TraceOnePoly, FieldClass], ...]:
    """All cyclic trace-one cubics with this a, each with its field class,
    ascending in b.  Not memoized."""
    return tuple((TraceOnePoly(a, b), k)
                 for b, k in sorted(_square_disc_alphas(a)))


@dataclass(frozen=True)
class EnumerationRow:
    """Census of F_K members at one normalized height N (H^2 = c*N)."""

    n: int
    a: int | None
    polys: tuple[TraceOnePoly, ...]
    predicted: int

    @property
    def count(self) -> int:
        return len(self.polys)

    @property
    def height_sq(self):
        return None if self.a is None else 1 - 3 * self.a


def _members(k: FieldClass, a: int) -> tuple[TraceOnePoly, ...]:
    """The cyclic cubics at a with root field k, one pattern of the walk."""
    return tuple(TraceOnePoly(a, b)
                 for b in sorted(b for b, _k in _square_disc_alphas(a, k)))


def _row(k: FieldClass, n: int) -> EnumerationRow:
    h2 = k.conductor * n
    predicted = series_coeff(n)
    if (1 - h2) % 3 != 0:
        return EnumerationRow(n, None, (), predicted)
    a = (1 - h2) // 3  # <= 0, since h2 >= 1
    return EnumerationRow(n, a, _members(k, a), predicted)


def enumerate_field(k: FieldClass, n_max: int) -> list[EnumerationRow]:
    """Rows for N = 1 .. n_max; non-admissible N yield empty rows."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    check_key(k)
    return [_row(k, n) for n in range(1, n_max + 1)]


def min_height(k: FieldClass) -> int:
    """Smallest H^2 = c*N with a member of F_K; equals the conductor, so
    only the row N = 1 is checked."""
    check_key(k)
    if not _row(k, 1).count:
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
