"""Exhaustive enumeration of cyclic trace-one cubics.

Enumeration is driven by the t-coefficient a: for fixed a the positive
discriminant condition confines b to a finite interval, which is scanned
exactly.  Field membership uses the (conductor, cubic character) key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .eisenstein import series_coeff
from .fields import FieldClass, field_invariants
from .padic import InconsistencyError
from .poly import TraceOnePoly, discriminant, is_cyclic, is_irreducible

_NUMPY_MIN_LEN = 64
_INT64_SAFE = 2**62


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


def _square_disc_bs(a: int) -> list[int]:
    """b values in b_range(a) whose discriminant is a positive perfect square."""
    rng = b_range(a)
    if not rng:
        return []
    B = 4 - 18 * a
    C = a * a - 4 * a**3
    bound = 27 * max(abs(rng.start), abs(rng.stop)) ** 2 + abs(B) * max(
        abs(rng.start), abs(rng.stop)) + abs(C)
    candidates: list[int]
    if len(rng) >= _NUMPY_MIN_LEN and bound < _INT64_SAFE:
        b = np.arange(rng.start, rng.stop, dtype=np.int64)
        d = (-27 * b + B) * b + C
        r = np.rint(np.sqrt(np.maximum(d, 0).astype(np.float64))).astype(np.int64)
        near = (d > 0) & (((r - 1) ** 2 == d) | (r * r == d) | ((r + 1) ** 2 == d))
        candidates = [int(x) for x in b[near]]
    else:
        candidates = list(rng)
    out = []
    for b_ in candidates:
        d = (-27 * b_ + B) * b_ + C
        if d > 0:
            r = isqrt(d)
            if r * r == d:
                out.append(b_)
    return out


@lru_cache(maxsize=None)
def classified_polys_for_a(a: int) -> tuple[tuple[TraceOnePoly, FieldClass], ...]:
    """All cyclic trace-one cubics with this a, each with its field class."""
    out = []
    for b in _square_disc_bs(a):
        f = TraceOnePoly(a, b)
        if is_irreducible(f):
            if not is_cyclic(f):
                raise InconsistencyError(
                    f"{f} has a square discriminant but is not cyclic")
            out.append((f, field_invariants(f)))
    return tuple(out)


def polys_for_a(a: int) -> list[tuple[TraceOnePoly, int]]:
    """All cyclic trace-one cubics with this a, paired with their conductor."""
    return [(f, k.conductor) for f, k in classified_polys_for_a(a)]


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


def _row(k: FieldClass, n: int) -> EnumerationRow:
    c = k.conductor
    h2 = c * n
    predicted = series_coeff(n)
    if (1 - h2) % 3 != 0:
        return EnumerationRow(n, None, (), predicted)
    a = (1 - h2) // 3
    if a > 0:
        return EnumerationRow(n, None, (), predicted)
    members = tuple(sorted((f for f, kk in classified_polys_for_a(a) if kk == k),
                           key=lambda f: f.b))
    return EnumerationRow(n, a, members, predicted)


def enumerate_field(k: FieldClass, n_max: int) -> list[EnumerationRow]:
    """Rows for N = 1 .. n_max; non-admissible N yield empty rows."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return [_row(k, n) for n in range(1, n_max + 1)]


def min_height(k: FieldClass, n_limit: int = 64) -> int:
    """Smallest H^2 = c*N with a member of F_K; equals the conductor."""
    for n in range(1, n_limit + 1):
        row = _row(k, n)
        if row.count:
            h2 = k.conductor * n
            if h2 != k.conductor:
                raise InconsistencyError(
                    f"minimal height {h2} differs from conductor {k.conductor}")
            return h2
    raise RuntimeError(
        f"no member of conductor-{k.conductor} class found up to N = {n_limit}")


def enumerate_all(a_min: int) -> dict[FieldClass, list[TraceOnePoly]]:
    """Partition of all cyclic trace-one cubics with a_min <= a <= 0 by field."""
    if a_min > 0:
        raise ValueError(f"a_min must be <= 0, got {a_min}")
    census: dict[FieldClass, list[TraceOnePoly]] = {}
    for a in range(a_min, 1):
        for f, k in classified_polys_for_a(a):
            census.setdefault(k, []).append(f)
    return census
