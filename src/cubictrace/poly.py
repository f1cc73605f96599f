"""Trace-one cubic polynomials t^3 - t^2 + a*t + b and their basic predicates."""

from __future__ import annotations

import re
from collections import namedtuple
from math import isqrt


class ParseError(ValueError):
    """Raised when a polynomial string is not a valid trace-one cubic."""


class TraceOnePoly(namedtuple("TraceOnePoly", "a b")):
    """The cubic t^3 - t^2 + a*t + b, identified by the pair (a, b): an
    immutable named tuple, so cubics hash, compare and sort as (a, b)."""

    __slots__ = ()

    def __str__(self) -> str:
        sa = "-" if self.a < 0 else "+"
        sb = "-" if self.b < 0 else "+"
        return f"t^3 - t^2 {sa} {abs(self.a)}t {sb} {abs(self.b)}"

    def __call__(self, t):
        return ((t - 1) * t + self.a) * t + self.b

    def derivative(self, t):
        return (3 * t - 2) * t + self.a


_PAIR_RE = re.compile(r"([+-]?)\s*(\d+)\s*,\s*([+-]?)\s*(\d+)")
_POLY_RE = re.compile(r"t\s*\^\s*3\s*-\s*t\s*\^\s*2"
                      r"(?:\s*([+-])\s*(?:(\d+)\s*\*?\s*)?t)?"  # +/- [a[*]]t
                      r"(?:\s*([+-])\s*(\d+))?")                 # +/- b


def parse_poly(text: str) -> TraceOnePoly:
    """Parse 't^3 - t^2 + at + b' (either tail term optional) or a bare 'a,b'
    pair.  Whitespace may separate tokens but never splits a number."""
    s = text.strip()
    if m := _PAIR_RE.fullmatch(s):
        return TraceOnePoly(int(m[1] + m[2]), int(m[3] + m[4]))
    if m := _POLY_RE.fullmatch(s):
        a_sign, a, b_sign, b = m.groups("")
        return TraceOnePoly(int(a_sign + (a or "1")) if a_sign else 0,
                            int(b_sign + b) if b_sign else 0)
    raise ParseError(f"expected 't^3 - t^2 [+/- at] [+/- b]' or 'a,b', got {text!r}")


def discriminant(f: TraceOnePoly) -> int:
    """Discriminant of t^3 - t^2 + at + b (exact integer)."""
    a, b = f.a, f.b
    return a * a - 4 * a**3 - 18 * a * b + 4 * b - 27 * b * b


def _root_between(f: TraceOnePoly, lo: int, hi: int, sign: int) -> bool:
    """Whether f has an integer root in [lo, hi], where sign * f increases:
    bisect for the least t with sign * f(t) >= 0."""
    while lo < hi:
        mid = (lo + hi) // 2
        if sign * f(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo == hi and f(lo) == 0


def is_irreducible(f: TraceOnePoly) -> bool:
    """Irreducibility over Q: a monic cubic is reducible iff it has an integer
    root, found without factoring b by exact bisection on the pieces of the
    Cauchy bound where f is monotone, split at (1 -+ sqrt(1 - 3a))/3."""
    a, b = f.a, f.b
    bound = 1 + max(1, abs(a), abs(b))
    s = isqrt(max(1 - 3 * a, 0))  # s <= sqrt(1 - 3a) < s + 1; a > 0: f' > 0
    # -s/3 < t1 <= (1 - s)/3 and (1 + s)/3 <= t2 < (2 + s)/3
    lo, hi = -s // 3, (1 + s) // 3
    pieces = [(-bound, lo, 1), (lo + 1, hi, -1), (hi + 1, bound, 1)]
    return not any(_root_between(f, *piece) for piece in pieces)


def is_cyclic(f: TraceOnePoly) -> bool:
    """Cyclic cubic root field: irreducible with positive square discriminant."""
    d = discriminant(f)
    return d > 0 and isqrt(d) ** 2 == d and is_irreducible(f)


def height_sq(f: TraceOnePoly) -> int:
    """Squared toric height 1 - 3a; defined only for a <= 0."""
    if f.a > 0:
        raise ValueError(f"height is only defined for a <= 0, got a = {f.a}")
    return 1 - 3 * f.a
