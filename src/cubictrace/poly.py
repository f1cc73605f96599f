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


_PAIR_RE = re.compile(r"^([+-]?\d+),([+-]?\d+)$")
_TAIL_RE = re.compile(r"^(?P<lin>[+-](?:\d+\*?)?t)?(?P<const>[+-]\d+)?$")


def parse_poly(text: str) -> TraceOnePoly:
    """Parse 't^3 - t^2 + at + b' (either tail term optional) or a bare 'a,b' pair."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial string")
    m = _PAIR_RE.match(s)
    if m:
        return TraceOnePoly(int(m.group(1)), int(m.group(2)))
    if not s.startswith("t^3"):
        tok = s.split("t", 1)[0] or s
        raise ParseError(f"leading term must be t^3 with coefficient 1, got {tok!r}")
    s = s[3:]
    if not s.startswith("-t^2"):
        raise ParseError(f"second term must be -t^2, got {s[:4] or '(nothing)'!r}")
    s = s[4:]
    m = _TAIL_RE.match(s)
    if not m:
        raise ParseError(f"malformed tail {s!r}: expected '+/- <int>t +/- <int>'")
    lin, const = m.group("lin"), m.group("const")
    a = 0
    if lin:
        digits = lin[1:-1].rstrip("*")
        a = int(lin[0] + (digits or "1"))
    b = int(const) if const else 0
    return TraceOnePoly(a, b)


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
