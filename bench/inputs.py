"""Seeded inputs for the benchmark workloads.

Pure Python, independent of the library: the library only ever sees the
generated values.  Cyclic cubics of known conductor are built from elements
of Z[w] (w a primitive cube root of unity) of norm h^3, following

    h = 1 - 3a,  q = 9a + 27b - 2,  disc f = (4h^3 - q^2)/27,

so disc f = s^2 exactly when alpha = (q + 3s*sqrt(-3))/2 has norm h^3.
For alpha = prod pi_i^e_i * conj(pi_i)^(3 - e_i) with distinct primes
p_i = pi_i * conj(pi_i) = 1 mod 3 and e_i in {1, 2}, alpha is not a cube
and the cubic t^3 - t^2 + at + b has conductor h = prod p_i.
"""

from __future__ import annotations

import itertools
import math
import random

# Elements of Z[w] are pairs (x, y) meaning x + y*w, with w^2 = -1 - w.
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))

CENSUS_NEAR_A_MIN = -2000
CENSUS_FAR_CENTER = -20000
CENSUS_FAR_JITTER = 10
CENSUS_FAR_WINDOW = 100
IDENTIFY_COUNT = 300
IDENTIFY_MIN_CONDUCTOR = 300
IDENTIFY_MAX_CONDUCTOR = 10**5
VERIFY_MAX_CONDUCTOR = 200
VERIFY_MAX_NORM = 100
VERIFY_FORMULA3_NORM = 22
VERIFY_IDEAL_MAX = 10**5
VERIFY_IDEAL_CHUNK = 1000
# Elements of norm 1, 4, 7 and 13 (see verify_cubics).
VERIFY_HEIGHT_FACTORS = ((1, 0), (2, 0), (3, 1), (4, 1))


def _mul(u, v):
    (x1, y1), (x2, y2) = u, v
    return (x1 * x2 - y1 * y2, x1 * y2 + x2 * y1 - y1 * y2)


def _conj(u):
    x, y = u
    return (x - y, -y)


def _pow(u, e):
    out = (1, 0)
    for _ in range(e):
        out = _mul(out, u)
    return out


def is_prime(n: int) -> bool:
    """Trial division; the benchmark only needs primes below 10^7."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def split_prime(p: int):
    """pi in Z[w] with norm p, for a prime p = 1 mod 3 (from p = x^2 + 3y^2)."""
    for y in range(1, math.isqrt(p // 3) + 1):
        r = p - 3 * y * y
        x = math.isqrt(r)
        if x * x == r:
            return (x + y, 2 * y)  # x + y*sqrt(-3) = (x + y) + 2y*w
    raise ValueError(f"{p} is not of the form x^2 + 3y^2")


def norm(u) -> int:
    x, y = u
    return x * x - x * y + y * y


def cubic_from_primes(primes, exponents, beta=(1, 0)) -> tuple[int, int]:
    """(a, b) of the trace-one cubic of height h = prod(primes) * N(beta)
    whose field corresponds to the given exponents (each 1 or 2).

    beta^3 is a cube, so it moves the cubic to height N(beta) times the
    conductor without changing its field.
    """
    h = math.prod(primes) * norm(beta)
    if h % 3 != 1:
        raise ValueError(f"height {h} is not 1 mod 3")
    a = (1 - h) // 3
    alpha = _pow(beta, 3)
    for p, e in zip(primes, exponents):
        pi = split_prime(p)
        alpha = _mul(alpha, _mul(_pow(pi, e), _pow(_conj(pi), 3 - e)))
    for base in (alpha, _conj(alpha)):
        for unit in UNITS:
            x, y = _mul(unit, base)
            q, v = 2 * x - y, y  # x + y*w = (q + v*sqrt(-3))/2
            if v % 3 == 0 and v != 0 and (q - 9 * a + 2) % 27 == 0:
                return a, (q - 9 * a + 2) // 27
    raise ValueError(f"no trace-one cubic for primes {primes}, exponents "
                     f"{exponents}, beta {beta}")


def has_integer_root(a: int, b: int) -> bool:
    """Whether t^3 - t^2 + at + b (three real roots) has an integer root.

    Roots from the trigonometric formula, then an exact test of the
    neighbouring integers, so no divisor of b is needed.
    """
    # t = u + 1/3 gives u^3 + P u + Q with P = a - 1/3, Q = b + a/3 - 2/27
    P = a - 1 / 3
    Q = b + a / 3 - 2 / 27
    m = 2 * math.sqrt(-P / 3)
    arg = max(-1.0, min(1.0, 3 * Q / (P * m)))
    theta = math.acos(arg) / 3
    for k in range(3):
        t = m * math.cos(theta - 2 * math.pi * k / 3) + 1 / 3
        for r in range(math.floor(t) - 1, math.floor(t) + 3):
            if ((r - 1) * r + a) * r + b == 0:
                return True
    return False


def is_cyclic_cubic(a: int, b: int) -> bool:
    """Positive square discriminant and no integer root."""
    d = a * a - 4 * a**3 - 18 * a * b + 4 * b - 27 * b * b
    return d > 0 and math.isqrt(d) ** 2 == d and not has_integer_root(a, b)


def primes_1_mod_3(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo + (1 - lo) % 6, hi + 1, 6) if is_prime(p)]


def _next_prime_1_mod_3(n: int, avoid) -> int:
    p = n + (1 - n) % 6
    while not is_prime(p) or p in avoid:
        p += 6
    return p


def identify_inputs(seed: int) -> list[tuple[int, int, int]]:
    """IDENTIFY_COUNT triples (a, b, conductor).

    Conductors are stratified: the i-th target lies in the i-th of
    IDENTIFY_COUNT equal slices of [log IDENTIFY_MIN_CONDUCTOR,
    log IDENTIFY_MAX_CONDUCTOR], so every seed has the same spread of
    sizes.  The number of primes cycles through 1, 2, 3, so every seed has
    the same mix of cyclic and non-cyclic (Z/c)*.  The seed picks the point
    in each slice, the small primes and the exponents.
    """
    rng = random.Random(seed)
    small = primes_1_mod_3(7, 100)
    lo, hi = math.log(IDENTIFY_MIN_CONDUCTOR), math.log(IDENTIFY_MAX_CONDUCTOR)
    out = []
    for i in range(IDENTIFY_COUNT):
        target = math.exp(lo + (hi - lo) * (i + rng.random()) / IDENTIFY_COUNT)
        primes: list[int] = []
        while len(primes) < i % 3:
            # the last prime must stay the largest: target / prod >= 2p
            fits = [p for p in small if p not in primes
                    and target / (math.prod(primes) * p) >= 2 * p]
            if not fits:
                break
            primes.append(rng.choice(fits))
        primes.append(_next_prime_1_mod_3(int(target / math.prod(primes)), primes))
        primes.sort()
        exponents = [1] + [rng.randint(1, 2) for _ in primes[1:]]
        a, b = cubic_from_primes(primes, exponents)
        out.append((a, b, math.prod(primes)))
    rng.shuffle(out)
    return out


def verify_cubics(seed: int) -> list[tuple[int, int, int]]:
    """One generated cubic (a, b, conductor) for every cyclic cubic field of
    conductor <= VERIFY_MAX_CONDUCTOR: prime conductors, then products of two.

    Fields of conductor c = p_1...p_k correspond to exponent vectors with
    e_1 = 1.  The seed picks the member of each field: the one at height
    c * N(beta) for beta in VERIFY_HEIGHT_FACTORS or its conjugate.
    """
    rng = random.Random(seed)
    ps = primes_1_mod_3(7, VERIFY_MAX_CONDUCTOR)
    conductors = [[p] for p in ps]
    conductors += [[p, q] for i, p in enumerate(ps) for q in ps[i + 1:]
                   if p * q <= VERIFY_MAX_CONDUCTOR]
    out = []
    for primes in conductors:
        for tail in itertools.product((1, 2), repeat=len(primes) - 1):
            beta = rng.choice(VERIFY_HEIGHT_FACTORS)
            if rng.random() < 0.5:
                beta = _conj(beta)
            a, b = cubic_from_primes(primes, [1, *tail], beta)
            out.append((a, b, math.prod(primes)))
    return out


def census_far_window(seed: int) -> range:
    """CENSUS_FAR_WINDOW consecutive a, starting at a seeded offset in
    [CENSUS_FAR_CENTER - CENSUS_FAR_JITTER, CENSUS_FAR_CENTER]."""
    start = CENSUS_FAR_CENTER - random.Random(seed).randint(0, CENSUS_FAR_JITTER)
    return range(start, start + CENSUS_FAR_WINDOW)


def ideal_chunks() -> list[range]:
    """[1, VERIFY_IDEAL_MAX] in chunks of VERIFY_IDEAL_CHUNK."""
    return [range(lo, min(lo + VERIFY_IDEAL_CHUNK, VERIFY_IDEAL_MAX + 1))
            for lo in range(1, VERIFY_IDEAL_MAX + 1, VERIFY_IDEAL_CHUNK)]
