"""Exact integer arithmetic: factorization, divisor machinery and the
character mod 3.

`factorize` trial-divides by the primes below TRIAL_DIVISION_BOUND = 2^10,
then splits what is left by Miller-Rabin and Pollard rho.  It refuses any
n >= FACTOR_LIMIT (about 3.3 * 10^24) with a SizeLimitError: below that
bound the Miller-Rabin witnesses prove primality, so a factorization is
exact; above it one could silently be wrong.  Its LRU is small: its one
reuse is ideal_count(n), then the oracle's divisors(n) at the same n.

Everything here is pure Python integer arithmetic (arbitrary precision),
deterministic, and safe to call concurrently.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

TRIAL_DIVISION_BOUND = 1 << 10

# The first 13 primes are a deterministic Miller-Rabin witness set below
# FACTOR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); the first 12 fail already at
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
FACTOR_LIMIT = 3317044064679887385961981


class InconsistencyError(RuntimeError):
    """Internal contradiction: the input violates an assumed invariant."""


class SizeLimitError(ArithmeticError):
    """The input is past a documented size limit of an exact algorithm."""


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes over a bytearray."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


_SMALL_PRIMES = _primes_below(TRIAL_DIVISION_BOUND)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < FACTOR_LIMIT)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant).

    Deterministic: the polynomial offset c is tried in order 1, 2, 3, ...
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed to split {n}")


def _factor_into(n: int, acc: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, acc)
    _factor_into(n // d, acc)


@lru_cache(maxsize=256)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor 1 <= n < FACTOR_LIMIT into its (prime, exponent) pairs, primes
    ascending (none for 1): trial division by the primes below
    TRIAL_DIVISION_BOUND until p^2 > the cofactor, then Miller-Rabin and
    Pollard rho on a cofactor with no prime factor below the bound."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n >= FACTOR_LIMIT:
        raise SizeLimitError(f"cannot factor {n}: factorization is exact only "
                             f"below {FACTOR_LIMIT} (about 3.3e24), where "
                             "its primality test is proven")
    out = []
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    else:  # every small prime tried: m's prime factors are all past them
        if m >= TRIAL_DIVISION_BOUND**2:
            acc: dict[int, int] = {}
            _factor_into(m, acc)
            return (*out, *sorted(acc.items()))
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def chi3(n: int) -> int:
    """The nontrivial Dirichlet character mod 3: +1, -1, 0 on 1, 2, 0 mod 3."""
    return (0, 1, -1)[n % 3]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending: for each p^e, e blocks,
    each p times the block before it."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, e in factorize(n):
        block = divs
        for _ in range(e):
            block = [d * p for d in block]
            divs += block
    divs.sort()
    return divs
