"""Exact integer arithmetic: factorization, divisor machinery and the
character mod 3.

Everything here is pure Python integer arithmetic (arbitrary precision),
deterministic, and safe to call concurrently.
"""

from __future__ import annotations

import math
from functools import lru_cache

TRIAL_DIVISION_BOUND = 10**6

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class InconsistencyError(RuntimeError):
    """Internal contradiction: the input violates an assumed invariant."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


@lru_cache(maxsize=65536)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor a positive integer into its (prime, exponent) pairs, primes
    ascending (none for 1): trial division to 10^6, then Pollard rho."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    acc: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            m //= p
            acc[p] = acc.get(p, 0) + 1
    d = 5
    while d <= TRIAL_DIVISION_BOUND and d * d <= m:
        for step in (d, d + 2):
            while m % step == 0:
                m //= step
                acc[step] = acc.get(step, 0) + 1
        d += 6
    if m > 1:
        if d * d > m:
            acc[m] = acc.get(m, 0) + 1
        else:
            _factor_into(m, acc)
    return tuple(sorted(acc.items()))


def chi3(n: int) -> int:
    """The nontrivial Dirichlet character mod 3: +1, -1, 0 on 1, 2, 0 mod 3."""
    return (0, 1, -1)[n % 3]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)

