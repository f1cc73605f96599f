"""Exact integer arithmetic: primality and factorization.

`factorize` trial-divides by the primes below TRIAL_DIVISION_BOUND = 2^10
while the cofactor is at least 2^20.  Below 2^20 those primes decide
primality, so it reads each remaining prime from _LEAST_FACTOR, one byte
per odd m < 2^20 (512 KB, built at import in about 2 ms).  A cofactor of
2^20 or more with no prime below 2^10 goes to Miller-Rabin and Pollard rho.
The table has one other reader, _ideal_count_sieve, which reads from it
which n < 2^20 are primes = 1 and which = 2 (mod 3) to sieve
eisenstein.ideal_count's table of d_n: the primes above the square root
of its size in one slice per cofactor, those below it one at a time.  So
the table's byte format stays known to this module.
It refuses any n >= FACTOR_LIMIT (about 3.3 * 10^24) with a SizeLimitError:
below that bound the Miller-Rabin witnesses prove primality, so a
factorization is exact; above it one could silently be wrong.

Everything here is pure Python integer arithmetic (arbitrary precision),
deterministic, and safe to call concurrently.
"""

from __future__ import annotations

import math
from bisect import bisect
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
_TABLE_BOUND = TRIAL_DIVISION_BOUND**2  # below it _SMALL_PRIMES decide primality


def _least_factor_table() -> bytearray:
    """Byte m >> 1, for odd m < _TABLE_BOUND, holds 1 + the index in
    _SMALL_PRIMES of m's least prime factor, or 0 when m is 1 or prime.  The
    primes run descending from m = p^2 on, so the least one writes last;
    172 primes fit in a byte.  factorize and _ideal_count_sieve read it."""
    size = _TABLE_BOUND >> 1
    table = bytearray(size)
    for i in range(len(_SMALL_PRIMES) - 1, 0, -1):
        p = _SMALL_PRIMES[i]
        start = p * p >> 1  # odd multiples of p are p apart in the table
        table[start::p] = bytes([i + 1]) * len(range(start, size, p))
    return table


_LEAST_FACTOR = _least_factor_table()


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
    raise InconsistencyError(f"pollard rho failed to split {n}")


def _factor_into(n: int, acc: dict[int, int]) -> None:
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, acc)
    _factor_into(n // d, acc)


def _past_limit(n: int) -> SizeLimitError:
    """factorize's refusal of n >= FACTOR_LIMIT, also raised by the callers
    that keep to its limit without factoring n."""
    return SizeLimitError(f"cannot factor {n}: factorization is exact only "
                          f"below {FACTOR_LIMIT} (about 3.3e24), where its "
                          "primality test is proven")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor 1 <= n < FACTOR_LIMIT into its (prime, exponent) pairs, primes
    ascending (none for 1): trial division by the primes below
    TRIAL_DIVISION_BOUND while the cofactor is at least _TABLE_BOUND = 2^20,
    then each remaining prime read from _LEAST_FACTOR; Miller-Rabin and
    Pollard rho on a cofactor >= 2^20 with no prime factor below the bound."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n >= FACTOR_LIMIT:
        raise _past_limit(n)
    out = []
    m = n
    if m >= _TABLE_BOUND:
        for p in _SMALL_PRIMES:
            if m % p == 0:
                m //= p
                e = 1
                while m % p == 0:
                    m //= p
                    e += 1
                out.append((p, e))
                if m < _TABLE_BOUND:
                    break
        else:  # m >= 2^20 has no prime factor below the bound
            acc: dict[int, int] = {}
            _factor_into(m, acc)
            return (*out, *sorted(acc.items()))
    e = (m & -m).bit_length() - 1  # v_2(m), 0 once trial division ran
    if e:
        out.append((2, e))
        m >>= e
    while m > 1:
        i = _LEAST_FACTOR[m >> 1]
        if not i:
            out.append((m, 1))
            break
        p = _SMALL_PRIMES[i - 1]
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def _ideal_count_sieve(size: int) -> bytearray:
    """d_n, the number of ideals of norm n in Q(sqrt(-3)), at index n for
    0 < n < size, 4 < size <= _TABLE_BOUND, in two passes split at
    K = isqrt(size - 1), with no factorization.

    Large primes.  Since (K + 1)^2 > size - 1, every n < size has at most
    one prime factor p > K, and then n = m*p with m <= (size - 1) // (K + 1).
    code[t] is 2 for a prime t = 1 (mod 3), 0 for a prime t = 2 (mod 3) and
    1 for any other t, read from _LEAST_FACTOR.  One slice per m, m
    ascending, copies code[t] to every n = m*t < size with t > K, so the
    last write at n comes from the least t > K dividing n: p when n has a
    prime factor p > K, and a composite t, which writes 1, when it has none.

    Small primes.  The primes p <= K (_SMALL_PRIMES, as K < 2^10) multiply
    in the rest, and their maps need no particular start value: p = 1
    (mod 3) maps the bytes at the multiples of each p^k by v -> v(k+1)/k
    (steps[k - 1]; 7^k < size needs k < bits/2.8), so p^k || n contributes
    k + 1; p = 2 (mod 3) zeroes the multiples of p^k for each odd k but
    those of p^(k+1), which it saves and restores; p = 3 contributes 1.
    Every byte holds d of a divisor of n, below 256."""
    K, half = math.isqrt(size - 1), size >> 1
    code = bytearray(b"\1") * size
    code[7::6] = _LEAST_FACTOR[3:half:3].translate(b"\2" + b"\1" * 255)
    code[5::6] = _LEAST_FACTOR[2:half:3].translate(b"\0" + b"\1" * 255)
    d = bytearray(b"\1") * size
    for m in range(1, (size - 1) // (K + 1) + 1):
        hi = (size - 1) // m + 1
        d[m * (K + 1):m * hi:m] = code[K + 1:hi]
    steps = [bytes(v // k * (k + 1) & 255 for v in range(256))
             for k in range(1, size.bit_length() // 2)]
    for p in _SMALL_PRIMES[:bisect(_SMALL_PRIMES, K)]:
        if p % 3 == 1:
            q, k = p, 0
            while q < size:
                d[q::q] = d[q::q].translate(steps[k])
                q, k = q * p, k + 1
        elif p != 3:
            q = p
            while q * p < size:
                kept = d[q * p::q * p]
                d[q::q] = bytes((size - 1) // q)
                d[q * p::q * p] = kept
                q *= p * p
            if q < size:
                d[q::q] = bytes((size - 1) // q)
    return d
