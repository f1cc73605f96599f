"""Arithmetic in Z[w] = Z[(-1 + sqrt(-3))/2], ideal counts in Q(sqrt(-3))
and the Dirichlet coefficients of (1 - 3^{-s}) * zeta_{Q(sqrt(-3))}(s), plus
the sigma_0(P_1(.)) closed form.

Both d_N functions read a table of d_N, one byte per N, that a miss grows
to the next power of two: ideal_count's below 2^20 is sieved over the
primes (arith._ideal_count_sieve, the primes above the square root of
its size first), ideal_count_oracle's over the divisor sum.  A hit costs
one index."""

from __future__ import annotations

from math import isqrt, prod

from .arith import (_TABLE_BOUND, InconsistencyError, SizeLimitError,
                    _ideal_count_sieve, factorize)

# ideal_count_oracle answers every N < ORACLE_LIMIT; its table takes one byte
# per N, so 16 MB at the limit.
ORACLE_LIMIT = 1 << 24


def _mul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Product in Z[w], elements x + y*w written (x, y), with w^2 = -1 - w."""
    (x1, y1), (x2, y2) = u, v
    return (x1 * x2 - y1 * y2, x1 * y2 + x2 * y1 - y1 * y2)


def _conj(u: tuple[int, int]) -> tuple[int, int]:
    x, y = u
    return (x - y, -y)


def _one_mod_3(u: tuple[int, int]) -> tuple[int, int]:
    """The associate of u (prime to 3) that is = 1 (mod 3).

    The six units are distinct mod 3 and fill (Z[w]/3)*, so exactly one of
    the associates -w^k * u, +w^k * u qualifies.
    """
    x, y = u
    for _ in range(3):
        if y % 3 == 0:
            return (x, y) if x % 3 == 1 else (-x, -y)
        x, y = -y, x - y  # times w
    raise InconsistencyError(f"{u} is not prime to 3")


def _cornacchia(p: int) -> tuple[int, int]:
    """The prime pi = 1 (mod 3) of Z[w] of norm p, for a prime p = 1 (mod 3);
    the census walk, the per-field scan and the per-cubic valuations all use
    this one.

    Cornacchia's algorithm (Cohen, GTM 138, 1.5.2) solves u^2 + 3v^2 = p from
    a square root of -3 mod p; then u + v*sqrt(-3) = (u + v) + 2v*w.  That
    root is 2w + 1 for a cube root of unity w != 1 mod p (Ireland & Rosen,
    ch. 9): w = t^((p-1)/3) for the least t >= 2 that is not a cube.
    """
    if p % 3 != 1:
        raise InconsistencyError(f"no prime of Z[w] has norm {p} != 1 (mod 3)")
    e, t = (p - 1) // 3, 2
    while (w := pow(t, e, p)) == 1:
        t += 1
    r, m = p, (2 * w + 1) % p
    if 2 * m < p:
        m = p - m
    while m * m > p:
        r, m = m, r % m
    v2, rem = divmod(p - m * m, 3)
    v = isqrt(v2)
    if rem or v * v != v2:
        raise InconsistencyError(f"Cornacchia found no u^2 + 3v^2 = {p}")
    return _one_mod_3((m + v, 2 * v))


def _valuation_at(alpha: tuple[int, int], pi: tuple[int, int], p: int) -> int:
    """v_pi(alpha) for a nonzero alpha and a prime pi of norm p, by exact
    division: pi divides alpha iff p divides alpha * conj(pi)."""
    v, pibar = 0, _conj(pi)
    while True:
        x, y = _mul(alpha, pibar)
        if x % p or y % p:
            return v
        alpha, v = (x // p, y // p), v + 1


# d_N by N below 2^20, grown by ideal_count; empty until its first call
_count_table = bytearray()


def ideal_count(n: int) -> int:
    """Number of integral ideals of norm n in Q(sqrt(-3)).

    Multiplicative: p^k contributes k+1 for p = 1 mod 3, 1 for p = 3,
    1 for p = 2 mod 3 with k even, and kills the count for k odd.  Below
    arith._TABLE_BOUND = 2^20 it reads a table of arith._ideal_count_sieve,
    never factorize, with one index when n is in it; a miss grows the table
    as the oracle's is, to the next power of two above n (at least 2^12).
    Each byte is exact: every value sieved is d of a divisor of an
    N < 2^20, and the least N with d_N >= 256 is about 2.5e11
    (_divisor_sums).  At and above 2^20 the count runs over factorize(n),
    so it refuses n >= FACTOR_LIMIT.
    """
    global _count_table
    try:
        if n > 0:
            return _count_table[n]
    except IndexError:
        pass
    if n < 1:
        raise ValueError(f"norm must be positive, got {n}")
    if n < _TABLE_BOUND:
        _count_table = _ideal_count_sieve(max(1 << 12, 1 << n.bit_length()))
        return _count_table[n]
    count = 1
    for p, k in factorize(n):
        if p % 3 == 1:
            count *= k + 1
        elif p != 3 and k % 2 == 1:
            return 0
    return count


# +1 and -1 mod 256, as bytes.translate tables
_UP = bytes((i + 1) & 255 for i in range(256))
_DOWN = bytes((i - 1) & 255 for i in range(256))


def _divisor_sums(size: int) -> bytearray:
    """d_N = sum_{d|N} chi3(d) at index N for 0 < N < size (0 at index 0),
    by the Dirichlet-convolution sieve: chi3(k) is added at N = k*j for
    every pair k*j < size, with no factorization.

    The pairs are split at K = isqrt(size) by Dirichlet's hyperbola method
    (Tenenbaum, Introduction to Analytic and Probabilistic Number Theory,
    I.3.2), so the sieve takes about 3*sqrt(size) slices instead of one per
    k.  k = 1 is the table's start value; each 2 <= k <= K is one slice
    d[k::k] over all j; each j <= (size - 1) // (K + 1), the only j a k > K
    can pair with, is two slices of step 3j over the k > K, one for
    k = 1 and one for k = 2 (mod 3).  Every pair falls on exactly one side
    of K, so it is added exactly once.

    Each byte counts mod 256, which is exact because 0 <= d_N < 256 for
    every N this module sieves.  d_N is a product of factors k + 1, one per
    p^k || N with p = 1 (mod 3), or 0; so d_N >= 256 needs that product to
    reach 2^8, and the least N where it does is 254889990901 = 7^3 * 13 *
    19 * 31 * 37 * 43 * 61 (about 2.5e11), far past ORACLE_LIMIT.  Partial
    sums may dip below 0 on the way; mod 256 they come back, and in any
    order of the additions.
    """
    d = bytearray(b"\1") * size
    if size:
        d[0] = 0
    K = isqrt(size)
    for k in range(2, K + 1):
        if k % 3:
            d[k::k] = d[k::k].translate(_UP if k % 3 == 1 else _DOWN)
    up, down = K + 1 + (-K) % 3, K + 1 + (1 - K) % 3  # least k > K = 1, 2 (mod 3)
    for j in range(1, (size - 1) // (K + 1) + 1):
        d[up * j::3 * j] = d[up * j::3 * j].translate(_UP)
        d[down * j::3 * j] = d[down * j::3 * j].translate(_DOWN)
    return d


# d_N by N, grown by ideal_count_oracle; empty until its first call
_oracle_table = bytearray()


def ideal_count_oracle(n: int) -> int:
    """Same quantity by the independent divisor sum: d_n = sum_{d|n} chi3(d).

    Read from a table of _divisor_sums, never from factorize, with one
    index when n is in it.  Only a miss looks at n: it refuses n < 1, and
    n >= ORACLE_LIMIT with a SizeLimitError before allocating, or regrows
    the table from scratch to the next power of two above n (at least
    2^12), so ascending calls cost at most twice the final sieve."""
    global _oracle_table
    try:
        if n > 0:
            return _oracle_table[n]
    except IndexError:
        pass
    if n < 1:
        raise ValueError(f"norm must be positive, got {n}")
    if n >= ORACLE_LIMIT:
        raise SizeLimitError(f"the divisor-sum oracle sieves only N < "
                             f"{ORACLE_LIMIT}, got {n}")
    _oracle_table = _divisor_sums(max(1 << 12, 1 << n.bit_length()))
    return _oracle_table[n]


def ideal_counts_upto(n_max: int) -> memoryview:
    """d_N at index N for 0 <= N <= n_max (0 at index 0): a read-only view of
    ideal_count_oracle's table, sieved up to n_max, which it refuses the
    same way, so rows can be read in slices without a call per N."""
    ideal_count_oracle(n_max)
    return memoryview(_oracle_table)[:n_max + 1].toreadonly()


def series_coeff(n: int) -> int:
    """n-th Dirichlet coefficient of (1 - 3^{-s}) * zeta_{Q(sqrt(-3))}(s)."""
    if n % 3 or n < 1:
        return ideal_count(n)
    return 0  # d_{3m} = d_m: 3 ramifies, so one ideal has norm 3


def formula3_count(n: int) -> int:
    """The closed-form divisor count sigma_0(P_1(n)): the product of k + 1
    over the p^k || n with p = 1 mod 3, from one factorize(n)."""
    return prod(k + 1 for p, k in factorize(n) if p % 3 == 1)

