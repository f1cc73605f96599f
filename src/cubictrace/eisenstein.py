"""Ideal counts in Q(sqrt(-3)) and the Dirichlet coefficients of
(1 - 3^{-s}) * zeta_{Q(sqrt(-3))}(s), plus the sigma_0(P_1(.)) closed form."""

from __future__ import annotations

from .arith import chi3, divisors, factorize


def ideal_count(n: int) -> int:
    """Number of integral ideals of norm n in Q(sqrt(-3)).

    Multiplicative: p^k contributes k+1 for p = 1 mod 3, 1 for p = 3,
    1 for p = 2 mod 3 with k even, and kills the count for k odd.
    """
    if n < 1:
        raise ValueError(f"norm must be positive, got {n}")
    count = 1
    for p, k in factorize(n):
        if p % 3 == 1:
            count *= k + 1
        elif p != 3 and k % 2 == 1:
            return 0
    return count


def ideal_count_oracle(n: int) -> int:
    """Same quantity by the independent divisor sum: d_n = sum_{d|n} chi3(d)."""
    if n < 1:
        raise ValueError(f"norm must be positive, got {n}")
    return sum(chi3(d) for d in divisors(n))


def series_coeff(n: int) -> int:
    """n-th Dirichlet coefficient of (1 - 3^{-s}) * zeta_{Q(sqrt(-3))}(s)."""
    if n % 3 == 0:
        return ideal_count(n) - ideal_count(n // 3)
    return ideal_count(n)


def p1_part(n: int) -> int:
    """Largest divisor of n composed only of primes = 1 mod 3."""
    if n < 1:
        raise ValueError(f"p1_part requires n >= 1, got {n}")
    out = 1
    for p, k in factorize(n):
        if p % 3 == 1:
            out *= p**k
    return out


def formula3_count(n: int) -> int:
    """The closed-form divisor count sigma_0(P_1(n))."""
    return len(divisors(p1_part(n)))


def mod2_part_is_square(n: int) -> bool:
    """Whether the part of n supported on primes = 2 mod 3 is a perfect square."""
    return all(k % 2 == 0 for p, k in factorize(n) if p % 3 == 2)

