import math

import pytest
from hypothesis import given, strategies as st

from cubictrace.arith import chi3, divisors, factorize, is_prime
from oracles import euler_phi, primes, subgroup_closure


class TestIsPrime:
    def test_small_values(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 41041):
            assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))

    @given(st.integers(min_value=2, max_value=10**5))
    def test_matches_trial_division(self, n):
        naive = all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == naive


class TestFactorize:
    @given(st.integers(min_value=1, max_value=10**5))
    def test_reconstruction(self, n):
        fac = factorize(n)
        assert math.prod(p**k for p, k in fac) == n
        for p, k in fac:
            assert is_prime(p) and k >= 1

    def test_entries_sorted_and_distinct(self):
        assert factorize(2**5 * 3**2 * 97) == ((2, 5), (3, 2), (97, 1))
        assert factorize(1) == ()

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q) == ((p, 1), (q, 1))


class TestDivisors:
    @given(st.integers(min_value=1, max_value=10**4))
    def test_count_and_membership(self, n):
        divs = divisors(n)
        assert len(divs) == math.prod(k + 1 for _, k in factorize(n))
        assert all(n % d == 0 for d in divs)
        assert divs == sorted(set(divs))

    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(49) == [1, 7, 49]
        assert divisors(91) == [1, 7, 13, 91]


class TestChi3:
    def test_values(self):
        assert [chi3(n) for n in range(6)] == [0, 1, -1, 0, 1, -1]

    @given(st.integers(min_value=1, max_value=10**4),
           st.integers(min_value=1, max_value=10**4))
    def test_multiplicative(self, m, n):
        assert chi3(m * n) == chi3(m) * chi3(n)


class TestSubgroupClosure:
    def test_trivial(self):
        assert subgroup_closure(7, set()) == {1}

    def test_index_three_mod_seven(self):
        assert subgroup_closure(7, {6}) == {1, 6}

    def test_full_group(self):
        assert subgroup_closure(7, {3}) == {1, 2, 3, 4, 5, 6}

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            subgroup_closure(91, {7})

    @given(st.integers(min_value=2, max_value=200),
           st.sets(st.integers(min_value=1, max_value=199), max_size=3))
    def test_lagrange(self, c, gens):
        gens = {g % c for g in gens if math.gcd(g, c) == 1} - {0}
        closure = subgroup_closure(c, gens)
        assert euler_phi(c) % len(closure) == 0
        # closed under multiplication
        assert {x * y % c for x in closure for y in closure} == closure


class TestPrimes:
    def test_prefix(self):
        gen = primes()
        assert [next(gen) for _ in range(10)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_all_prime(self):
        gen = primes()
        for _ in range(500):
            assert is_prime(next(gen))
