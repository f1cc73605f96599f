import math

import pytest
import sympy
from hypothesis import given, strategies as st

from cubictrace import arith
from cubictrace.arith import (FACTOR_LIMIT, TRIAL_DIVISION_BOUND,
                              InconsistencyError, SizeLimitError, factorize,
                              is_prime)
from oracles import (divisors, euler_phi, factorize_trial, least_prime_factors,
                     primes, subgroup_closure)

# primes on both sides of the trial-division bound 1024
_STRADDLING = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)
_TABLE_BOUND = TRIAL_DIVISION_BOUND**2  # 2^20
# the least primes above 2^19 and 2^20
_ABOVE_HALF_TABLE, _ABOVE_TABLE = 524309, 1048583


def _crossing_cases() -> list[int]:
    """n >= 2^20 whose cofactor falls below 2^20 during trial division, the
    last time at 1021, the last prime tried; and n on either side of 2^20."""
    cases = [2**k * q for q in (_ABOVE_HALF_TABLE, _ABOVE_TABLE)
             for k in range(1, 12)]
    cases += [6 * q for q in (_ABOVE_HALF_TABLE, _ABOVE_TABLE)]
    cases += [1021 * 1031 * r for r in range(1, 50)]
    cases += range(_TABLE_BOUND - 3000, _TABLE_BOUND + 3001)
    return cases


class TestIsPrime:
    def test_small_values(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 41041):
            assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))

    def test_strong_pseudoprime_to_the_first_twelve_primes(self):
        # 41 is a witness: the bases 2 .. 37 alone call this product prime
        assert not is_prime(399165290221 * 798330580441)

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

    def test_matches_trial_division_below_2e5(self):
        for n in range(1, 200_001):
            assert factorize(n) == factorize_trial(n), n

    def test_primes_straddling_the_bound(self):
        assert TRIAL_DIVISION_BOUND == 1024
        cases = [p**k for p in _STRADDLING for k in range(1, 6)]
        cases += [p * q * r for p in _STRADDLING for q in _STRADDLING
                  for r in (1, 2, 3, 1021, 1031)]
        # rho splits the cofactor 1031 * 1033 >= 2^20
        cases += [1031 * 1033 * r for r in range(1, 50)]
        for n in cases:
            assert factorize(n) == factorize_trial(n), n

    def test_semiprime_with_12_digit_factors(self):
        p, q = 100_000_000_003, 999_999_999_989
        assert is_prime(p) and is_prime(q)
        assert factorize(p * q) == ((p, 1), (q, 1))
        assert factorize(6 * p * q) == ((2, 1), (3, 1), (p, 1), (q, 1))

    def test_hardest_semiprime_below_the_limit(self):
        # the two largest primes below the square root of FACTOR_LIMIT: rho
        # costs about the square root of the least prime factor, and no
        # composite below the limit has one above q
        p, q = 1821275395019, 1821275395031
        assert sympy.isprime(p) and sympy.isprime(q)
        assert sympy.nextprime(p) == q and sympy.nextprime(q)**2 > FACTOR_LIMIT
        assert factorize(p * q) == ((p, 1), (q, 1))

    def test_no_rho_below_the_square_of_the_bound(self, monkeypatch):
        # nor where the cofactor left after the primes below the bound is
        # below 2^20 or prime
        def refuse(n):
            raise AssertionError(f"Pollard rho called on {n}")

        monkeypatch.setattr(arith, "_pollard_rho", refuse)
        for q in (_ABOVE_HALF_TABLE, _ABOVE_TABLE):
            assert is_prime(q)
            assert not any(map(is_prime, range(1 << (q.bit_length() - 1), q)))
        cases = [*_crossing_cases(), 1019 * 1021, 1021**2]
        for n in cases:
            assert factorize(n) == factorize_trial(n), n

    def test_rho_on_a_prime_is_inconsistent(self):
        # factorize never hands rho a prime; every offset then finds only
        # the trivial factor n, and the exhausted search is a typed error
        assert is_prime(1000003)
        with pytest.raises(InconsistencyError, match="failed to split 1000003"):
            arith._pollard_rho(1000003)

    def test_rho_and_its_recursion_see_only_odd_cofactors(self, monkeypatch):
        # factorize hands _factor_into an m >= 2^20 with no prime factor below
        # the bound, and rho splits a composite into two proper factors:
        # every part is odd and >= 1031, and every composite rho sees is
        # >= 1031^2 > 2^20, so neither needs a branch for n even or n = 1
        rho, into = arith._pollard_rho, arith._factor_into
        seen_rho, seen_into = [], []
        monkeypatch.setattr(arith, "_pollard_rho",
                            lambda n: seen_rho.append(n) or rho(n))
        monkeypatch.setattr(arith, "_factor_into",
                            lambda n, acc: seen_into.append(n) or into(n, acc))
        cofactors = [(8, 1031 * 1033), (1, 1031 * 1033 * 1039), (1, 1031**3),
                     (30, _ABOVE_TABLE), (9, 1_000_003 * 1_000_033)]
        for small, m in cofactors:
            n = small * m
            assert factorize(n) == factorize_trial(n), n
        assert {m for _, m in cofactors} <= set(seen_into)
        assert len(seen_rho) == 6  # 1031 * 1033 * 1039 and 1031^3 split twice
        assert all(n % 2 and n >= _TABLE_BOUND for n in seen_rho)
        assert all(n % 2 and n >= 1031 for n in seen_into)
        assert all(n % p for n in seen_into for p in arith._SMALL_PRIMES)

    @pytest.mark.parametrize("n", [0, -7])
    def test_below_one_refused(self, n):
        with pytest.raises(ValueError, match=f"requires n >= 1, got {n}"):
            factorize(n)

    def test_powers_of_two(self):
        for k in range(81):
            assert factorize(2**k) == (((2, k),) if k else ()), k

    def test_least_factor_table(self):
        lpf = least_prime_factors(_TABLE_BOUND)
        table = arith._LEAST_FACTOR
        assert len(table) == _TABLE_BOUND // 2
        for i, entry in enumerate(table):
            m = 2 * i + 1
            if entry:
                assert arith._SMALL_PRIMES[entry - 1] == lpf[m] < m, m
            else:
                assert m == 1 or lpf[m] == m, m

    def test_size_limit(self):
        # the least strong pseudoprime to the bases 2 .. 41, which is_prime
        # calls prime: the first integer factorize cannot prove
        assert is_prime(FACTOR_LIMIT)
        assert FACTOR_LIMIT == 1287836182261 * 2575672364521
        assert factorize(FACTOR_LIMIT - 1)[0] == (2, 2)
        for n in (FACTOR_LIMIT, 2**100):
            with pytest.raises(SizeLimitError, match="cannot factor"):
                factorize(n)
        assert issubclass(SizeLimitError, ArithmeticError)

    def test_small_prime_table(self):
        gen = primes()
        table = [next(gen) for _ in range(len(arith._SMALL_PRIMES))]
        assert arith._SMALL_PRIMES == tuple(table)
        assert table[-1] < TRIAL_DIVISION_BOUND < next(gen)


class TestDivisors:
    @given(st.integers(min_value=1, max_value=10**4))
    def test_count_and_membership(self, n):
        divs = divisors(n)
        assert len(divs) == math.prod(k + 1 for _, k in factorize(n))
        assert all(n % d == 0 for d in divs)
        assert divs == sorted(set(divs))

    def test_ascending_and_complete_below_3000(self):
        for n in range(1, 3001):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n

    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(49) == [1, 7, 49]
        assert divisors(91) == [1, 7, 13, 91]


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
