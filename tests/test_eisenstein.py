import hashlib
import math

import pytest
import sympy
from hypothesis import given, strategies as st

from cubictrace import arith, eisenstein
from cubictrace.arith import (FACTOR_LIMIT, InconsistencyError, SizeLimitError,
                              is_prime)
from cubictrace.eisenstein import (ORACLE_LIMIT, _cornacchia, _mul,
                                   _valuation_at, formula3_count, ideal_count,
                                   ideal_count_oracle, ideal_counts_upto,
                                   series_coeff)
from oracles import (divisor_sum_chi3, divisor_sums_per_k,
                     ideal_count_factorize, mod2_part_is_square, p1_part)

# 2^20: ideal_count reads the table arith._ideal_count_sieve builds from the
# least-factor table below it, factors at and above
_TABLE_BOUND = arith._TABLE_BOUND


def _refuse(n):
    raise AssertionError(f"factored {n}")


class TestZw:
    @pytest.mark.parametrize("p", [7, 13, 19, 31, 1009, 1000003])
    def test_valuation_at(self, p):
        pi = _cornacchia(p)
        x, y = pi
        assert x * x - x * y + y * y == p and (x % 3, y % 3) == (1, 0)
        # units, the conjugate prime and elements with one coordinate = 0
        # mod p are not divisible by pi
        cofactors = [(1, 0), (-1, 0), (0, 1), (x - y, -y), (p, 1), (1, p),
                     (2, 5), (p + 1, 3 * p)]
        for beta in cofactors:
            assert _valuation_at(beta, pi, p) == 0, beta
            alpha = beta
            for k in range(1, 5):
                alpha = _mul(alpha, pi)
                assert _valuation_at(alpha, pi, p) == k, (beta, k)

    def test_cornacchia_rejects_norms_not_one_mod_3(self):
        # 3 ramifies, and 2 like every p = 2 (mod 3) stays inert
        for p in filter(is_prime, range(200)):
            if p % 3 != 1:
                with pytest.raises(InconsistencyError):
                    _cornacchia(p)

    @given(st.integers(min_value=1, max_value=10**30 // 6 - 10**4))
    def test_cornacchia_large_primes(self, k):
        p = 6 * k + 1
        while not sympy.isprime(p):
            p += 6
        x, y = _cornacchia(p)
        assert x * x - x * y + y * y == p and (x % 3, y % 3) == (1, 0)

    def test_cornacchia_picks_the_same_prime(self):
        # pi or conj(pi): both are primary of norm p, but every key's e_1 = 1
        # is taken at the one returned.  sha256 of "p x y" lines for the 630
        # primes p = 1 (mod 3) below 10^4 and in (10^6, 10^6 + 400), pinned
        # from the build that searched for a non-cube with itertools.count.
        ps = [p for p in range(7, 10**4, 6) if is_prime(p)]
        ps += [p for p in range(10**6 + 3, 10**6 + 400, 6) if is_prime(p)]
        digest = hashlib.sha256()
        for p in ps:
            x, y = _cornacchia(p)
            digest.update(f"{p} {x} {y}\n".encode())
        assert len(ps) == 630 and digest.hexdigest() == (
            "71bf7cca12682fcd983cc698d9d25c08711df0258a0ee845c42f70d43e1153fc")


class TestIdealCount:
    def test_table_values(self):
        expected = {1: 1, 4: 1, 7: 2, 13: 2, 16: 1, 19: 2, 25: 1, 28: 2,
                    31: 2, 37: 2, 43: 2, 49: 3, 52: 2, 61: 2, 64: 1, 67: 2,
                    73: 2, 76: 2, 79: 2, 91: 4, 97: 2}
        for n, d in expected.items():
            assert ideal_count(n) == d

    def test_zero_values(self):
        for n in (2, 5, 10, 22, 35, 98):
            assert ideal_count(n) == 0

    def test_three_is_special(self):
        assert ideal_count(3) == 1
        assert ideal_count(9) == 1
        assert ideal_count(21) == 2  # 3 * 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ideal_count(0)

    @pytest.mark.parametrize("ns", [
        range(1, 1 << 18),
        range(_TABLE_BOUND - (1 << 12), _TABLE_BOUND + (1 << 12)),
        # the least N with d_N = 256
        [7**3 * 13 * 19 * 31 * 37 * 43 * 61],
        # two primes above 2^10 with a product >= 2^20, in each class mod 3
        [p * q for p in (1031, 1033, 1039, 1049, 1051, 1061, 2053, 4099)
         for q in (1031, 1033, 1039, 1049, 1051, 1061, 2053, 4099)],
        # 2^k * m with k odd and k even, on both sides of 2^20
        [(1 << k) * m for k in range(1, 25)
         for m in (1, 3, 7, 13, 49, 91, 1033, 4099, 1031 * 1033)],
    ], ids=["below-2^18", "straddling-2^20", "d-256", "two-primes", "powers-of-2"])
    def test_matches_factorize_reference(self, ns):
        assert [ideal_count(n) for n in ns] == \
            [ideal_count_factorize(n) for n in ns]

    def test_errors_match_factorize_reference(self):
        for f in (ideal_count, ideal_count_factorize):
            with pytest.raises(ValueError, match="norm must be positive"):
                f(0)
            with pytest.raises(SizeLimitError, match="factorization is exact"):
                f(FACTOR_LIMIT)

    @given(st.integers(min_value=1, max_value=10**4))
    def test_oracle_agreement(self, n):
        assert ideal_count(n) == ideal_count_oracle(n)

    @given(st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=300))
    def test_multiplicative_on_coprimes(self, m, n):
        if math.gcd(m, n) == 1:
            assert ideal_count(m * n) == ideal_count(m) * ideal_count(n)


class TestCountTable:
    """ideal_count below 2^20 reads the sieved table; each test starts it
    from an empty table."""

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(eisenstein, "_count_table", bytearray())

    def test_values_survive_regrowth(self):
        first = ideal_count(91)
        small = eisenstein._count_table
        assert len(small) == 1 << 12
        assert ideal_count(5000) == divisor_sum_chi3(5000)
        grown = eisenstein._count_table
        assert len(grown) == 1 << 13 and grown[:len(small)] == small
        assert ideal_count(91) == first == divisor_sum_chi3(91) == 4
        assert eisenstein._count_table is grown

    def test_grows_to_2_20_and_no_further(self):
        # N >= 2^20 is factored and leaves the table as it is, empty or full
        empty = eisenstein._count_table
        assert ideal_count(_TABLE_BOUND) == ideal_count_factorize(_TABLE_BOUND)
        assert eisenstein._count_table is empty and not empty
        n = _TABLE_BOUND - 1
        assert ideal_count(n) == ideal_count_factorize(n)
        full = eisenstein._count_table
        assert len(full) == _TABLE_BOUND
        for n in (_TABLE_BOUND, 7 * _TABLE_BOUND, 10**12 + 39):
            assert ideal_count(n) == ideal_count_factorize(n)
        assert eisenstein._count_table is full

    @pytest.mark.parametrize("sizes", [range(16, 3000), [_TABLE_BOUND]],
                             ids=["every-size-below-3000", "2^20"])
    def test_sieve_matches_divisor_sums(self, sizes):
        # every size below 3000 crosses each K^2 + 1 and (K + 1)^2, where
        # the large-prime pass's K = isqrt(size - 1) and its last m change;
        # index 0 is no norm, and the two sieves leave it 1 and 0
        for size in sizes:
            assert arith._ideal_count_sieve(size)[1:] == \
                eisenstein._divisor_sums(size)[1:], size

    def test_full_tables_still_refuse(self, monkeypatch):
        # a hit is one index, so the refusals must not be reachable through
        # it: n < 1 would index from the end, and the oracle's table at its
        # largest (filled with 1s here, not sieved, which takes 0.8 s) ends
        # at ORACLE_LIMIT - 1
        ideal_count(_TABLE_BOUND - 1)
        assert len(eisenstein._count_table) == _TABLE_BOUND
        monkeypatch.setattr(eisenstein, "_oracle_table",
                            bytearray(b"\1") * ORACLE_LIMIT)
        for f in (ideal_count, ideal_count_oracle):
            for n in (0, -7):
                with pytest.raises(ValueError, match="norm must be positive"):
                    f(n)
        assert ideal_count_oracle(ORACLE_LIMIT - 1) == 1
        with pytest.raises(SizeLimitError, match="divisor-sum oracle"):
            ideal_count_oracle(ORACLE_LIMIT)


class TestOracle:
    """ideal_count_oracle reads the divisor-sum sieve; each test starts it
    from an empty table."""

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(eisenstein, "_oracle_table", bytearray())

    def test_matches_brute_force_divisor_sum(self):
        assert [ideal_count_oracle(n) for n in range(1, 3001)] == \
            [divisor_sum_chi3(n) for n in range(1, 3001)]

    def test_values_survive_regrowth(self):
        first = ideal_count_oracle(10)
        small = eisenstein._oracle_table
        assert len(small) == 1 << 12
        assert ideal_count_oracle(5000) == divisor_sum_chi3(5000)
        grown = eisenstein._oracle_table
        assert len(grown) == 1 << 13 and grown[:len(small)] == small
        assert ideal_count_oracle(10) == first == divisor_sum_chi3(10)
        assert eisenstein._oracle_table is grown

    def test_never_factors(self, monkeypatch):
        expected = [ideal_count(n) for n in range(1, 10**4 + 1)]
        for module in (arith, eisenstein):
            monkeypatch.setattr(module, "factorize", _refuse)
        assert [ideal_count_oracle(n) for n in range(1, 10**4 + 1)] == expected

    def test_walk_matches_oracle_and_never_factors(self, monkeypatch):
        # every N the least-factor walk serves, and 2^12 past it where
        # ideal_count factors; the walk answers with factorize refused
        top = _TABLE_BOUND + (1 << 12)
        above = [ideal_count(n) for n in range(_TABLE_BOUND, top)]
        for module in (arith, eisenstein):
            monkeypatch.setattr(module, "factorize", _refuse)
        below = [ideal_count(n) for n in range(1, _TABLE_BOUND)]
        assert below + above == [ideal_count_oracle(n) for n in range(1, top)]

    def test_catches_a_wrong_factorization(self, monkeypatch):
        # a product of two primes = 1 (mod 3) reported as a prime = 1 (mod 3).
        # Below 2^20 ideal_count's sieve reads its primes from the
        # least-factor table, so it takes 7 * 13 for a third prime and
        # counts 8 ideals; at and above 2^20 it reads factorize, and the
        # closed form counts 2.  The divisor sum still counts 4.  The count
        # table starts empty, so the sieve reads the planted table, built at
        # 2^12.  Both primes of the planted product are at most that table's
        # K = isqrt(2^12 - 1) = 63: the sieve's large-prime pass writes the
        # least factor above K last, so a planted product with one (1009 *
        # 1033 in the 2^20 table, 1033 > 1023) gets its true count, 4.
        small, large = 7 * 13, 1021 * 1033
        assert 13 <= math.isqrt((1 << 12) - 1) and small < 1 << 12
        assert _TABLE_BOUND <= large < ORACLE_LIMIT
        table = bytearray(arith._LEAST_FACTOR)
        table[small >> 1] = 0  # marks small as prime
        monkeypatch.setattr(arith, "_LEAST_FACTOR", table)
        monkeypatch.setattr(eisenstein, "_count_table", bytearray())
        factorize = arith.factorize

        def planted(m):
            return ((large, 1),) if m == large else factorize(m)

        for module in (arith, eisenstein):
            monkeypatch.setattr(module, "factorize", planted)
        assert (ideal_count(small), ideal_count_oracle(small)) == (8, 4)
        assert (ideal_count(large), ideal_count_oracle(large)) == (2, 4)

    def test_size_limit(self):
        for n in (ORACLE_LIMIT, 10**30):
            with pytest.raises(SizeLimitError, match="divisor-sum oracle"):
                ideal_count_oracle(n)
        assert len(eisenstein._oracle_table) == 0  # refused before allocating
        with pytest.raises(ValueError):
            ideal_count_oracle(0)

    def test_view_reads_the_table(self):
        view = ideal_counts_upto(5000)
        assert len(view) == 5001 and view[0] == 0
        assert list(view[1:]) == [ideal_count_oracle(n) for n in range(1, 5001)]
        assert view.readonly and view.obj is eisenstein._oracle_table
        before = view.tolist()
        assert ideal_counts_upto(10000)[:5001].tolist() == before  # regrown
        assert view.tolist() == before
        for n in (0, ORACLE_LIMIT):
            with pytest.raises((ValueError, SizeLimitError)):
                ideal_counts_upto(n)

    def test_counts_fit_in_a_byte(self):
        # the least N with d_N >= 256, which bounds the sieve's mod-256 count
        assert ideal_count(7**3 * 13 * 19 * 31 * 37 * 43 * 61) == 256
        assert 7**3 * 13 * 19 * 31 * 37 * 43 * 61 == 254889990901 > ORACLE_LIMIT


class TestDivisorSums:
    # every small size; K^2 - 1, K^2 and K^2 + 1, where the sieve's k <= K
    # and k > K sides meet; and larger sizes, up to the verify workload's 2^17
    @pytest.mark.parametrize("sizes", [
        range(401),
        [K * K + e for K in range(2, 71) for e in (-1, 0, 1)],
        [1 << 12, (1 << 13) + 1, 10**5, 1 << 17],
    ], ids=["small", "squares", "large"])
    def test_matches_one_slice_per_k(self, sizes):
        for size in sizes:
            assert eisenstein._divisor_sums(size) == divisor_sums_per_k(size), size


class TestSeriesCoeff:
    def test_euler_factor_cancellation(self):
        for n in range(1, 400):
            if n % 3 == 0:
                assert series_coeff(n) == ideal_count(n) - ideal_count(n // 3)
                assert series_coeff(n) == 0
            else:
                assert series_coeff(n) == ideal_count(n)

    @given(st.integers(min_value=1, max_value=10**4))
    def test_nonzero_only_at_one_mod_three(self, n):
        if n % 3 != 1:
            assert series_coeff(n) == 0


class TestFormula3:
    def test_p1_part(self):
        assert p1_part(49) == 49
        assert p1_part(10) == 1
        assert p1_part(91) == 91
        assert p1_part(12) == 1
        assert p1_part(28) == 7

    def test_formula_values(self):
        assert formula3_count(49) == 3
        assert formula3_count(91) == 4
        assert formula3_count(10) == 1

    @given(st.integers(min_value=1, max_value=10**4))
    def test_agreement_iff_square_mod2_part(self, n):
        if mod2_part_is_square(n):
            assert formula3_count(n) == ideal_count(n)
        else:
            assert formula3_count(n) >= 1 > 0 == ideal_count(n)

    def test_mod2_part(self):
        assert mod2_part_is_square(1)
        assert mod2_part_is_square(4)
        assert mod2_part_is_square(12)
        assert not mod2_part_is_square(10)
        assert not mod2_part_is_square(22)

