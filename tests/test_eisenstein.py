import pytest
from hypothesis import given, strategies as st

from cubictrace.eisenstein import (formula3_count, ideal_count,
                                   ideal_count_oracle, mod2_part_is_square,
                                   p1_part, series_coeff)


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

    @given(st.integers(min_value=1, max_value=10**4))
    def test_oracle_agreement(self, n):
        assert ideal_count(n) == ideal_count_oracle(n)

    @given(st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=300))
    def test_multiplicative_on_coprimes(self, m, n):
        import math
        if math.gcd(m, n) == 1:
            assert ideal_count(m * n) == ideal_count(m) * ideal_count(n)


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

