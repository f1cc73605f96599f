import random
import re

import pytest
import sympy
from hypothesis import given, strategies as st

from cubictrace import arith
from cubictrace.poly import (ParseError, TraceOnePoly, discriminant,
                             height_sq, is_cyclic, is_irreducible, parse_poly)

_T = sympy.symbols("t")


def _sympy_poly(f):
    return sympy.Poly(_T**3 - _T**2 + f.a * _T + f.b, _T)


class TestDiscriminant:
    def test_paper_examples(self):
        assert discriminant(TraceOnePoly(-2, 1)) == 49
        assert discriminant(TraceOnePoly(-4, -1)) == 169
        assert discriminant(TraceOnePoly(-37, 29)) == 200704

    def test_sympy_oracle(self):
        rng = random.Random(20260824)
        for _ in range(1000):
            f = TraceOnePoly(rng.randint(-300, 300), rng.randint(-300, 300))
            assert discriminant(f) == _sympy_poly(f).discriminant()

    @given(st.integers(min_value=-200, max_value=200),
           st.integers(min_value=-200, max_value=200))
    def test_resultant_relation(self, a, b):
        f = TraceOnePoly(a, b)
        fp = sympy.Poly(3 * _T**2 - 2 * _T + a, _T)
        assert discriminant(f) == -sympy.resultant(_sympy_poly(f), fp)


class TestEvaluation:
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-20, 20))
    def test_horner(self, a, b, t):
        f = TraceOnePoly(a, b)
        assert f(t) == t**3 - t**2 + a * t + b
        assert f.derivative(t) == 3 * t**2 - 2 * t + a


class TestIrreducibility:
    def test_sympy_oracle(self):
        rng = random.Random(42)
        for _ in range(500):
            f = TraceOnePoly(rng.randint(-60, 60), rng.randint(-60, 60))
            assert is_irreducible(f) == _sympy_poly(f).is_irreducible

    def test_examples(self):
        assert is_irreducible(TraceOnePoly(-2, 1))
        assert not is_irreducible(TraceOnePoly(0, 0))
        assert not is_irreducible(TraceOnePoly(-1, 1))  # root t = 1

    def test_planted_small_roots(self):
        # every small root, near the critical points and the piece ends too
        for r in range(-30, 31):
            for v in range(-30, 31):
                f = TraceOnePoly(v - r * (r - 1), -r * v)
                assert not is_irreducible(f), (r, v)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_planted_root(self, r, v):
        # (t - r)(t^2 + (r - 1)t + v) has trace one and the root r
        f = TraceOnePoly(v - r * (r - 1), -r * v)
        assert f(r) == 0 and not is_irreducible(f)

    @given(st.integers(-10**4, 10**4), st.integers(-10**9, 10**9))
    def test_sympy_oracle_wide(self, a, b):
        f = TraceOnePoly(a, b)
        assert is_irreducible(f) == _sympy_poly(f).is_irreducible

    def test_large_b_without_factoring(self, monkeypatch):
        def no_factoring(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(arith, "factorize", no_factoring)
        # |b| is a 30-digit semiprime, which takes seconds to factor
        assert is_irreducible(TraceOnePoly(-5, 100000000000034700000000001147))
        # 40-digit semiprimes b = r * v, r and v prime
        r, v = 10**19 + 51, 10**20 + 39
        assert is_irreducible(TraceOnePoly(-5, r * v))
        assert not is_irreducible(TraceOnePoly(v - r * (r - 1), -r * v))


class TestCyclicity:
    def test_examples(self):
        assert is_cyclic(TraceOnePoly(-2, 1))
        assert is_cyclic(TraceOnePoly(-4, -1))
        assert is_cyclic(TraceOnePoly(-37, 29))
        assert not is_cyclic(TraceOnePoly(-2, 2))  # disc 8, not a square
        assert not is_cyclic(TraceOnePoly(0, 0))
        assert not is_cyclic(TraceOnePoly(1, 1))  # irreducible, disc -44

    def test_cyclic_implies_square_positive_disc(self):
        for a in range(-50, 1):
            for b in range(-50, 51):
                f = TraceOnePoly(a, b)
                if is_cyclic(f):
                    d = discriminant(f)
                    assert d > 0 and sympy.integer_nthroot(d, 2)[1]


class TestHeight:
    def test_values(self):
        assert height_sq(TraceOnePoly(-2, 1)) == 7
        assert height_sq(TraceOnePoly(-30, 43)) == 91

    def test_rejects_positive_a(self):
        with pytest.raises(ValueError):
            height_sq(TraceOnePoly(1, 1))


class TestParsing:
    @pytest.mark.parametrize("text,a,b", [
        ("t^3 - t^2 - 2t + 1", -2, 1),
        ("t^3-t^2-2t+1", -2, 1),
        ("t^3 - t^2 - 37*t + 29", -37, 29),
        ("t^3 - t^2 + 0t + 0", 0, 0),
        ("t^3 - t^2 - 131", 0, -131),
        ("t^3 - t^2 - t - 1", -1, -1),
        ("-2, 1", -2, 1),
        ("-30,43", -30, 43),
    ])
    def test_accepts(self, text, a, b):
        assert parse_poly(text) == TraceOnePoly(a, b)

    @pytest.mark.parametrize("text", [
        "t^3 + t^2 - 2t + 1",   # wrong quadratic sign
        "t^2 - 2t + 1",         # not a cubic
        "2t^3 - t^2",           # not monic
        "t^3 - t^2 - 2t + 1 + 1",
        "banana",
        "",
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_poly(text)

    @pytest.mark.parametrize("text", [
        "t^3 - t^2 - 3 7t + 29",
        "1 2,3",
        "t^3 - t^2 - 2t + 1 0",
    ])
    def test_rejects_spaces_inside_a_number(self, text):
        # once read as a = -37, a = 12 and b = 10
        with pytest.raises(ParseError, match="or 'a,b', got "):
            parse_poly(text)

    @pytest.mark.parametrize("text,a,b", [
        ("t ^ 3 - t ^ 2 - 2 t + 1", -2, 1),
        ("  t^3 - t^2 - 37 * t + 29  ", -37, 29),
        ("- 2 , 1", -2, 1),
        ("t^3 - t^2 +t", 1, 0),
    ])
    def test_spaces_between_tokens(self, text, a, b):
        assert parse_poly(text) == TraceOnePoly(a, b)

    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_str_roundtrip(self, a, b):
        f = TraceOnePoly(a, b)
        assert parse_poly(str(f)) == f

    @given(st.integers(-10**6, 10**6), st.integers(-10**9, 10**9),
           st.lists(st.integers(0, 3), min_size=12, max_size=12))
    def test_tokens_joined_by_any_spaces(self, a, b, runs):
        # the 12 tokens of str(f): t ^ 3 - t ^ 2, then sign |a| t sign |b|
        f = TraceOnePoly(a, b)
        tokens = re.findall(r"\d+|\S", str(f))
        assert len(tokens) == 12
        text = "".join(" " * n + tok for n, tok in zip(runs, tokens))
        assert parse_poly(text) == f

    def test_ordering(self):
        polys = [TraceOnePoly(-2, 1), TraceOnePoly(-4, -1), TraceOnePoly(-2, 0)]
        assert sorted(polys) == [TraceOnePoly(-4, -1), TraceOnePoly(-2, 0),
                                 TraceOnePoly(-2, 1)]
