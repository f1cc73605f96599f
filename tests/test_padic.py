import itertools
import random
import subprocess
import sys

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.numberfields.basis import round_two

from cubictrace import padic
from cubictrace.padic import (_BRUTE_FORCE_PRIME, SplittingType, _fp_roots,
                              dedekind_index_test, roots_mod_p, splitting_type)
from cubictrace.arith import FACTOR_LIMIT, SizeLimitError, factorize, is_prime
from cubictrace.enumeration import classified_polys_for_a, enumerate_all
from cubictrace.fields import is_isomorphic
from cubictrace.poly import TraceOnePoly, discriminant, is_cyclic, is_irreducible

from conftest import child_env
from oracles import (lift_root_unramified, lift_root_zp, lift_root_zp_bfs,
                     splitting_type_padic, valuation)


def refuses_in_child(call: str, error: str = "ValueError") -> bool:
    """Whether `call` raises `error` in a fresh interpreter; the run is cut
    after 30 s, so a call that loops fails instead of hanging."""
    script = ("from cubictrace.arith import InconsistencyError\n"
              "from cubictrace.padic import _split_roots, splitting_type\n"
              "from oracles import valuation\n"
              "from cubictrace.poly import TraceOnePoly\n"
              "f = TraceOnePoly(-2, 1)\n"
              f"try:\n    {call}\n"
              f"except {error}:\n    raise SystemExit(0)\n"
              "raise SystemExit(1)\n")
    return subprocess.run([sys.executable, "-c", script],
                          env=child_env(tests=True), timeout=30).returncode == 0


class TestValuation:
    def test_values(self):
        assert valuation(200704, 2) == 12
        assert valuation(200704, 7) == 2
        assert valuation(49, 7) == 2
        assert valuation(5, 7) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            valuation(0, 2)

    @pytest.mark.parametrize("p", [0, -2])
    def test_base_below_two_rejected(self, p):
        with pytest.raises(ValueError):
            valuation(12, p)

    @pytest.mark.parametrize("p", [1, -1])
    def test_unit_base_rejected_not_looped(self, p):
        # n % 1 == 0 for every n: without the check the loop never ends
        assert refuses_in_child(f"valuation(12, {p})")


class TestRootsModP:
    def test_examples(self):
        assert roots_mod_p(TraceOnePoly(-2, 1), 13) == {3, 5, 6}
        assert roots_mod_p(TraceOnePoly(-2, 1), 5) == set()
        assert roots_mod_p(TraceOnePoly(-2, 1), 7) == {5}  # triple root mod 7

    def test_brute_force_agreement(self):
        rng = random.Random(7)
        for _ in range(300):
            f = TraceOnePoly(rng.randint(-80, 0), rng.randint(-80, 80))
            p = rng.choice([2, 3, 5, 7, 11, 13, 97, 101, 1009, 1013])
            assert roots_mod_p(f, p) == {r for r in range(p) if f(r) % p == 0}

    def test_large_prime_paths(self):
        # exercise the Frobenius path (p > brute-force threshold)
        f = TraceOnePoly(-2, 1)
        for p in (10007, 10009, 100003):
            assert roots_mod_p(f, p) == {r for r in range(p) if f(r) % p == 0}


def _brute_roots(coeffs, p):
    return {r for r in range(p)
            if sum(c * r**i for i, c in enumerate(coeffs)) % p == 0}


_PRIMES_ABOVE_THRESHOLD = [p for p in range(_BRUTE_FORCE_PRIME + 1, 20000)
                           if is_prime(p)]


def _random_polys(rng, p, count):
    """Integer polynomials of degree <= 3, ascending coefficients, never
    zero mod p: random ones (leading coefficient sometimes = 0 mod p), and
    products of linear factors with repeated roots, lifted by p * noise."""
    for i in range(count):
        kind = i % 4
        if kind == 0:  # a constant
            c = [rng.randint(1, p - 1) + p * rng.randint(-5, 5)]
        elif kind == 1:  # any leading coefficient
            c = [rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(2, 4))]
            c[0] += 0 if any(x % p for x in c) else 1
        elif kind == 2:  # leading coefficient = 0 mod p
            c = [rng.randint(-3 * p, 3 * p) for _ in range(3)]
            c[0] += 0 if any(x % p for x in c) else 1
            c.append(p * rng.randint(-3, 3))
        else:  # lead * prod (x - r), roots drawn from a small set
            pool = [rng.randrange(p) for _ in range(2)]
            c = [rng.randint(1, p - 1)]
            for _ in range(rng.randint(1, 3)):
                r = rng.choice(pool)
                c = [x - r * y for x, y in zip([0] + c, c + [0])]
            c = [x + p * rng.randint(-5, 5) for x in c]
        yield c


class TestFpRoots:
    @pytest.mark.parametrize("p", [2, 3, 5, 1021, 1031, 10007])
    def test_matches_brute_force(self, p):
        rng = random.Random(p)
        for coeffs in _random_polys(rng, p, 120):
            assert _fp_roots(coeffs, p) == _brute_roots(coeffs, p), (coeffs, p)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(_PRIMES_ABOVE_THRESHOLD), st.data())
    def test_matches_brute_force_above_threshold(self, p, data):
        if data.draw(st.booleans(), label="planted roots"):
            coeffs = [data.draw(st.integers(1, p - 1), label="lead")]
            for r in data.draw(st.lists(st.integers(0, p - 1), min_size=1,
                                        max_size=3), label="roots"):
                coeffs = [x - r * y for x, y in zip([0, *coeffs], [*coeffs, 0])]
        else:
            coeffs = data.draw(st.lists(st.integers(-3 * p, 3 * p), min_size=1,
                                        max_size=4), label="coeffs")
        if data.draw(st.booleans(), label="lead = 0 mod p") and len(coeffs) < 4:
            coeffs.append(p * data.draw(st.integers(-3, 3)))
        assume(any(c % p for c in coeffs))
        assert _fp_roots(coeffs, p) == _brute_roots(coeffs, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_cantor_zassenhaus_on_every_polynomial(self, p, monkeypatch):
        # with the brute-force path off, every nonzero coefficient 4-tuple
        # mod p goes through gcd(f, x^p - x) and the split
        monkeypatch.setattr(padic, "_BRUTE_FORCE_PRIME", 2)
        for coeffs in itertools.product(range(p), repeat=4):
            if any(coeffs):
                assert _fp_roots(coeffs, p) == _brute_roots(coeffs, p), coeffs

    def test_split_of_an_irreducible_is_inconsistent(self):
        # x^2 + 1 is irreducible mod 1031 = 3 (mod 4): no c splits it, and
        # a split that tried every c without bound never returned
        assert refuses_in_child("_split_roots((1, 0, 1), 1031)",
                                "InconsistencyError")

    @pytest.mark.parametrize("p", [2, 1031])
    def test_zero_polynomial_rejected(self, p):
        with pytest.raises(ValueError):
            _fp_roots((p, 0, -3 * p, p), p)

    def test_repeated_and_split_roots_above_threshold(self):
        p = 10007
        # (x - 1)^2 (x - 5), x (x - 2) (x - 3) and 7 (x - 4)^3
        assert _fp_roots((-5, 11, -7, 1), p) == {1, 5}
        assert _fp_roots((0, 6, -5, 1), p) == {0, 2, 3}
        assert _fp_roots((-448, 336, -84, 7), p) == {4}


class TestLifting:
    def test_zp_examples(self):
        assert lift_root_zp(TraceOnePoly(-2, 1), 13)
        assert not lift_root_zp(TraceOnePoly(-2, 1), 7)   # 7 totally ramified
        assert not lift_root_zp(TraceOnePoly(-37, 29), 2)  # inert despite 2^12 | disc

    def test_unramified_examples(self):
        assert lift_root_unramified(TraceOnePoly(-2, 1), 2)   # inert: root in W
        assert lift_root_unramified(TraceOnePoly(-2, 1), 13)  # Z_13 root is a W root
        assert not lift_root_unramified(TraceOnePoly(-2, 1), 7)  # ramified
        assert lift_root_unramified(TraceOnePoly(-37, 29), 2)

    def test_zp_matches_breadth_first_oracle(self):
        checked = 0
        for a in range(-1500, 0):
            for f, _k in classified_polys_for_a(a):
                for p, _e in factorize(discriminant(f)):
                    if p < 5000:  # above _BRUTE_FORCE_PRIME too
                        assert lift_root_zp(f, p) == lift_root_zp_bfs(f, p), (f, p)
                        checked += 1
        assert checked > 5000

    def test_large_index_prime(self):
        # p^2 | disc, p does not divide the conductor 7: the p lifts of the
        # double root mod p are never enumerated.  An isomorphic cubic with
        # p not dividing its discriminant decides the answer.
        f, p = TraceOnePoly(-1000022, 4734241), 285705181
        assert discriminant(f) == 7**2 * p**2
        g = TraceOnePoly(-2, 1)
        assert is_isomorphic(f, g) and discriminant(g) % p
        assert lift_root_zp(f, p) == (len(roots_mod_p(g, p)) == 3)

    def test_zp_implies_unramified(self):
        rng = random.Random(11)
        for _ in range(200):
            f = TraceOnePoly(rng.randint(-60, 0), rng.randint(-60, 60))
            if discriminant(f) == 0:
                continue
            p = rng.choice([2, 3, 5, 7, 11])
            if lift_root_zp(f, p):
                assert lift_root_unramified(f, p)


class TestSplittingType:
    def test_good_primes(self):
        f = TraceOnePoly(-2, 1)
        assert splitting_type(f, 13) is SplittingType.SPLIT
        assert splitting_type(f, 5) is SplittingType.INERT
        assert splitting_type(f, 7) is SplittingType.RAMIFIED

    def test_index_divisor_robustness(self):
        # 2 divides disc = 2^12 * 7^2 but is an index divisor, not ramified
        f = TraceOnePoly(-37, 29)
        assert splitting_type(f, 2) is SplittingType.INERT
        assert splitting_type(f, 7) is SplittingType.RAMIFIED

    def test_rejects_noncyclic(self):
        with pytest.raises(ValueError):
            splitting_type(TraceOnePoly(-2, 2), 5)

    @pytest.mark.parametrize("p", [0, -7, 4, 49, 91])
    def test_rejects_non_primes(self, p):
        with pytest.raises(ValueError):
            splitting_type(TraceOnePoly(-2, 1), p)

    @pytest.mark.parametrize("p", [1, -1])
    def test_rejects_units_not_looped(self, p):
        assert refuses_in_child(f"splitting_type(f, {p})")

    def test_matches_lifting_oracle(self):
        # The key's answer against root counting and lifting: the first
        # cubic of every class with a >= -2000 at each prime below 100 and
        # each prime of its discriminant, a few cubics at primes above
        # _BRUTE_FORCE_PRIME (the Cantor-Zassenhaus root finder), and an
        # index prime far above it.
        small = [p for p in range(2, 100) if is_prime(p)]
        large = [p for p in range(_BRUTE_FORCE_PRIME, 1200) if is_prime(p)]
        firsts = [fs[0] for fs in enumerate_all(-2000).values()]
        pairs = [(f, p) for f in firsts for p in
                 {*small, *(q for q, _ in factorize(discriminant(f)))}]
        pairs += [(f, p) for f in firsts[:10] for p in large]
        pairs.append((TraceOnePoly(-1000022, 4734241), 285705181))
        kinds = {"index": 0, **{kind: 0 for kind in SplittingType}}
        for f, p in pairs:
            kind = splitting_type(f, p)
            assert kind is splitting_type_padic(f, p), (f, p)
            kinds[kind] += 1
            kinds["index"] += (discriminant(f) % p == 0
                               and kind is not SplittingType.RAMIFIED)
        assert min(kinds.values()) > 100, kinds

    def test_three_never_ramified(self):
        for a in range(-60, 0):
            for b in range(-10, 11):
                f = TraceOnePoly(a, b)
                if is_cyclic(f):
                    assert splitting_type(f, 3) is not SplittingType.RAMIFIED

    def test_isomorphism_invariance(self):
        # (-37, 29) and (-2, 1) define the same field: same type at every prime
        for p in (2, 3, 5, 7, 11, 13, 29, 41, 43):
            assert (splitting_type(TraceOnePoly(-37, 29), p)
                    is splitting_type(TraceOnePoly(-2, 1), p))

    def test_split_iff_three_roots_away_from_disc(self):
        rng = random.Random(3)
        checked = 0
        while checked < 200:
            f = TraceOnePoly(rng.randint(-120, 0), rng.randint(-120, 120))
            if not is_cyclic(f):
                continue
            p = rng.choice([5, 11, 13, 17, 19, 23, 101, 997])
            if discriminant(f) % p == 0:
                continue
            kind = splitting_type(f, p)
            n = len(roots_mod_p(f, p))
            assert (kind, n) in ((SplittingType.SPLIT, 3), (SplittingType.INERT, 0))
            checked += 1


class TestDedekind:
    def test_examples(self):
        assert not dedekind_index_test(TraceOnePoly(-2, 1), 7)
        assert dedekind_index_test(TraceOnePoly(-37, 29), 2)
        assert not dedekind_index_test(TraceOnePoly(-37, 29), 7)

    @pytest.mark.parametrize("p", [0, -2, 1, 4, 91])
    def test_rejects_non_primes(self, p):
        # without the check, p = -2 answered False though 2 divides the
        # index, p = 4 answered True and p = 0 divided by zero
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            dedekind_index_test(TraceOnePoly(-37, 29), p)
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            roots_mod_p(TraceOnePoly(-2, 1), p)  # {5, 19, 68} at 91

    @pytest.mark.parametrize("p", [FACTOR_LIMIT, 2**89 - 1])
    def test_refuses_p_past_factor_limit(self, p):
        # is_prime is exact only below FACTOR_LIMIT, which is
        # 1287836182261 * 2575672364521 and passes it; without the refusal
        # splitting_type called FACTOR_LIMIT inert and roots_mod_p raised
        # pow's "base is not invertible".  2^89 - 1 is a true prime.
        f = TraceOnePoly(-2, 1)
        for call in (roots_mod_p, splitting_type, dedekind_index_test):
            with pytest.raises(SizeLimitError, match="is_prime is exact only"):
                call(f, p)

    def test_nondivisors_of_disc_never_index_divisors(self):
        f = TraceOnePoly(-2, 1)
        for p in (3, 5, 11, 13):
            assert not dedekind_index_test(f, p)

    def test_exact_valuation_two_dichotomy(self):
        # v_p(disc) = 2: either p is ramified or p divides the index, not both
        rng = random.Random(5)
        checked = 0
        while checked < 100:
            f = TraceOnePoly(rng.randint(-120, 0), rng.randint(-120, 120))
            if not is_cyclic(f):
                continue
            d = discriminant(f)
            for p in (2, 5, 7, 13, 31):
                if valuation(d, p) != 2:
                    continue
                ramified = splitting_type(f, p) is SplittingType.RAMIFIED
                index = dedekind_index_test(f, p)
                assert ramified != index
                checked += 1

    def test_matches_round_two_discriminant(self):
        # p divides the index of Z[theta] iff v_p(disc f) > v_p(d_K); sympy's
        # round two builds the maximal order, and so d_K, with its own F_p[x]
        # factoring and the general g*h/T form of the criterion
        t = sympy.Symbol("t")
        rng = random.Random(8)
        cubics = pairs = index = 0
        while cubics < 300:
            f = TraceOnePoly(rng.randint(-200, 0), rng.randint(-200, 200))
            if not is_irreducible(f):
                continue
            cubics += 1
            _zk, dk = round_two(sympy.Poly(t**3 - t**2 + f.a * t + f.b, t))
            for p, e in factorize(abs(discriminant(f))):
                got = dedekind_index_test(f, p)
                assert got == (e > valuation(int(dk), p)), (f, p)
                pairs += 1
                index += got
        assert pairs > 800 and index > 100

    def test_prime_above_brute_force_bound(self):
        # disc = 7^2 * 285705181^2; the large prime takes the Cantor-Zassenhaus
        # root finder
        f = TraceOnePoly(-1000022, 4734241)
        assert 285705181 > _BRUTE_FORCE_PRIME
        assert dedekind_index_test(f, 285705181)
        assert not dedekind_index_test(f, 7)
