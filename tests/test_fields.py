import itertools
import math
import os
import random

import inputs
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from cubictrace.arith import InconsistencyError, SizeLimitError, is_prime
from cubictrace.enumeration import (classified_polys_for_a, enumerate_all,
                                    enumerate_field, min_height)
from cubictrace import fields
from cubictrace.fields import (FieldClass, _cube_labels, check_key,
                               conductor_of, field_invariants, is_isomorphic)
from cubictrace.poly import TraceOnePoly, discriminant, is_irreducible
from cubictrace.verify import verify_corollary
from oracles import (_index, _square_disc_bs, conductor_padic, cubic_character,
                     euler_phi, field_class_oracle, omega_mod_pi,
                     split_prime_closure, square_disc_bs_scan, valuation)

_SPLIT_PRIMES = [p for p in range(7, 200) if p % 3 == 1 and is_prime(p)]
_INERT_PRIMES = [p for p in range(2, 50) if p % 3 == 2 and is_prime(p)]
# keys whose character does not fit the conductor
_UNLIKE_KEYS = [
    (49, (1,)),   # a prime square
    (91, (1,)),   # two primes, one exponent
    (7, (1, 2)),  # one prime, two exponents
    (14, (1,)),   # 2 is inert: no primary prime of norm 2
]


class TestConductor:
    def test_examples(self):
        assert conductor_of(TraceOnePoly(-2, 1)) == 7
        assert conductor_of(TraceOnePoly(-4, -1)) == 13
        assert conductor_of(TraceOnePoly(-37, 29)) == 7
        assert conductor_of(TraceOnePoly(-30, 43)) == 7
        assert conductor_of(TraceOnePoly(-30, -27)) == 91
        assert conductor_of(TraceOnePoly(-30, 64)) == 91

    def test_rejects_noncyclic(self):
        with pytest.raises(ValueError):
            conductor_of(TraceOnePoly(-2, 2))

    def test_matches_padic_oracle(self):
        checked = three_divides_s = 0
        for a in [*range(-3000, 1), -1000000, -1000001, -1000008, -1000022]:
            for f, _k in classified_polys_for_a(a):
                assert conductor_of(f) == conductor_padic(f), f
                checked += 1
                three_divides_s += math.isqrt(discriminant(f)) % 3 == 0
        assert checked > 4000 and three_divides_s > 0

    @pytest.mark.parametrize("a, b, e, c", [
        (-19861, -707923, 2, 7),
        (-19665, -941751, 4, 301),
        (-15206, -692733, 5, 133),
        (-19861, -858451, 3, 19),
        (-15206, 584599, 6, 19),
    ])
    def test_high_power_of_seven(self, a, b, e, c):
        # 7^e exactly divides gcd(q, sqrt(disc)); 7 ramifies iff 3 does not
        # divide e
        f = TraceOnePoly(a, b)
        q = 9 * a + 27 * b - 2
        assert valuation(math.gcd(q, math.isqrt(discriminant(f))), 7) == e
        assert conductor_of(f) == conductor_padic(f) == c
        assert (c % 7 == 0) is (e % 3 != 0)

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.sampled_from(_SPLIT_PRIMES), st.integers(1, 4),
                           min_size=1, max_size=3),
           st.sampled_from([1, *_INERT_PRIMES]))
    def test_matches_padic_oracle_on_drawn_heights(self, split, inert):
        h = inert**2 * math.prod(p**e for p, e in split.items())
        assume(h < 10**10)  # keeps sqrt(disc) easy for the oracle to factor
        a = (1 - h) // 3
        for b in _square_disc_bs(a):
            f = TraceOnePoly(a, b)
            if is_irreducible(f):
                assert conductor_of(f) == conductor_padic(f), f


class TestSplittingSubgroup:
    def test_k49(self):
        f = TraceOnePoly(-2, 1)
        assert field_invariants(f).character == cubic_character(f) == (1,)
        assert field_invariants(f).subgroup == (1, 6)

    def test_k169(self):
        f = TraceOnePoly(-4, -1)
        assert field_invariants(f).character == cubic_character(f) == (1,)
        assert field_invariants(f).subgroup == (1, 5, 8, 12)

    def test_stable_under_defining_poly(self):
        def character(a, b):
            return field_invariants(TraceOnePoly(a, b)).character

        assert character(-37, 29) == character(-2, 1)
        assert character(-30, -27) != character(-30, 64)

    def test_prime_bound_exhaustion(self):
        # the prime-search oracle stops at its bound
        with pytest.raises(RuntimeError, match="prime bound 2 exhausted"):
            cubic_character(TraceOnePoly(-2, 1), max_prime=2)

    def test_env_var_override(self, monkeypatch):
        # the key searches no primes and reads no bound from the
        # environment; only the oracle, given the bound, runs out
        monkeypatch.setenv("CUBICTRACE_MAX_PRIME", "2")
        f = TraceOnePoly(-30, -53)
        assert field_invariants(f) == field_class_oracle(f)
        with pytest.raises(RuntimeError):
            cubic_character(f, max_prime=int(os.environ["CUBICTRACE_MAX_PRIME"]))

    def test_wrong_conductor_is_inconsistent(self):
        f = TraceOnePoly(-2, 1)
        with pytest.raises(InconsistencyError, match="matches the inert prime 5"):
            cubic_character(f, conductor=13)
        with pytest.raises(InconsistencyError, match="7 ramified"):
            cubic_character(f, conductor=19)
        with pytest.raises(InconsistencyError, match="not the conductor"):
            cubic_character(f, conductor=14)

    def test_large_conductor(self):
        # c = 75000001 = 67 * 1119403, keyed without building its subgroup
        k = field_invariants(TraceOnePoly(-100000001, -383055560663))
        assert k.conductor == 75000001 and len(k.character) == 2

    def test_matches_split_prime_closure(self):
        census = enumerate_all(-500)
        c91 = [k for k in census if k.conductor == 91]
        assert {field_invariants(TraceOnePoly(-30, -27)),
                field_invariants(TraceOnePoly(-30, 64))} == set(c91)
        subgroups = {}
        for k, polys in census.items():
            sub = k.subgroup
            assert set(sub) == split_prime_closure(polys[0], k.conductor)
            assert len(sub) * 3 == euler_phi(k.conductor)
            assert (-1) % k.conductor in sub
            subgroups[k] = sub
        for k1, k2 in itertools.combinations(census, 2):
            f, g = census[k1][0], census[k2][0]
            assert is_isomorphic(f, g) is (subgroups[k1] == subgroups[k2])


def oracle_census(a: int) -> list:
    """(f, class) of the cyclic cubics at a: the square-discriminant b,
    irreducibility by bisection, and the class by the oracles."""
    fs = [TraceOnePoly(a, b) for b in _square_disc_bs(a)]
    return [(f, field_class_oracle(f)) for f in fs if is_irreducible(f)]


class TestAgainstOracles:
    """The key from the valuations of alpha against p-adic lifting
    (conductor_padic) and the prime search (cubic_character), which share
    nothing with it."""

    def test_census_matches_oracles(self):
        checked = 0
        for a in [*range(-3000, 1), -1000000, -1000001, -1000008, -1000022]:
            expected = oracle_census(a)
            assert list(classified_polys_for_a(a)) == expected, a
            checked += len(expected)
        assert checked > 4000

    def test_dropped_alphas_are_reducible(self):
        # a square-discriminant b of the scan that the census does not list
        # (an alpha with conductor 1); sympy must find its cubic reducible
        t = sympy.Symbol("t")
        dropped = 0
        for a in range(-3000, 1):
            kept = {f.b for f, _k in classified_polys_for_a(a)}
            for b in square_disc_bs_scan(a):
                if b not in kept:
                    poly = sympy.Poly(t**3 - t**2 + a * t + b, t)
                    assert not poly.is_irreducible, (a, b)
                    dropped += 1
        assert dropped > 0

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.sampled_from(_SPLIT_PRIMES), st.integers(1, 4),
                           min_size=1, max_size=3),
           st.sampled_from([1, *_INERT_PRIMES]))
    def test_census_matches_oracles_on_drawn_heights(self, split, inert):
        h = inert**2 * math.prod(p**e for p, e in split.items())
        assume(h < 10**10)  # keeps sqrt(disc) easy for the oracle to factor
        a = (1 - h) // 3
        assert list(classified_polys_for_a(a)) == oracle_census(a)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_per_cubic_matches_oracles(self, seed):
        for a, b, c in inputs.identify_inputs(seed):
            f = TraceOnePoly(a, b)
            assert field_invariants(f) == field_class_oracle(f), f
            assert field_invariants(f).conductor == c


class TestFieldClass:
    def test_invariants(self):
        k = field_invariants(TraceOnePoly(-2, 1))
        assert k.conductor == 7
        assert k.discriminant == 49
        assert str(k) == "K_49"
        assert k.subgroup == (1, 6)

    def test_contains_minus_one(self):
        for f in (TraceOnePoly(-2, 1), TraceOnePoly(-4, -1),
                  TraceOnePoly(-30, -27), TraceOnePoly(-30, 64)):
            k = field_invariants(f)
            assert (-1) % k.conductor in k.subgroup

    def test_subgroup_index_three(self):
        for f in (TraceOnePoly(-2, 1), TraceOnePoly(-30, -27)):
            k = field_invariants(f)
            assert euler_phi(k.conductor) == 3 * len(k.subgroup)

    def test_equality_and_hash(self):
        k1 = field_invariants(TraceOnePoly(-2, 1))
        k2 = field_invariants(TraceOnePoly(-37, 29))
        assert k1 == k2 and hash(k1) == hash(k2)
        assert k1 == FieldClass(7, (1,))

    @pytest.mark.parametrize("make", [list, lambda es: (e for e in es)],
                             ids=["list", "generator"])
    def test_character_is_stored_as_a_tuple(self, make):
        # a list character once passed the check but left the key unhashable
        # and unequal to the tuple key
        k, key = FieldClass(91, make((1, 2))), FieldClass(91, (1, 2))
        assert k == key and hash(k) == hash(key)
        assert type(k.character) is tuple
        assert k._replace(character=make((1, 1))) == FieldClass(91, (1, 1))

    @pytest.mark.parametrize("character", [(), (2,), (1, 0), (1, 3), (1, -1)])
    def test_rejects_unnormalized_character(self, character):
        # (2,) is the conjugate of (1,): accepted, it would key K_49 a second time
        with pytest.raises(ValueError):
            FieldClass(7, character)

    @pytest.mark.parametrize("conductor, character", _UNLIKE_KEYS)
    def test_subgroup_rejects_character_unlike_conductor(self, conductor,
                                                         character):
        k = FieldClass(conductor, character)  # the hot key does not factor c
        with pytest.raises(ValueError, match="distinct primes = 1"):
            k.subgroup

    @pytest.mark.parametrize("conductor, character", _UNLIKE_KEYS)
    def test_entry_points_reject_character_unlike_conductor(self, conductor,
                                                            character):
        # before the check, FieldClass(7, (1, 2)) silently matched no cubic
        k = FieldClass(conductor, character)
        for entry, arg in ((enumerate_field, 10), (min_height, None),
                           (verify_corollary, -10)):
            with pytest.raises(ValueError, match="distinct primes = 1"):
                entry(k) if arg is None else entry(k, arg)
        assert check_key(FieldClass(91, (1, 2))) == (7, 13)

    def test_cube_labels_by_primary_prime(self):
        # byte x holds the k with (x/pi)_3 = w^k, pi = _cornacchia(p)
        for p in filter(is_prime, range(7, 2000, 3)):
            w, e = omega_mod_pi(p), (p - 1) // 3
            labels = _cube_labels(p)
            assert len(labels) == p and labels[0] not in (0, 1, 2), p
            assert all(pow(x, e, p) == pow(w, labels[x], p)
                       for x in range(1, p)), p

    @pytest.mark.parametrize("p, g", [
        (7, 3), (13, 2),  # the walk takes one step and two steps
        (71761, 44), (55441, 38), (97441, 37), (63361, 37), (51361, 37),
    ])
    def test_cube_labels_where_slices_wrap_most(self, p, g):
        # x -> g x takes g slices; below 10^5 these primes have the largest
        # least primitive roots
        assert fields._primitive_root(p) == g
        w, e = omega_mod_pi(p), (p - 1) // 3
        labels = _cube_labels(p)
        assert len(labels) == p and labels[0] == fields._NON_UNIT
        assert all(pow(x, e, p) == pow(w, labels[x], p) for x in range(1, p))

    @pytest.mark.parametrize("p", [99991, 1000003])
    def test_cube_labels_of_large_primes(self, p):
        # each coset of the cubes has (p - 1)/3 elements; a sample of x
        # against Euler's criterion
        w, e = omega_mod_pi(p), (p - 1) // 3
        labels = _cube_labels(p)
        assert len(labels) == p and labels[0] == fields._NON_UNIT
        assert [labels.count(k) for k in (0, 1, 2)] == [e] * 3
        for x in random.Random(p).sample(range(1, p), 3000):
            assert pow(x, e, p) == pow(w, labels[x], p), x

    def test_subgroup_is_kernel_by_euler_criterion(self):
        # every admissible (c, chi) with c <= 3000: c squarefree, its primes
        # = 1 (mod 3), chi normalized; ker chi by (x/pi)_3 = x^((p-1)/3)
        ps = [p for p in range(7, 3000, 3) if is_prime(p)]
        index = {p: [_index(x, p, omega_mod_pi(p)) for x in range(p)]
                 for p in ps}
        checked = set()
        for r in (1, 2, 3):
            for qs in itertools.combinations(ps, r):
                c = math.prod(qs)
                if c > 3000:
                    continue
                for es in itertools.product((1, 2), repeat=r - 1):
                    es = (1, *es)
                    # the kernel in range order: strictly ascending
                    assert FieldClass(c, es).subgroup == tuple(
                        x for x in range(c) if math.gcd(x, c) == 1
                        and sum(e * index[p][x % p]
                                for p, e in zip(qs, es)) % 3 == 0), (c, es)
                    checked.add((c, es))
        assert {(7 * 13 * 19, es) for es in itertools.product(
            (1,), (1, 2), (1, 2))} <= checked
        assert len(checked) == 389

    def test_subgroup_refused_past_its_bound(self, monkeypatch):
        # phi(7)/3 = 2 residues fit, phi(13)/3 = 4 do not
        monkeypatch.setattr(fields, "SUBGROUP_MAX", 2)
        assert FieldClass(7, (1,)).subgroup == (1, 6)
        with pytest.raises(SizeLimitError, match=r"\(1,\)\) has 4 residues; at most 2"):
            FieldClass(13, (1,)).subgroup

    def test_key_builds_no_primitive_root(self, monkeypatch):
        def refuse(p):
            raise AssertionError(f"primitive root mod {p} built for a key")

        monkeypatch.setattr(fields, "_primitive_root", refuse)
        f = TraceOnePoly(-418581812984887232344126,
                         -92978126936719999982733389613258424)
        assert field_invariants(f) == FieldClass(1255745438954661697032379, (1,))
        classified = [(a, k) for a in range(-300, 1)
                      for _f, k in classified_polys_for_a(a)]
        assert len(classified) == 287  # the cyclic trace-one cubics, a >= -300
        assert all((1 - 3 * a) % k.conductor == 0 and k.character[0] == 1
                   for a, k in classified)


class TestIsomorphism:
    def test_same_field(self):
        assert is_isomorphic(TraceOnePoly(-2, 1), TraceOnePoly(-9, 1))
        assert is_isomorphic(TraceOnePoly(-2, 1), TraceOnePoly(-37, 29))

    def test_different_fields(self):
        assert not is_isomorphic(TraceOnePoly(-2, 1), TraceOnePoly(-4, -1))

    def test_conductor_collision_is_not_isomorphism(self):
        # both conductor-91 fields contain a polynomial at a = -30
        f, g = TraceOnePoly(-30, -27), TraceOnePoly(-30, 64)
        assert conductor_of(f) == conductor_of(g) == 91
        assert not is_isomorphic(f, g)
        assert field_invariants(f).subgroup != field_invariants(g).subgroup
