import itertools
import os

import pytest

from cubictrace.enumeration import enumerate_all
from cubictrace.fields import (FieldClass, conductor_of, cubic_character,
                               field_invariants, is_isomorphic)
from cubictrace.padic import InconsistencyError
from cubictrace.poly import TraceOnePoly
from oracles import euler_phi, split_prime_closure


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


class TestSplittingSubgroup:
    def test_k49(self):
        assert cubic_character(TraceOnePoly(-2, 1)) == (1,)
        assert field_invariants(TraceOnePoly(-2, 1)).subgroup == {1, 6}

    def test_k169(self):
        assert cubic_character(TraceOnePoly(-4, -1)) == (1,)
        assert field_invariants(TraceOnePoly(-4, -1)).subgroup == {1, 5, 8, 12}

    def test_stable_under_defining_poly(self):
        assert (cubic_character(TraceOnePoly(-37, 29))
                == cubic_character(TraceOnePoly(-2, 1)))
        assert (cubic_character(TraceOnePoly(-30, -27))
                != cubic_character(TraceOnePoly(-30, 64)))

    def test_prime_bound_exhaustion(self):
        with pytest.raises(RuntimeError):
            cubic_character(TraceOnePoly(-2, 1), max_prime=2)

    def test_env_var_override(self):
        os.environ["CUBICTRACE_MAX_PRIME"] = "2"
        try:
            with pytest.raises(RuntimeError):
                cubic_character(TraceOnePoly(-30, -53))
        finally:
            del os.environ["CUBICTRACE_MAX_PRIME"]

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
            assert sub == split_prime_closure(polys[0], k.conductor)
            assert len(sub) * 3 == euler_phi(k.conductor)
            assert (-1) % k.conductor in sub
            subgroups[k] = sub
        for k1, k2 in itertools.combinations(census, 2):
            f, g = census[k1][0], census[k2][0]
            assert is_isomorphic(f, g) is (subgroups[k1] == subgroups[k2])


class TestFieldClass:
    def test_invariants(self):
        k = field_invariants(TraceOnePoly(-2, 1))
        assert k.conductor == 7
        assert k.discriminant == 49
        assert str(k) == "K_49"
        assert k.subgroup == frozenset({1, 6})

    def test_contains_minus_one(self):
        for f in (TraceOnePoly(-2, 1), TraceOnePoly(-4, -1),
                  TraceOnePoly(-30, -27), TraceOnePoly(-30, 64)):
            k = field_invariants(f)
            assert (-1) % k.conductor in k.subgroup

    def test_subgroup_index_three(self):
        for f in (TraceOnePoly(-2, 1), TraceOnePoly(-30, -27)):
            k = field_invariants(f)
            assert euler_phi(k.conductor) == 3 * len(k.subgroup)

    def test_canonical_poly(self):
        assert field_invariants(TraceOnePoly(-37, 29)).canonical_poly \
            == TraceOnePoly(-2, 1)
        assert field_invariants(TraceOnePoly(-4, -1)).canonical_poly \
            == TraceOnePoly(-4, -1)

    def test_equality_and_hash(self):
        k1 = field_invariants(TraceOnePoly(-2, 1))
        k2 = field_invariants(TraceOnePoly(-37, 29))
        assert k1 == k2 and hash(k1) == hash(k2)
        assert k1 == FieldClass(7, (1,))

    def test_to_json(self):
        d = field_invariants(TraceOnePoly(-2, 1)).to_json()
        assert d == {"conductor": 7, "discriminant": 49, "subgroup": [1, 6],
                     "canonical_poly": "t^3 - t^2 - 2t + 1"}


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
