import hashlib
import random
from math import prod

import pytest

from cubictrace import enumeration
from cubictrace.arith import factorize, is_prime
from cubictrace.eisenstein import _cornacchia, ideal_count
from cubictrace.enumeration import (_members, classified_polys_for_a,
                                    enumerate_all, enumerate_field, min_height)
from cubictrace.fields import FieldClass, field_invariants
from cubictrace.arith import InconsistencyError
from cubictrace.poly import TraceOnePoly, discriminant, is_cyclic, is_irreducible

from oracles import (_square_disc_bs, b_range, factor_row_powers,
                     members_keyed, square_disc_alphas_keyed,
                     square_disc_bs_scan)


def cyclic_bs_scan(a: int) -> list[int]:
    """The scan's b whose cubic is irreducible, by bisection."""
    return [b for b in square_disc_bs_scan(a)
            if is_irreducible(TraceOnePoly(a, b))]


class TestBRange:
    def test_examples(self):
        assert list(b_range(-2)) == [0, 1, 2]
        assert list(b_range(0)) == []
        rng = b_range(-16)
        assert 29 in rng and -13 in rng

    def test_rejects_positive_a(self):
        with pytest.raises(ValueError):
            b_range(1)

    def test_exactness(self):
        for a in range(-40, 1):
            rng = b_range(a)
            for b in range(rng.start - 3, rng.stop + 3):
                assert (b in rng) == (discriminant(TraceOnePoly(a, b)) > 0)


class TestSquareDiscBs:
    def test_matches_scan(self):
        for a in range(-3000, 1):
            assert _square_disc_bs(a) == cyclic_bs_scan(a), a

    @pytest.mark.parametrize("a, h", [
        (-3, 10),                   # inert 2 and 5 with odd exponent: no b
        (-1, 4),                    # inert prime squared
        (-800, 7**4),               # split prime power
        (-17866, 7 * 13 * 19 * 31),  # four split primes
    ])
    def test_adversarial_heights(self, a, h):
        assert 1 - 3 * a == h
        assert _square_disc_bs(a) == cyclic_bs_scan(a)

    @pytest.mark.parametrize("h", [
        7**2 * 13**2, 7**4 * 13, 2**2 * 7 * 13, 5**2 * 7**2,
        7**2 * 13**2 * 19**2, 7 * 13 * 19 * 31 * 37, 2**2 * 7**2 * 13**2,
        10,                         # inert 2 and 5 to odd powers: no b
    ])
    def test_one_b_per_conjugate_pair(self, h):
        # Of the prod (3e_i + 1) alphas of norm h^3, the prod (e_i + 1) with
        # every j_i = 0 (mod 3) give reducible cubics (or disc = 0); the rest
        # pair off under conjugation, and each pair gives one b.  Most of
        # these heights are out of the scan's reach.
        a, r = divmod(1 - h, 3)
        assert r == 0
        fs = factorize(h)
        es = [e for p, e in fs if p % 3 == 1]
        if any(e % 2 for p, e in fs if p % 3 == 2):
            expected = 0
        else:
            expected = (prod(3 * e + 1 for e in es)
                        - prod(e + 1 for e in es)) // 2
        bs = _square_disc_bs(a)
        assert len(bs) == expected and len(set(bs)) == len(bs)

    def test_b_outside_range_is_inconsistent(self, monkeypatch):
        # at a = -2, h = 7: a row at 7 with one entry, at residue 1, gives
        # alpha = -(-32 - 3w) = 32 + 3w, with q = 61 = 9a - 2 (mod 27), so
        # b = 3, but disc(-2, 3) = -87: that b lies outside b_range(-2)
        monkeypatch.setattr(enumeration, "_factor_row",
                            lambda p, e: ((), ((-32, -3),), ()))
        assert discriminant(TraceOnePoly(-2, 3)) == -87 and 3 not in b_range(-2)
        with pytest.raises(InconsistencyError):
            _square_disc_bs(-2)

    def test_factor_row_matches_powers(self):
        # p^min(j, 3e-j) times one power of pi or conj(pi), against the
        # product of the two powers
        for p in range(7, 2000, 3):
            if is_prime(p):
                for e in range(1, 5):
                    assert enumeration._factor_row(p, e) == \
                        factor_row_powers(p, e), (p, e)

    def test_cornacchia(self):
        for p in range(7, 10**4, 3):
            if is_prime(p):
                x, y = _cornacchia(p)
                assert x * x - x * y + y * y == p, p

    def test_corollary_far_from_scan(self):
        # The scan would test ~4.4 * 10^8 values of b per a here.
        for a in (-1000000, -1000001, -1000008, -1000022):
            h = 1 - 3 * a
            rows = classified_polys_for_a(a)
            assert rows
            classes = {}
            for f, k in rows:
                assert is_cyclic(f) and h % k.conductor == 0
                classes[k] = classes.get(k, 0) + 1
            for k, count in classes.items():
                assert count == ideal_count(h // k.conductor), (a, k)


class TestPolysForA:
    def test_golden_digest(self):
        # sha256 of the (a, b, conductor, character) lines, pinned from the
        # census before the walk took one alpha per conjugate pair.
        rng = random.Random(16)
        avals = [*range(-3000, 1), *range(-10**6 - 199, -10**6 + 1),
                 *(rng.randrange(-10**16, -10**15) for _ in range(20))]
        digest = hashlib.sha256()
        for a in avals:
            for f, k in classified_polys_for_a(a):
                line = f"{a},{f.b},{k.conductor},{k.character}\n"
                digest.update(line.encode())
        assert digest.hexdigest() == (
            "1fa8489cc28926a0bbd710ec20434d0a55642bfbf5f8ff21f313aa05a21b2abd")

    def test_one_key_object_per_pattern(self):
        # h is seven split primes: of its 4^7 alphas, 2^7 give reducible
        # cubics, and the rest give 8128 b in (3^7 - 1)/2 residue patterns up
        # to conjugation.  The walk builds one key per pattern, not per cubic.
        h = 7 * 13 * 19 * 31 * 37 * 43 * 61
        rows = classified_polys_for_a((1 - h) // 3)
        keys = [k for _f, k in rows]
        assert len(rows) == (4**7 - 2**7) // 2 == 8128
        assert len(set(keys)) == len({id(k) for k in keys}) == 1093

    def test_sort_compares_no_cubic(self, monkeypatch):
        # sorting the (cubic, key) pairs themselves made 3774 cubic
        # comparisons here, at 496 cubics; the sort reads b as an int
        calls = []

        class CountingPoly(TraceOnePoly):
            __slots__ = ()

            def __lt__(self, other):
                calls.append(1)
                return super().__lt__(other)

        monkeypatch.setattr(enumeration, "TraceOnePoly", CountingPoly)
        rows = classified_polys_for_a((1 - 7 * 13 * 19 * 31 * 37) // 3)
        assert len(rows) == (4**5 - 2**5) // 2 == 496
        assert type(rows[0][0]) is CountingPoly and calls == []

    @pytest.mark.parametrize("a_top", [-10**6, -10**9])
    def test_matches_keyed_walk(self, a_top):
        # the stack walk against the recursive one, on 2000 consecutive a
        for a in range(a_top - 1999, a_top + 1):
            expected = sorted(square_disc_alphas_keyed(a))
            assert [(f.b, k) for f, k in classified_polys_for_a(a)] == \
                expected, a

    @pytest.mark.parametrize("avals", [range(-3000, 1),
                                       range(-10**6 - 1999, -10**6 + 1)])
    def test_b_strictly_ascending(self, avals):
        # the pairs sort by b alone: a repeated b would show here as two
        # equal neighbours
        for a in avals:
            bs = [f.b for f, _k in classified_polys_for_a(a)]
            assert all(b0 < b1 for b0, b1 in zip(bs, bs[1:])), a

    def test_examples(self):
        assert [(f, k.conductor) for f, k in classified_polys_for_a(-2)] == \
            [(TraceOnePoly(-2, 1), 7)]
        assert classified_polys_for_a(-1) == ()
        assert classified_polys_for_a(0) == ()

    def test_rejects_positive_a(self):
        # refused before 1 - 3a = -2 reaches factorize
        with pytest.raises(ValueError,
                           match="enumeration requires a <= 0, got a = 1$"):
            classified_polys_for_a(1)

    def test_a_minus_30(self):
        conductors = sorted(k.conductor for _f, k in classified_polys_for_a(-30))
        assert conductors == [7, 7, 13, 13, 91, 91]

    def test_exhaustive_against_brute_force(self):
        for a in range(-60, 1):
            expected = [TraceOnePoly(a, b) for b in b_range(a)
                        if is_cyclic(TraceOnePoly(a, b))]
            assert [f for f, _k in classified_polys_for_a(a)] == expected

    def test_partition_property(self):
        for a in (-30, -44, -100):
            census = enumerate_all(a)
            at_a = sum(1 for k, fs in census.items() for f in fs if f.a == a)
            assert at_a == len(classified_polys_for_a(a))


class TestEnumerateField:
    def test_k49_counts(self):
        k = field_invariants(TraceOnePoly(-2, 1))
        counts = [r.count for r in enumerate_field(k, 13)]
        assert counts == [1, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 2]

    def test_k49_at_10_empty(self):
        k = field_invariants(TraceOnePoly(-2, 1))
        assert enumerate_field(k, 10)[9].count == 0

    def test_k169_row_7(self):
        k = field_invariants(TraceOnePoly(-4, -1))
        row = enumerate_field(k, 7)[6]
        assert row.a == -30
        assert [f.b for f in row.polys] == [-53, 25]  # stored ascending

    def test_row_invariants(self):
        k = field_invariants(TraceOnePoly(-2, 1))
        for row in enumerate_field(k, 43):
            assert row.count == len(row.polys)
            if row.n % 3 != 1:
                assert row.count == 0 and row.a is None
            for f in row.polys:
                assert 1 - 3 * f.a == k.conductor * row.n
                assert field_invariants(f) == k

    def test_rejects_bad_nmax(self):
        k = field_invariants(TraceOnePoly(-2, 1))
        with pytest.raises(ValueError):
            enumerate_field(k, 0)

    def test_matches_keyed_walk(self):
        # beta of norm N, from the scan and from N's factors, against the walk
        # of k's residue pattern at every admissible N <= 1000
        classes = [k for k in enumerate_all(-66) if k.conductor <= 200]
        assert len(classes) == 25
        for k in classes:
            rows = enumerate_field(k, 1000)
            assert [row.n for row in rows] == list(range(1, 1001))
            for row in rows:
                if row.n % 3 != 1:
                    assert row.a is None and row.polys == (), (k, row.n)
                    continue
                a = (1 - k.conductor * row.n) // 3
                expected = members_keyed(k, a)
                assert row.a == a and row.polys == expected, (k, row.n)
                assert _members(k, a) == expected, (k, a)
                assert row.predicted == ideal_count(row.n)

    def test_members_is_the_filtered_census(self):
        # each class with c <= 200 has a member at H^2 = c, so a >= -66
        classes = [k for k in enumerate_all(-66) if k.conductor <= 200]
        assert len(classes) == 25
        pairs = 0
        for k in classes:
            for n in range(1, 1001, 3):  # c = 1 (mod 3): the admissible N
                a = (1 - k.conductor * n) // 3
                assert _members(k, a) == tuple(
                    f for f, kk in classified_polys_for_a(a) if kk == k), (k, a)
                pairs += 1
        assert pairs == 8350
        # 7 * 13 = 91 with one exponent is no key (the first prime's pattern
        # alone is K_49's, b = -41 and 43): refused, not read as no cubics
        with pytest.raises(ValueError, match="distinct primes"):
            _members(FieldClass(91, (1,)), -30)
        assert _members(FieldClass(7, (1,)), -30) == (TraceOnePoly(-30, -41),
                                                      TraceOnePoly(-30, 43))
        # conductors that do not divide h = 7 * 13, or are not squarefree
        for k in (FieldClass(19, (1,)), FieldClass(7 * 19, (1, 2)),
                  FieldClass(49, (1,)), FieldClass(7 * 13 * 19, (1, 1, 1))):
            assert _members(k, -30) == ()

    @pytest.mark.parametrize("alpha, why", [
        ((1, 3), r"q = -1 != 9a - 2 \(mod 27\)"),
        ((32, 3), "gives b = 3 with disc <= 0"),
    ])
    def test_scan_and_members_check_each_alpha(self, monkeypatch, alpha, why):
        # with -gamma_k planted as alpha, beta = 1 at N = 1 (a = -2) gives
        # alpha itself: q = -1 is off 9a - 2 (mod 27), and q = 61 gives b = 3
        # with disc(-2, 3) = -87, as in the census walk's checks
        k = FieldClass(7, (1,))
        monkeypatch.setattr(enumeration, "_neg_gamma", lambda ps, es: alpha)
        for run in (lambda: enumerate_field(k, 1), lambda: _members(k, -2)):
            with pytest.raises(InconsistencyError, match=f"{why} at a = -2$"):
                run()


class TestMinHeight:
    def test_examples(self):
        assert min_height(field_invariants(TraceOnePoly(-2, 1))) == 7
        assert min_height(field_invariants(TraceOnePoly(-4, -1))) == 13
        assert min_height(field_invariants(TraceOnePoly(-30, -27))) == 91
        assert min_height(field_invariants(TraceOnePoly(-30, 64))) == 91


class TestEnumerateAll:
    def test_empty(self):
        assert enumerate_all(0) == {}

    def test_single(self):
        census = enumerate_all(-2)
        assert len(census) == 1
        (k, fs), = census.items()
        assert k.conductor == 7 and fs == [TraceOnePoly(-2, 1)]

    def test_conductor_91_separation(self):
        census = enumerate_all(-30)
        c91 = [k for k in census if k.conductor == 91]
        assert len(c91) == 2
        assert c91[0].subgroup != c91[1].subgroup
        for k in c91:
            assert len(census[k]) == 1

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            enumerate_all(5)
