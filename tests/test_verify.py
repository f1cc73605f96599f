import hashlib
import json

import pytest

from cubictrace import arith, cli, eisenstein, enumeration, fields, verify
from cubictrace.arith import FACTOR_LIMIT, InconsistencyError, SizeLimitError
from cubictrace.eisenstein import ideal_count, ideal_count_oracle
from cubictrace.fields import field_invariants
from cubictrace.poly import TraceOnePoly
from cubictrace.verify import (formula3_divergences,
                               norm_proportionality_check, real_roots,
                               reproduce_tables, verify_corollary,
                               verify_formula3, verify_theorem)

K49 = field_invariants(TraceOnePoly(-2, 1))
K169 = field_invariants(TraceOnePoly(-4, -1))


def _planted(n, polys):
    """enumerate_field with polys in place of the row at N = n."""
    def planted(k, n_max):
        return [row._replace(polys=polys) if row.n == n else row
                for row in enumeration.enumerate_field(k, n_max)]
    return planted


def _failed(report):
    return [(c.name, c.expected, c.actual) for c in report.checks
            if not c.passed]


class TestTheorem:
    def test_k49(self):
        report = verify_theorem(K49, 43)
        assert report.overall
        nonzero = [c for c in report.checks if c.expected]
        assert [c.name for c in nonzero] == [
            f"N={n}" for n in (1, 4, 7, 13, 16, 19, 25, 28, 31, 37, 43)]
        assert [c.expected for c in nonzero] == [1, 1, 2, 2, 1, 2, 1, 2, 2, 2, 2]

    def test_k169(self):
        report = verify_theorem(K169, 43)
        assert report.overall
        assert [c.expected for c in report.checks if c.expected] \
            == [1, 1, 2, 2, 1, 2, 1, 2, 2, 2, 2]

    def test_small(self):
        report = verify_theorem(K49, 3)
        assert report.overall
        assert [c.actual for c in report.checks] == [1, 0, 0]

    def test_planted_cubic_fails_at_its_n(self, monkeypatch, capsys):
        # one cubic more at N = 7 (a = -16), where d_7 = 2: the identity
        # compares the count with d_7, not with itself, and the CLI exits 1
        polys = enumeration._members(K49, -16)
        assert len(polys) == 2
        planted = _planted(7, polys + (TraceOnePoly(-16, 0),))
        for module in (verify, cli):
            monkeypatch.setattr(module, "enumerate_field", planted)
        report = verify_theorem(K49, 40)
        assert not report.overall and _failed(report) == [("N=7", 2, 3)]
        assert cli.main(["verify", "--field=-2,1", "--max-norm", "40"]) == 1
        assert "[FAIL] N=7: expected 2, got 3" in capsys.readouterr().out

    def test_shifted_count_table_fails_at_that_n(self, monkeypatch):
        # d_7 + 1 in a copy of ideal_count's table: the identity and the
        # comparison with the divisor-sum oracle each fail at N = 7 alone
        ideal_count(40)
        table = bytearray(eisenstein._count_table)
        table[7] += 1
        monkeypatch.setattr(eisenstein, "_count_table", table)
        report = verify_theorem(K49, 40)
        assert not report.overall and _failed(report) == [("N=7", 3, 2)]
        assert [n for n in range(1, 41)
                if ideal_count(n) != ideal_count_oracle(n)] == [7]


class TestCorollary:
    def test_dropped_cubic_fails_at_its_a(self, monkeypatch):
        # one of the two cubics at a = -30 (N = 13, d_13 = 2) goes missing
        members = verify._members

        def dropped(k, a):
            return members(k, a)[1:] if a == -30 else members(k, a)
        monkeypatch.setattr(verify, "_members", dropped)
        report = verify_corollary(K49, -40)
        assert not report.overall and _failed(report) == [("a=-30", 2, 1)]

    def test_k49(self):
        assert verify_corollary(K49, -100).overall

    def test_k169_includes_a56(self):
        report = verify_corollary(K169, -56)
        assert report.overall
        check = next(c for c in report.checks if c.name == "a=-56")
        assert check.expected == 2 and check.actual == 2

    def test_rejects_positive_a_min(self):
        # a range with no a in it would pass with no check
        with pytest.raises(ValueError, match="a_min must be <= 0, got 5"):
            verify_corollary(K49, 5)

    def test_trivial_a_zero(self):
        report = verify_corollary(K49, 0)
        assert report.overall
        assert report.checks[0].expected == 0

    def test_height_past_the_limit_is_refused_before_any_factorization(
            self, monkeypatch):
        # 7 | h: N = h/7 is below FACTOR_LIMIT, but the refusal names h, as
        # the census at a does, and comes before d_N factors N
        h = FACTOR_LIMIT + (7 - FACTOR_LIMIT) % 21
        assert h % 21 == 7 and h // 7 < FACTOR_LIMIT <= h < FACTOR_LIMIT + 21
        factored = []
        factorize = arith.factorize
        for module in (arith, eisenstein, enumeration, fields):
            monkeypatch.setattr(module, "factorize",
                                lambda n: factored.append(n) or factorize(n))
        with pytest.raises(SizeLimitError, match=f"cannot factor {h}: "):
            verify._corollary_check(K49, (1 - h) // 3)
        assert factored == []


class TestFormula3:
    def test_no_divergence_small(self):
        assert formula3_divergences(K49, 9) == []

    def test_divergences_to_22(self):
        assert formula3_divergences(K49, 22) == [10, 22]
        assert verify_formula3(K49, 22).overall  # divergences are warnings

    def test_divergence_notes_carry_counts(self):
        report = verify_formula3(K49, 10)
        note = next(c.note for c in report.checks if c.name == "N=10")
        assert "formula 1" in note and "ideal_count 0" in note

    def test_wrong_count_at_a_divergence_fails(self, monkeypatch):
        # d_10 = 0: three cubics planted at N = 10 (a = -23) are compared
        # with d_10, not with themselves
        polys = tuple(TraceOnePoly(-23, b) for b in (1, 2, 3))

        def planted(k, n_max):
            return [row._replace(polys=polys) if row.n == 10 else row
                    for row in enumeration.enumerate_field(k, n_max)]
        monkeypatch.setattr(verify, "enumerate_field", planted)
        report = verify_formula3(K49, 22)
        assert not report.overall
        check = next(c for c in report.checks if c.name == "N=10")
        assert (check.expected, check.actual, check.passed) == (0, 3, False)

    def test_a_failing_divergence_is_not_listed(self, monkeypatch):
        # three cubics planted at N = 10, where d_10 = 0: the audit fails
        # there, so N = 10 is no longer a known divergence
        polys = tuple(TraceOnePoly(-23, b) for b in (1, 2, 3))
        monkeypatch.setattr(verify, "enumerate_field", _planted(10, polys))
        assert verify_formula3(K49, 22).overall is False
        assert formula3_divergences(K49, 22) == [22]

    def test_reads_d_n_from_the_rows(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"ideal_count({n})")
        monkeypatch.setattr(verify, "ideal_count", refuse)
        assert formula3_divergences(K49, 100)

    def test_golden_digest(self):
        # sha256 of the whole report to N = 100: 12 known divergences among
        # 34 checks, every name, value and note.
        text = json.dumps(verify_formula3(K49, 100).to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "106bcc5b27a5ffcc5edf8549c1cf1a184aace0710ed6555c597bf41b1ed55f7d")


class TestReproduceTables:
    def test_byte_exact(self):
        report = reproduce_tables()
        assert report.overall
        names = [c.name for c in report.checks]
        assert names == ["K_49 table", "K_169 table", "d_N table"]
        k49_text = report.checks[0].actual
        assert len(k49_text.splitlines()) == 11
        assert sum(line.count("t^3") for line in k49_text.splitlines()) == 18

    def test_misordered_transcription_fails(self, monkeypatch):
        # the transcribed rows are rendered in the order given, not sorted
        rows = list(verify.K49_TABLE_ROWS)
        assert rows[2] == (7, (29, -13))
        rows[2] = (7, (-13, 29))
        monkeypatch.setattr(verify, "K49_TABLE_ROWS", tuple(rows))
        assert [c.passed for c in reproduce_tables().checks] == [False, True, True]

    def test_shifted_count_table_fails_the_dn_table(self, monkeypatch, capsys):
        # d_7 + 1 in a copy of ideal_count's table: the d_N table alone
        # fails, as the polynomial tables print no d_N, and the CLI exits 1
        ideal_count(97)
        table = bytearray(eisenstein._count_table)
        table[7] += 1
        monkeypatch.setattr(eisenstein, "_count_table", table)
        report = reproduce_tables()
        assert not report.overall
        assert [c.name for c in report.checks if not c.passed] == ["d_N table"]
        assert cli.main(["paper-tables"]) == 1
        assert "[FAIL] d_N table" in capsys.readouterr().out

    def test_deterministic_serialization(self):
        a = json.dumps(reproduce_tables().to_json())
        b = json.dumps(reproduce_tables().to_json())
        assert a == b


class TestRealRoots:
    def test_sum_and_products(self):
        f = TraceOnePoly(-30, 43)
        xs = real_roots(f)
        assert abs(sum(xs) - 1) < 1e-9
        e2 = xs[0] * xs[1] + xs[0] * xs[2] + xs[1] * xs[2]
        assert abs(e2 - f.a) < 1e-9
        assert abs(xs[0] * xs[1] * xs[2] + f.b) < 1e-9

    def test_rejects_nonsquare_disc(self):
        with pytest.raises(ValueError):
            real_roots(TraceOnePoly(3, 5))

    def test_no_sign_change_is_inconsistent(self, monkeypatch):
        # past the discriminant guard, t^3 - t^2 + 1 (disc -23) keeps the
        # sign of f(0) = 1 on the middle bracket [0, 2/3]
        monkeypatch.setattr(verify, "discriminant", lambda f: 1)
        with pytest.raises(InconsistencyError, match="root isolation failed"):
            real_roots(TraceOnePoly(0, 1))


class TestNormProportionality:
    @pytest.mark.parametrize("a,b", [(-2, 1), (-4, -1), (-30, 43)])
    def test_examples(self, a, b):
        assert norm_proportionality_check(TraceOnePoly(a, b)).overall

    def test_rejects_noncyclic(self):
        with pytest.raises(ValueError):
            norm_proportionality_check(TraceOnePoly(-2, 2))

    def test_tolerance_is_relative_to_the_height(self):
        # err = 1.164e-9 at (2/3)H^2 = 1628362.67: float rounding, which an
        # absolute 1e-9 bound took for a failure
        f = TraceOnePoly(-814181, -280781219)
        report = norm_proportionality_check(f)
        assert report.overall
        assert "err = 1.164e-09" in report.to_text()

    def test_a_wrong_root_still_fails(self, monkeypatch):
        f = TraceOnePoly(-814181, -280781219)
        x, y, z = real_roots(f)
        monkeypatch.setattr(verify, "real_roots", lambda g: (x + 1e-5, y, z))
        assert not norm_proportionality_check(f).overall

    def test_shifted_root_fails_the_check_and_the_cli(self, monkeypatch, capsys):
        # one root of t^3 - t^2 - 2t + 1 moved by 1e-6: its check fails,
        # alone among the 18 cubics of K_49 to N = 43, and verify exits 1
        f = TraceOnePoly(-2, 1)
        roots = real_roots

        def shifted(g):
            x, y, z = roots(g)
            return (x + 1e-6, y, z) if g == f else (x, y, z)
        monkeypatch.setattr(verify, "real_roots", shifted)
        report = norm_proportionality_check(f)
        assert not report.overall
        assert [c.name for c in report.checks if not c.passed] == [
            "|qnorm^2 - (2/3)H^2| < 1e-09 * (2/3)H^2"]
        assert cli.main(["verify", "--field=-2,1", "--max-norm", "43",
                         "--check-norms"]) == 1
        out = capsys.readouterr().out
        assert out.count("[FAIL] |qnorm^2") == out.count("[FAIL]") == 1
        assert out.count("[ok  ] |qnorm^2") == 17 and "(60/61 checks)" in out
