import hashlib
import json

import pytest

from cubictrace import arith, cli, eisenstein, enumeration, fields, verify
from cubictrace.arith import FACTOR_LIMIT, InconsistencyError, SizeLimitError
from cubictrace.eisenstein import formula3_count, ideal_count, ideal_count_oracle
from cubictrace.fields import field_invariants
from cubictrace.poly import TraceOnePoly
from cubictrace.verify import (VerificationReport, formula3_divergences,
                               norm_proportionality_check, real_roots,
                               reproduce_tables, verify_corollary,
                               verify_formula3, verify_theorem)

K49 = field_invariants(TraceOnePoly(-2, 1))
K169 = field_invariants(TraceOnePoly(-4, -1))


def _planted(n, bs):
    """The scan _field_bs with the b in bs in place of those at N = n, as
    verify sees it: verify_theorem, verify_formula3 and the CLI's verify
    count the scan's b, and build no row."""
    def planted(k, n_max):
        bs_at = enumeration._field_bs(k, n_max)
        bs_at[n // 3] = list(bs)
        return bs_at
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
        for module in (verify, cli):
            monkeypatch.setattr(module, "_field_bs",
                                _planted(7, [f.b for f in polys] + [0]))
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
        monkeypatch.setattr(verify, "_field_bs", _planted(10, (1, 2, 3)))
        report = verify_formula3(K49, 22)
        assert not report.overall
        check = next(c for c in report.checks if c.name == "N=10")
        assert (check.expected, check.actual, check.passed) == (0, 3, False)

    def test_a_failing_divergence_is_not_listed(self, monkeypatch):
        # three cubics planted at N = 10, where d_10 = 0: the audit fails
        # there, so N = 10 is no longer a known divergence
        monkeypatch.setattr(verify, "_field_bs", _planted(10, (1, 2, 3)))
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


def _theorem_from_rows(k, rows):
    """The identity on the public rows = enumerate_field(k, n_max), one
    check per N, from each row's cubics."""
    report = VerificationReport(f"theorem[{k}, N<={len(rows)}]")
    for row in rows:
        report.add(f"N={row.n}", row.predicted, row.count)
    return report


def _formula3_from_rows(k, rows):
    """The formula audit on the public rows, one check per N = 1 (mod 3)."""
    report = VerificationReport(f"formula3[{k}, N<={len(rows)}]")
    for row in rows:
        n, count, d_n = row.n, row.count, row.predicted
        if n % 3 != 1:
            continue
        formula = formula3_count(n)
        if d_n == 0:
            report.add(f"N={n}", d_n, count,
                       note=f"known divergence: formula {formula}, "
                            f"enumerated {count}, ideal_count {d_n}")
        else:
            report.add(f"N={n}", formula, count)
    return report


class TestCountingPath:
    """verify_theorem and verify_formula3 count the scan's b per N and build
    no row; their reports must equal those rebuilt from enumerate_field."""

    @pytest.fixture(scope="class")
    def classes(self):
        classes = [k for k in enumeration.enumerate_all(-66) if k.conductor <= 200]
        assert len(classes) == 25
        assert {k.character for k in classes if k.conductor == 91} == {
            (1, 1), (1, 2)}
        return classes

    @pytest.mark.parametrize("n_max", [1, 2, 3, 43, 100])
    def test_reports_equal_the_rows(self, classes, n_max):
        for k in classes:
            rows = enumeration.enumerate_field(k, n_max)
            for got, expected in (
                    (verify_theorem(k, n_max), _theorem_from_rows(k, rows)),
                    (verify_formula3(k, n_max), _formula3_from_rows(k, rows))):
                assert got.subject == expected.subject, (k, n_max)
                assert got.checks == expected.checks, (k, n_max)

    @pytest.mark.parametrize("verify_fn", [verify_theorem, verify_formula3])
    def test_refusals_come_before_any_check(self, monkeypatch, verify_fn):
        # n_max = 0, and the least admissible N with 7N >= FACTOR_LIMIT
        def refuse(n):
            raise AssertionError(f"checked N = {n}")
        monkeypatch.setattr(verify, "series_coeff", refuse)
        monkeypatch.setattr(verify, "formula3_count", refuse)
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            verify_fn(K49, 0)
        n_past = -(-FACTOR_LIMIT // 7)
        n_past += (1 - n_past) % 3
        with pytest.raises(SizeLimitError, match=f"cannot factor {7 * n_past}: "):
            verify_fn(K49, n_past)


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
