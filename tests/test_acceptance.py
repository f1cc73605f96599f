"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2's identity is checked against the zeta coefficient with the
Euler-factor at 3 removed: at N divisible by 3 no trace-one polynomial exists
(a would not be integral), and the series coefficient vanishes there too, so
the count identity holds coefficientwise; at all other N the coefficient
equals the plain ideal count.
"""

import math
import random
import time

import pytest

import conftest

from cubictrace.eisenstein import ideal_count, ideal_count_oracle, series_coeff
from cubictrace.enumeration import enumerate_all, enumerate_field, min_height
from cubictrace.fields import field_invariants, is_isomorphic
from cubictrace.padic import SplittingType, dedekind_index_test, roots_mod_p, splitting_type
from cubictrace.poly import TraceOnePoly, discriminant, is_cyclic
from cubictrace.verify import (K49_TABLE_ROWS, K169_TABLE_ROWS,
                               formula3_divergences,
                               norm_proportionality_check, reproduce_tables)

K49 = field_invariants(TraceOnePoly(-2, 1))
K169 = field_invariants(TraceOnePoly(-4, -1))


def _report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {criterion}: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def census():
    return enumerate_all(-2000)


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    report = reproduce_tables()
    elapsed = time.monotonic() - t0
    k49_polys = sum(len(bs) for _n, bs in K49_TABLE_ROWS)
    k169_polys = sum(len(bs) for _n, bs in K169_TABLE_ROWS)
    shape_ok = (len(K49_TABLE_ROWS) == len(K169_TABLE_ROWS) == 11
                and k49_polys == k169_polys == 18)
    _report("criterion 1 (table reproduction)",
            report.overall and shape_ok and elapsed < 5.0,
            f"3 tables byte-exact, 11+11 rows, 18+18 polynomials, "
            f"{elapsed:.2f}s (< 5s)")


def test_criterion_2_theorem_identity(census):
    t0 = time.monotonic()
    classes = sorted((k for k in census if k.conductor <= 200),
                     key=lambda k: (k.conductor, sorted(k.subgroup)))
    mismatches = []
    for k in classes:
        for row in enumerate_field(k, 100):
            expected = ideal_count(row.n) if row.n % 3 else 0
            if row.count != expected or row.count != series_coeff(row.n):
                mismatches.append((k, row.n, row.count))
    elapsed = time.monotonic() - t0
    conductors = [k.conductor for k in classes]
    _report("criterion 2 (theorem identity, desk scale)",
            not mismatches and elapsed < 300.0
            and {7, 13, 19, 31, 37, 43, 61, 67, 79, 97} <= set(conductors)
            and conductors.count(91) == 2,
            f"{len(classes)} classes with conductor <= 200, all counts at "
            f"N <= 100 match the zeta coefficients, {elapsed:.1f}s (< 300s)")


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    bad = [n for n in range(1, 10**5 + 1) if ideal_count(n) != ideal_count_oracle(n)]
    elapsed = time.monotonic() - t0
    _report("criterion 3 (oracle equivalence)",
            not bad and elapsed < 30.0,
            f"ideal_count = divisor-sum oracle for all N <= 10^5, "
            f"{elapsed:.1f}s (< 30s)")


def test_criterion_4_minimal_height(census):
    classes = [k for k in census if k.conductor <= 200]
    bad = [k for k in classes if min_height(k) != k.conductor]
    _report("criterion 4 (minimal height)",
            not bad,
            f"min_height(K) = conductor for all {len(classes)} classes")


def test_criterion_5_divisibility(census):
    bad_div = [f for k, fs in census.items() for f in fs
               if (1 - 3 * f.a) % k.conductor != 0]
    counts: dict[int, dict] = {}
    for k, fs in census.items():
        for f in fs:
            per_a = counts.setdefault(f.a, {})
            per_a[k] = per_a.get(k, 0) + 1
    bad_count = [(k, a) for a, per_a in counts.items() for k in per_a
                 if (1 - 3 * a) % k.conductor != 0]
    total = sum(len(fs) for fs in census.values())
    _report("criterion 5 (corollary divisibility)",
            not bad_div and not bad_count,
            f"conductor | (1 - 3a) for all {total} census polynomials "
            "(a >= -2000); no class has members at a with c not dividing 1-3a")


def test_criterion_6_index_robustness():
    f = TraceOnePoly(-37, 29)
    k = field_invariants(f)
    ok = (splitting_type(f, 2) is SplittingType.INERT
          and dedekind_index_test(f, 2)
          and k.conductor == 7
          and is_isomorphic(f, TraceOnePoly(-2, 1)))
    _report("criterion 6 (index-divisor robustness)", ok,
            "(-37,29): 2 inert, 2 | index, conductor 7, isomorphic to (-2,1)")


def test_criterion_7_root_count_parity():
    rng = random.Random(20260824)
    primes = [p for p in range(2, 500) if all(p % d for d in range(2, p))]
    checked = 0
    bad = []
    while checked < 1000:
        a, b = rng.randint(-400, 0), rng.randint(-400, 400)
        # Nearly every draw has a non-square disc(f); rejecting those before
        # the polynomial is built keeps the same draws and the same sample.
        d = a * a - 4 * a**3 - 18 * a * b + 4 * b - 27 * b * b
        if d <= 0 or math.isqrt(d) ** 2 != d:
            continue
        f = TraceOnePoly(a, b)
        if not is_cyclic(f):
            continue
        p = rng.choice(primes)
        if discriminant(f) % p == 0:
            continue
        n = len(roots_mod_p(f, p))
        if n not in (0, 3):
            bad.append((f, p, n))
        checked += 1
    _report("criterion 7 (root-count parity)", not bad,
            "1000 random (cyclic f, p coprime to disc): |roots mod p| in {0, 3}")


def test_criterion_8_conductor_91_separation():
    census = enumerate_all(-30)
    c91 = [k for k in census if k.conductor == 91]
    at_30 = [f for fs in census.values() for f in fs if f.a == -30]
    by_conductor = sorted(
        sum(1 for f in census[k] if f.a == -30) for k in census
        if any(f.a == -30 for f in census[k]))
    ok = (len(c91) == 2
          and c91[0].subgroup != c91[1].subgroup
          and all(sum(1 for f in census[k] if f.a == -30) == 1 for k in c91)
          and len(at_30) == 6
          and by_conductor == [1, 1, 2, 2])
    _report("criterion 8 (conductor-91 separation)", ok,
            "two conductor-91 classes with distinct subgroups; "
            "6 polynomials at a = -30 split 2+2+1+1")


def test_criterion_9_formula3_audit():
    from oracles import mod2_part_is_square
    divergences = formula3_divergences(K49, 22)
    ok = (divergences == [10, 22]
          and all(not mod2_part_is_square(n) for n in divergences))
    _report("criterion 9 (formula-(3) audit)", ok,
            "divergences exactly at N in {10, 22}, both with nonsquare "
            "2-mod-3 part")


def test_criterion_10_norm_proportionality():
    polys = []
    for conductor, rows in ((7, K49_TABLE_ROWS), (13, K169_TABLE_ROWS)):
        for n, bs in rows:
            a = (1 - conductor * n) // 3
            polys.extend(TraceOnePoly(a, b) for b in bs)
    assert len(polys) == 36
    bad = [f for f in polys if not norm_proportionality_check(f).overall]
    _report("criterion 10 (norm proportionality)", not bad,
            "all 36 table polynomials: |qnorm^2 - (2/3) H^2| < 1e-9 * (2/3) H^2")
