"""Verification harness: reproduce the published tables, check the count
identity and the corollary over ranges, audit the sigma_0(P_1) closed form,
and run the numeric quotient-norm proportionality check."""

from __future__ import annotations

from dataclasses import dataclass, field

from .eisenstein import (formula3_count, ideal_count, mod2_part_is_square,
                         series_coeff)
from .enumeration import classified_polys_for_a, enumerate_field
from .fields import FieldClass, field_invariants
from .poly import TraceOnePoly, discriminant, height_sq, is_cyclic

# Transcribed table data.  Figure-1 rows are (N, (b values, descending)) for
# each field; every polynomial in a row has a = (1 - conductor*N)/3.
K49_TABLE_ROWS = (
    (1, (1,)),
    (4, (1,)),
    (7, (29, -13)),
    (13, (43, -41)),
    (16, (29,)),
    (19, (127, -83)),
    (25, (-13,)),
    (28, (169, -167)),
    (31, (169, -41)),
    (37, (337, -251)),
    (43, (113, -181)),
)

K169_TABLE_ROWS = (
    (1, (-1,)),
    (4, (25,)),
    (7, (25, -53)),
    (13, (181, 25)),
    (16, (-131,)),
    (19, (155, -235)),
    (25, (337,)),
    (28, (545, -79)),
    (31, (-131, -521)),
    (37, (467, -625)),
    (43, (961, 415)),
)

# Dedekind zeta coefficients d_N of Q(sqrt(-3)) for N = 1 mod 3 up to 97
# (zero values omitted, as printed).
DN_TABLE = (
    (1, 1), (4, 1), (7, 2), (13, 2), (16, 1), (19, 2), (25, 1),
    (28, 2), (31, 2), (37, 2), (43, 2), (49, 3), (52, 2), (61, 2),
    (64, 1), (67, 2), (73, 2), (76, 2), (79, 2), (91, 4), (97, 2),
)


@dataclass(frozen=True)
class Check:
    name: str
    expected: object
    actual: object
    passed: bool
    note: str = ""

    def to_json(self) -> dict:
        d = {"name": self.name, "expected": self.expected,
             "actual": self.actual, "passed": self.passed}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class VerificationReport:
    subject: str
    checks: list[Check] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, expected, actual, note: str = "") -> None:
        self.checks.append(Check(name, expected, actual, expected == actual, note))

    def to_json(self) -> dict:
        return {"subject": self.subject, "overall": self.overall,
                "checks": [c.to_json() for c in self.checks]}

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            line = f"[{status}] {c.name}: expected {c.expected!r}, got {c.actual!r}"
            if c.note:
                line += f"  ({c.note})"
            lines.append(line)
        lines.append(f"{self.subject}: {'PASS' if self.overall else 'FAIL'} "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return "\n".join(lines)


def verify_theorem(k: FieldClass, n_max: int) -> VerificationReport:
    """Coefficientwise count identity: |F_K at N| = series coefficient."""
    report = VerificationReport(f"theorem[{k}, N<={n_max}]")
    for row in enumerate_field(k, n_max):
        report.add(f"N={row.n}", series_coeff(row.n), row.count)
    return report


def verify_corollary(k: FieldClass, a_min: int) -> VerificationReport:
    """Per-a counting: count = d_{(1-3a)/c} when c | 1-3a, else 0."""
    report = VerificationReport(f"corollary[{k}, a>={a_min}]")
    c = k.conductor
    for a in range(a_min, 1):
        count = sum(1 for _f, kk in classified_polys_for_a(a) if kk == k)
        h2 = 1 - 3 * a
        if h2 % c != 0:
            report.add(f"a={a}", 0, count, note=f"{c} does not divide {h2}")
        else:
            report.add(f"a={a}", ideal_count(h2 // c), count)
    return report


def verify_formula3(k: FieldClass, n_max: int) -> VerificationReport:
    """Audit of sigma_0(P_1(N)) against the enumerated count.

    Divergences are expected exactly at N whose part supported on primes
    = 2 mod 3 is a nonsquare; there they are reported as warnings, with the
    true ideal count cross-checked.  A divergence at any other N fails.
    """
    report = VerificationReport(f"formula3[{k}, N<={n_max}]")
    for row in enumerate_field(k, n_max):
        n, count = row.n, row.count
        if n % 3 != 1:
            continue  # not realizable as (1-3a)/sqrt(D_K)
        formula = formula3_count(n)
        if formula == count:
            report.add(f"N={n}", formula, count)
        elif not mod2_part_is_square(n):
            report.add(f"N={n}", count, count,
                       note=f"known divergence: formula {formula}, "
                            f"enumerated {count}, ideal_count {ideal_count(n)}")
        else:
            report.add(f"N={n}", formula, count)
    return report


def formula3_divergences(k: FieldClass, n_max: int) -> list[int]:
    return [int(c.name.split("=")[1]) for c in verify_formula3(k, n_max).checks
            if c.note.startswith("known divergence")]


def _field_table_lines(k: FieldClass, n_max: int) -> list[str]:
    lines = []
    for row in enumerate_field(k, n_max):
        if not row.count:
            continue
        polys = sorted(row.polys, key=lambda f: -f.b)  # printed order: b descending
        lines.append(f"{k.conductor} x {row.n}: " + ", ".join(map(str, polys)))
    return lines


def _expected_table_lines(conductor: int, rows) -> list[str]:
    lines = []
    for n, bs in rows:
        a = (1 - conductor * n) // 3
        polys = ", ".join(str(TraceOnePoly(a, b)) for b in bs)
        lines.append(f"{conductor} x {n}: {polys}")
    return lines


def _dn_lines(pairs) -> list[str]:
    return [f"d_{n} = {d}" for n, d in pairs]


def reproduce_tables() -> VerificationReport:
    """Regenerate both polynomial tables and the d_N table from scratch and
    compare byte-exactly against the embedded transcriptions."""
    report = VerificationReport("paper-tables")
    k49 = field_invariants(TraceOnePoly(-2, 1))
    k169 = field_invariants(TraceOnePoly(-4, -1))
    report.add("K_49 table", "\n".join(_expected_table_lines(7, K49_TABLE_ROWS)),
               "\n".join(_field_table_lines(k49, 43)))
    report.add("K_169 table", "\n".join(_expected_table_lines(13, K169_TABLE_ROWS)),
               "\n".join(_field_table_lines(k169, 43)))
    generated = [(n, ideal_count(n)) for n in range(1, 98)
                 if n % 3 == 1 and ideal_count(n) > 0]
    report.add("d_N table", "\n".join(_dn_lines(DN_TABLE)),
               "\n".join(_dn_lines(generated)))
    return report


def real_roots(f: TraceOnePoly) -> tuple[float, float, float]:
    """The three real roots of f (requires positive discriminant), each
    certified by bisection on a sign-change interval and polished by Newton."""
    if discriminant(f) <= 0:
        raise ValueError(f"{f} does not have three distinct real roots")
    a, b = f.a, f.b
    s = (1 - 3 * a) ** 0.5
    t1, t2 = (1 - s) / 3, (1 + s) / 3  # critical points of f
    bound = 1 + max(1.0, abs(a), abs(b))
    brackets = [(-bound, t1), (t1, t2), (t2, bound)]
    roots = []
    for lo, hi in brackets:
        flo = f(lo)
        if flo == 0:
            roots.append(lo)
            continue
        if f(hi) * flo > 0:
            raise RuntimeError(f"root isolation failed for {f} on [{lo}, {hi}]")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if f(mid) * flo > 0:
                lo = mid
            else:
                hi = mid
        x = 0.5 * (lo + hi)
        for _ in range(4):
            dfx = f.derivative(x)
            if dfx == 0:
                break
            x -= f(x) / dfx
        roots.append(x)
    return tuple(roots)


def norm_proportionality_check(f: TraceOnePoly,
                               tolerance: float = 1e-9) -> VerificationReport:
    """Numeric check that the squared quotient norm on Minkowski space mod
    the diagonal equals (2/3) * H(f)^2."""
    if not is_cyclic(f):
        raise ValueError(f"{f} is not cyclic")
    report = VerificationReport(f"norm-proportionality[{f}]")
    xs = real_roots(f)
    total = sum(xs)
    qnorm_sq = sum(x * x for x in xs) - total * total / 3.0
    target = (2.0 / 3.0) * height_sq(f)
    err = abs(qnorm_sq - target)
    report.add(f"|qnorm^2 - (2/3)H^2| < {tolerance}", True, err < tolerance,
               note=f"qnorm^2 = {qnorm_sq!r}, (2/3)H^2 = {target!r}, err = {err:.3e}")
    return report
