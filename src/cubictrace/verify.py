"""Verification harness: reproduce the published tables, check the count
identity and the corollary over ranges, audit the sigma_0(P_1) closed form,
and run the numeric quotient-norm proportionality check."""

from __future__ import annotations

from collections import namedtuple

from .arith import InconsistencyError
from .eisenstein import formula3_count, ideal_count, series_coeff
from .enumeration import _field_bs, _members, enumerate_field
from .fields import FieldClass, check_key, field_invariants
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

NORM_TOLERANCE = 1e-9  # of norm_proportionality_check, relative to (2/3)H^2

# Dedekind zeta coefficients d_N of Q(sqrt(-3)) for N = 1 mod 3 up to 97
# (zero values omitted, as printed).
DN_TABLE = (
    (1, 1), (4, 1), (7, 2), (13, 2), (16, 1), (19, 2), (25, 1),
    (28, 2), (31, 2), (37, 2), (43, 2), (49, 3), (52, 2), (61, 2),
    (64, 1), (67, 2), (73, 2), (76, 2), (79, 2), (91, 4), (97, 2),
)


class Check(namedtuple("Check", "name expected actual passed note",
                       defaults=("",))):
    """One named comparison of a report, as an immutable named tuple."""

    __slots__ = ()

    def to_json(self) -> dict:
        d = {"name": self.name, "expected": self.expected,
             "actual": self.actual, "passed": self.passed}
        if self.note:
            d["note"] = self.note
        return d


class VerificationReport:
    """A subject and the list of its checks, in the order they were made."""

    __slots__ = ("subject", "checks")

    def __init__(self, subject: str):
        self.subject = subject
        self.checks: list[Check] = []

    def __repr__(self) -> str:
        return (f"VerificationReport(subject={self.subject!r}, "
                f"checks={self.checks!r})")

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
    """Count identity at each N <= n_max: k's cubics at H^2 = c*N, counted as
    the b _field_bs finds and built as none, against series_coeff(N)."""
    return _identity_report(k, n_max, _field_bs(k, n_max))


def _identity_report(k: FieldClass, n_max: int, bs_at) -> VerificationReport:
    """verify_theorem's report from bs_at = _field_bs(k, n_max)."""
    report = VerificationReport(f"theorem[{k}, N<={n_max}]")
    for n in range(1, n_max + 1):
        count = len(bs_at[n // 3]) if n % 3 == 1 else 0
        report.add(f"N={n}", series_coeff(n), count)
    return report


def _corollary_check(k: FieldClass, a: int) -> tuple[int, int, str]:
    """(predicted, count, note) for the cubics at a with root field k: the
    theorem's d_N at N = (1-3a)/c when c | 1-3a, else 0 predicted.  The
    count comes first, so 1-3a past FACTOR_LIMIT is refused before N is
    factored."""
    h2 = 1 - 3 * a
    count = len(_members(k, a))
    if h2 % k.conductor:
        return 0, count, f"{k.conductor} does not divide {h2}"
    return series_coeff(h2 // k.conductor), count, ""


def verify_corollary(k: FieldClass, a_min: int) -> VerificationReport:
    """Per-a counting: count = d_{(1-3a)/c} when c | 1-3a, else 0."""
    if a_min > 0:
        raise ValueError(f"a_min must be <= 0, got {a_min}")
    check_key(k)
    report = VerificationReport(f"corollary[{k}, a>={a_min}]")
    for a in range(a_min, 1):
        report.add(f"a={a}", *_corollary_check(k, a))
    return report


def verify_formula3(k: FieldClass, n_max: int) -> VerificationReport:
    """Audit of sigma_0(P_1(N)) against the enumerated count.

    Divergences are expected exactly at N whose part supported on primes
    = 2 mod 3 is a nonsquare, that is where d_N = 0; there the count is
    compared with d_N and the check carries a note.  Elsewhere the count
    is compared with the formula.
    """
    report = VerificationReport(f"formula3[{k}, N<={n_max}]")
    for i, bs in enumerate(_field_bs(k, n_max)):  # N = 3i + 1 = (1-3a)/c
        n, count = 3 * i + 1, len(bs)
        d_n, formula = series_coeff(n), formula3_count(n)
        if d_n == 0:
            report.add(f"N={n}", d_n, count,
                       note=f"known divergence: formula {formula}, "
                            f"enumerated {count}, ideal_count {d_n}")
        else:
            report.add(f"N={n}", formula, count)
    return report


def formula3_divergences(k: FieldClass, n_max: int) -> list[int]:
    """The N of the known divergences whose check passed, not failed."""
    return [int(c.name.split("=")[1]) for c in verify_formula3(k, n_max).checks
            if c.passed and c.note.startswith("known divergence")]


def _table_line(conductor: int, n: int, polys) -> str:
    """The printed row 'c x N: f, g' of the tables, polys in the order
    given; a row with none is 'c x N:'."""
    return f"{conductor} x {n}: {', '.join(map(str, polys))}".rstrip()


def _dn_lines(pairs) -> list[str]:
    return [f"d_{n} = {d}" for n, d in pairs]


def reproduce_tables() -> VerificationReport:
    """Regenerate both polynomial tables and the d_N table from scratch and
    compare byte-exactly against the embedded transcriptions."""
    report = VerificationReport("paper-tables")
    for name, c, rows, f in (("K_49", 7, K49_TABLE_ROWS, TraceOnePoly(-2, 1)),
                             ("K_169", 13, K169_TABLE_ROWS, TraceOnePoly(-4, -1))):
        # as transcribed, unsorted, so a misordered row fails the comparison
        expected = [_table_line(c, n, [TraceOnePoly((1 - c * n) // 3, b) for b in bs])
                    for n, bs in rows]
        k = field_invariants(f)
        # row.polys ascend in b; the tables print b descending
        generated = [_table_line(k.conductor, row.n, row.polys[::-1])
                     for row in enumerate_field(k, 43) if row.count]
        report.add(f"{name} table", "\n".join(expected), "\n".join(generated))
    generated = [(n, d) for n in range(1, 98, 3) if (d := ideal_count(n))]
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
            raise InconsistencyError(
                f"root isolation failed for {f} on [{lo}, {hi}]")
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


def norm_proportionality_check(f: TraceOnePoly) -> VerificationReport:
    """Numeric check that the squared quotient norm on Minkowski space mod
    the diagonal equals (2/3) * H(f)^2, to NORM_TOLERANCE relative to
    (2/3)H^2: the float rounding grows with H^2."""
    if not is_cyclic(f):
        raise ValueError(f"{f} is not cyclic")
    report = VerificationReport(f"norm-proportionality[{f}]")
    # added left to right, as sum() did before Python 3.12 made it
    # compensated: the same floats, so the same note, on every version
    x0, x1, x2 = real_roots(f)
    total = x0 + x1 + x2
    qnorm_sq = x0 * x0 + x1 * x1 + x2 * x2 - total * total / 3.0
    target = (2.0 / 3.0) * height_sq(f)
    err = abs(qnorm_sq - target)
    report.add(f"|qnorm^2 - (2/3)H^2| < {NORM_TOLERANCE} * (2/3)H^2", True,
               err < NORM_TOLERANCE * target,
               note=f"qnorm^2 = {qnorm_sq!r}, (2/3)H^2 = {target!r}, err = {err:.3e}")
    return report
