"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE T_SPAWN

MODE is `setup` (import and generate inputs, then stop), `run` (untraced)
or `trace` (with every layer wrapped by `tracing.Tracer`).  T_SPAWN is the
parent's `time.monotonic()` just before it started this process; the
system-wide monotonic clock makes `setup_s` include interpreter start.
Prints one JSON object as its last line of standard output.

Only library calls are timed: `wall_s` is the sum of the op times, and the
benchmark's own output checks run between ops, outside the timed regions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from cubictrace import cli, eisenstein, enumeration, fields, poly, verify  # noqa: E402

import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")
SPANS_DIR = os.path.join(HERE, "out")

CENSUS_NEAR_CLASSES = 778
CENSUS_NEAR_POLYS = 2498
FORMULA3_DIVERGENCES = [10, 22]


class Run:
    """Op timings, failures and the polys counted by one repetition."""

    def __init__(self):
        self.op_s: list[float] = []
        self.failed_ops: set[int] = set()
        self.polys = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        """Fail the latest op (or the whole workload, before its first op)."""
        self.failed_ops.add(len(self.op_s) - 1)
        if len(self.errors) < 10:
            self.errors.append(message)

    @property
    def failed(self) -> int:
        return min(len(self.failed_ops), max(1, len(self.op_s)))

    def op(self, fn, *args):
        """Time fn(*args) as one op; an exception fails the op."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a typed library error is a failed op
            self.op_s.append(time.perf_counter() - t0)
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        self.op_s.append(time.perf_counter() - t0)
        return out


def phi_of_squarefree(c: int) -> int:
    """Euler phi of a squarefree c, by trial division (c <= 10^7 here)."""
    phi, m, p = 1, c, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            phi *= p - 1
        p += 1
    return phi * (m - 1) if m > 1 else phi


def subgroup_label(subgroup) -> str:
    return hashlib.sha256(",".join(map(str, sorted(subgroup))).encode()).hexdigest()[:12]


def census_lines(polys_with_class) -> list[str]:
    """Canonical text of classified polys: a, b, conductor, subgroup label."""
    return sorted(f"{f.a},{f.b},{k.conductor},{subgroup_label(k.subgroup)}"
                  for f, k in polys_with_class)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def check_census_poly(run: Run, f, k) -> None:
    """Invariants every census poly must satisfy, checked by the benchmark's
    own arithmetic."""
    c = k.conductor
    if (1 - 3 * f.a) % c:
        run.fail(f"{f}: conductor {c} does not divide 1 - 3a")
    if not inputs.is_cyclic_cubic(f.a, f.b):
        run.fail(f"{f}: not a cyclic cubic")
    if len(k.subgroup) * 3 != phi_of_squarefree(c):
        run.fail(f"{f}: subgroup size {len(k.subgroup)} is not phi({c})/3")
    if (-1) % c not in k.subgroup:
        run.fail(f"{f}: -1 missing from the subgroup mod {c}")


def census_near(_seed: int):
    """enumerate_all(CENSUS_NEAR_A_MIN), timed one a at a time in its own
    ascending order.  The input is fixed, so the seed changes nothing."""

    def work(run: Run) -> None:
        rows = [pair for a in range(inputs.CENSUS_NEAR_A_MIN, 1)
                for pair in run.op(enumeration.classified_polys_for_a, a) or ()]
        run.polys = len(rows)
        for f, k in rows:
            check_census_poly(run, f, k)
        classes = {k for _f, k in rows}
        if len(classes) != CENSUS_NEAR_CLASSES:
            run.fail(f"{len(classes)} classes, expected {CENSUS_NEAR_CLASSES}")
        if len(rows) != CENSUS_NEAR_POLYS:
            run.fail(f"{len(rows)} polys, expected {CENSUS_NEAR_POLYS}")
        if digest(census_lines(rows)) != load_expected()["census-near"]:
            run.fail("census-near digest differs from expected.json")

    return work


def census_far(seed: int):
    window = inputs.census_far_window(seed)

    def work(run: Run) -> None:
        want = load_expected()["census-far"]
        for a in window:
            rows = run.op(enumeration.classified_polys_for_a, a)
            if rows is None:
                continue
            run.polys += len(rows)
            for f, k in rows:
                check_census_poly(run, f, k)
            if digest(census_lines(rows)) != want.get(str(a)):
                run.fail(f"a = {a}: classified polys differ from expected.json")

    return work


def identify(seed: int):
    cubics = inputs.identify_inputs(seed)

    def one(a: int, b: int) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["identify", f"--poly={a},{b}", "--format", "json"])
        return code, out.getvalue()

    def work(run: Run) -> None:
        for a, b, c in cubics:
            res = run.op(one, a, b)
            if res is not None:
                check_identify(run, a, b, c, *res)
        run.polys = len(cubics)

    return work


def check_identify(run: Run, a: int, b: int, c: int, code: int, text: str) -> None:
    if code != 0:
        run.fail(f"identify {a},{b}: exit code {code}")
        return
    got = json.loads(text)
    sub = got["subgroup"]
    if (got["a"], got["b"], got["conductor"]) != (a, b, c):
        run.fail(f"identify {a},{b}: conductor {got['conductor']}, expected {c}")
    elif len(sub) * 3 != phi_of_squarefree(c):
        run.fail(f"identify {a},{b}: subgroup size {len(sub)} is not phi({c})/3")
    elif c - 1 not in set(sub):
        run.fail(f"identify {a},{b}: -1 missing from the subgroup")


def verify_workload(seed: int):
    cubics = inputs.verify_cubics(seed)
    chunks = inputs.ideal_chunks()

    def theorem(a: int, b: int):
        k = fields.field_invariants(poly.TraceOnePoly(a, b))
        return k, verify.verify_theorem(k, inputs.VERIFY_MAX_NORM)

    def ideal_mismatches(chunk) -> list[int]:
        return [n for n in chunk
                if eisenstein.ideal_count(n) != eisenstein.ideal_count_oracle(n)]

    def work(run: Run) -> None:
        report = run.op(verify.reproduce_tables)
        check_report(run, report)
        classes = {}
        for a, b, c in cubics:
            res = run.op(theorem, a, b)
            if res is None:
                continue
            k, report = res
            check_report(run, report)
            run.polys += sum(ch.actual for ch in report.checks)
            if k.conductor != c:
                run.fail(f"{a},{b}: conductor {k.conductor}, expected {c}")
            classes[k] = c
        if len(classes) != len(cubics):
            run.fail(f"{len(classes)} distinct classes from {len(cubics)} cubics")
        k49 = next((k for k, c in classes.items() if c == 7), None)
        report = run.op(verify.verify_formula3, k49, inputs.VERIFY_FORMULA3_NORM)
        check_report(run, report)
        if report is not None:
            divergences = [int(ch.name.split("=")[1]) for ch in report.checks
                           if ch.note.startswith("known divergence")]
            if divergences != FORMULA3_DIVERGENCES:
                run.fail(f"formula-3 divergences {divergences}, "
                         f"expected {FORMULA3_DIVERGENCES}")
        for chunk in chunks:
            bad = run.op(ideal_mismatches, chunk)
            if bad:
                run.fail(f"ideal_count differs from the oracle at N = {bad[:5]}")

    return work


def check_report(run: Run, report) -> None:
    if report is not None and not report.overall:
        bad = [ch.name for ch in report.checks if not ch.passed]
        run.fail(f"{report.subject} failed at {bad[:5]}")


WORKLOADS = {
    "census-near": census_near,
    "census-far": census_far,
    "identify": identify,
    "verify": verify_workload,
}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def main(argv) -> int:
    workload, seed, mode, t_spawn = argv[0], int(argv[1]), argv[2], float(argv[3])
    work = WORKLOADS[workload](seed)
    result = {"setup_s": time.monotonic() - t_spawn,
              "python": sys.version.split()[0]}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    run = Run()
    work(run)
    result.update({
        "wall_s": sum(run.op_s),
        "ops": len(run.op_s),
        "failed": run.failed,
        "errors": run.errors,
        "polys": run.polys,
        "op_s_each": run.op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        layers, problems = tracer.layer_metrics()
        for message in problems:
            run.fail(message)
        result.update(failed=run.failed, errors=run.errors)
        result["layers"] = layers
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.write(os.path.join(SPANS_DIR, f"{workload}.spans.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
