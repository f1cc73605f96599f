"""Benchmark entry point for cubictrace.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each repetition of the workload runs in a
fresh interpreter (`worker.py`), so the library's caches start cold.  With
`--trace 0` repetitions run back to back until `--seconds` have passed (at
least one), and the end-to-end metrics are medians over repetitions.  With
`--trace 1` each untraced repetition is followed by a traced one, and the
per-layer metrics are medians over the traced repetitions.  Prints a table
and, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Exits 1 on any wrong output, 2 when the library
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("census-near", "census-far", "identify", "verify")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "polys_per_s": "1/s",
    "peak_rss_mb": "MB",
}
MIN_SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # the whole run, set-up samples included


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), mode, repr(t_spawn)],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {mode} failed ({proc.returncode}):\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_inputs(workload: str, seed: int) -> list[str]:
    """Check the generated cubics with the library before any timing: each
    is cyclic.  Runs in this process, so the workers' caches stay cold."""
    import inputs
    from cubictrace import TraceOnePoly, is_cyclic

    cubics = {"identify": inputs.identify_inputs,
              "verify": inputs.verify_cubics}.get(workload)
    if cubics is None:
        return []
    return [f"generated input {a},{b} is not cyclic"
            for a, b, _c in cubics(seed) if not is_cyclic(TraceOnePoly(a, b))]


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def end_to_end(runs: list[dict], setups: list[float]) -> dict[str, float]:
    """Medians over repetitions; op percentiles over the ops of all of them."""
    ops = [t for r in runs for t in r["op_s_each"]]
    deciles = statistics.quantiles(ops, n=10)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": median_of(runs, "wall_s"),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_p90_ms": 1e3 * deciles[8],
        "polys_per_s": statistics.median(r["polys"] / r["wall_s"] for r in runs),
        "peak_rss_mb": median_of(runs, "peak_rss_mb"),
    }


def per_layer(runs: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(t["layers"][name] for t in traced)
           for name in PER_LAYER if name != "trace.overhead_ratio"}
    out["trace.overhead_ratio"] = (median_of(traced, "wall_s")
                                   / median_of(runs, "wall_s"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "cubictrace", "__init__.py")):
        print(f"error: no cubictrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    errors = check_inputs(args.workload, args.seed)
    runs: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            runs.append(spawn(args.workload, args.seed, "run", deadline))
            if args.trace:
                traced.append(spawn(args.workload, args.seed, "trace", deadline))
            if time.monotonic() - start >= args.seconds:
                break
        setups = [r["setup_s"] for r in runs + traced]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, "setup", deadline)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = runs + traced
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps) + len(errors)
    for r in reps:
        errors += r["errors"]
    if args.trace:
        metrics = per_layer(runs, traced)
        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
    else:
        metrics = end_to_end(runs, setups)
        units = END_TO_END

    first = reps[0]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {first['python']}  nproc {os.cpu_count()}")
    print(f"repetitions {len(runs)} untraced, {len(traced)} traced; "
          f"{runs[0]['ops']} ops each; set-up samples {len(setups)}")
    print("wall_s per repetition: "
          + " ".join(f"{r['wall_s']:.3f}" for r in runs)
          + ("; traced: " + " ".join(f"{t['wall_s']:.3f}" for t in traced)
             if traced else ""))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':32s} {failed / max(1, attempted):14.6g} "
          f"({failed} of {attempted} ops)")
    for message in errors[:10]:
        print(f"  FAIL {message}")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
