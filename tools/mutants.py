"""Hand-made mutants of cubictrace, and whether the tests see them.

    python3 tools/mutants.py [NAME ...]

Run it by hand from the repository root; the test suite does not run it.
Each mutant is one exact `old -> new` edit of one file under src/cubictrace
and a list of behavioural tests (no lint) that should fail with it.  For
each mutant named (all of them by default) the script copies src/, tests/,
bench/ and pyproject.toml into a temporary directory, applies the edit,
runs the listed tests there with pytest, and prints `killed` when they
fail and `survived` when they pass.  An edit whose `old` text is not found
exactly once is reported as `stale`, and a pytest run that ends in neither
pass nor test failure (a test id that no longer exists, say) as `error`.
Exits 1 unless every mutant run is killed, so a source change that outdates
the list is noticed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    what: str
    path: str  # relative to src/cubictrace
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("M1", "_corollary_check compares the count with itself",
           "verify.py",
           'return series_coeff(h2 // k.conductor), count, ""',
           'return count, count, ""',
           ("tests/test_verify.py::TestCorollary",
            "tests/test_cli.py::TestCount")),
    Mutant("M2", "verify_theorem compares the count with itself",
           "verify.py",
           'report.add(f"N={n}", series_coeff(n), count)',
           'report.add(f"N={n}", count, count)',
           ("tests/test_verify.py::TestTheorem",)),
    Mutant("M3", "_neg_gamma uses character exponent 1 at every prime",
           "enumeration.py",
           "g = _mul(g, _factor_row(p, 1)[e][0])",
           "g = _mul(g, _factor_row(p, 1)[1][0])",
           ("tests/test_enumeration.py::TestEnumerateField",)),
    Mutant("M4", "the census walk keys every pattern with all exponents 1",
           "enumeration.py",
           "key = FieldClass(cr, er)",
           "key = FieldClass(cr, (1,) * len(er))",
           ("tests/test_acceptance.py::test_criterion_8_conductor_91_separation",
            "tests/test_enumeration.py::TestPolysForA")),
    Mutant("M5", "the d_N sieve treats 3 like a prime = 2 (mod 3)",
           "arith.py",
           "elif p != 3:",
           "else:",
           ("tests/test_eisenstein.py::TestIdealCount",
            "tests/test_acceptance.py::test_criterion_3_oracle_equivalence")),
    Mutant("M6", "the d_N sieve's large-prime pass runs m descending",
           "arith.py",
           "for m in range(1, (size - 1) // (K + 1) + 1):",
           "for m in range((size - 1) // (K + 1), 0, -1):",
           ("tests/test_eisenstein.py::TestIdealCount",
            "tests/test_acceptance.py::test_criterion_3_oracle_equivalence")),
    Mutant("M7", "the beta scan drops the last x of each y",
           "enumeration.py",
           "(y + s) // 2 + 1",
           "(y + s) // 2",
           ("tests/test_verify.py::TestTheorem",
            "tests/test_enumeration.py::TestEnumerateField")),
)


def run(m: Mutant) -> str:
    """'killed', 'survived', 'stale' or 'error' for mutant m, in a fresh
    copy."""
    with tempfile.TemporaryDirectory(prefix="cubictrace-mutant-") as tmp:
        for name in ("src", "tests", "bench"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, "src", "cubictrace", m.path)
        with open(path) as f:
            text = f.read()
        if text.count(m.old) != 1:
            return "stale"
        with open(path, "w") as f:
            f.write(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *m.tests], cwd=tmp, env=env, capture_output=True, text=True)
    # pytest exits 0 when every test passed and 1 when some test failed
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    results = []
    for m in chosen:
        result = run(m)
        results.append(result)
        print(f"{m.name} {result:8} {m.what}", flush=True)
    return 0 if all(r == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
