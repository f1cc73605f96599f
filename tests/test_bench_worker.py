"""The benchmark's own checks, run as the benchmark runs them: one untraced
repetition of each workload of bench/worker.py, each in a fresh interpreter.
The worker compares its outputs with bench/expected.json, checks every
subgroup and report it is given, and counts each failed op; `run` mode
writes no file."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

_WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
_WORKLOADS = ("census-near", "census-far", "identify", "verify")


@pytest.fixture(scope="module")
def workers():
    """All four workers, started at once; each test waits for its own."""
    procs = {w: subprocess.Popen([sys.executable, str(_WORKER), w, "1", "run",
                                  repr(time.monotonic())],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
             for w in _WORKLOADS}
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_workload_passes_its_own_checks(workers, workload):
    proc = workers[workload]
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    result = json.loads(out.splitlines()[-1])
    assert result["ops"] > 0
    assert (result["failed"], result["errors"]) == (0, [])
