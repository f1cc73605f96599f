"""Internal invariants raise InconsistencyError, not AssertionError, so they
hold under `python -O` too.  Each test breaks one invariant by
monkeypatching, in a fresh `python -O` interpreter."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def raises_inconsistency_under_O(body: str) -> bool:
    script = "import sys\nassert sys.flags.optimize\n" + textwrap.dedent(body) + textwrap.dedent("""
        from cubictrace.padic import InconsistencyError
        try:
            run()
        except InconsistencyError:
            sys.exit(0)
        sys.exit(1)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env).returncode == 0


def test_noncyclic_square_disc_in_enumeration():
    assert raises_inconsistency_under_O("""
        from cubictrace import enumeration
        enumeration.is_cyclic = lambda f: False

        def run():
            enumeration.classified_polys_for_a(-2)
    """)


def test_min_height_differs_from_conductor():
    assert raises_inconsistency_under_O("""
        from cubictrace import enumeration
        from cubictrace.fields import field_invariants
        from cubictrace.poly import TraceOnePoly
        row = enumeration._row
        enumeration._row = lambda k, n: (
            row(k, n) if n > 1 else enumeration.EnumerationRow(1, None, (), 1))

        def run():
            enumeration.min_height(field_invariants(TraceOnePoly(-2, 1)))
    """)


def test_dedekind_lift_mismatch():
    assert raises_inconsistency_under_O("""
        from cubictrace import padic
        from cubictrace.poly import TraceOnePoly
        padic._fbar = lambda f, p: padic._pnorm([f.b + 1, f.a, -1, 1], p)

        def run():
            padic.dedekind_index_test(TraceOnePoly(-2, 1), 2)
    """)
