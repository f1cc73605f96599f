"""Internal invariants raise InconsistencyError, not AssertionError, so they
hold under `python -O` too.  Each test breaks one invariant by
monkeypatching, in a fresh `python -O` interpreter."""

import subprocess
import sys
import textwrap

from conftest import child_env


def raises_inconsistency_under_O(body: str) -> bool:
    script = "import sys\nassert sys.flags.optimize\n" + textwrap.dedent(body) + textwrap.dedent("""
        from cubictrace.arith import InconsistencyError
        try:
            run()
        except InconsistencyError:
            sys.exit(0)
        sys.exit(1)
    """)
    return subprocess.run([sys.executable, "-O", "-c", script],
                          env=child_env()).returncode == 0


def test_square_disc_b_outside_b_range_in_enumeration():
    # At a = -2 (h = 7), a row with one entry, at residue 1, gives
    # alpha = 32 + 3w, which passes the mod-27 test and gives b = 3, with
    # disc(-2, 3) = -87 <= 0.
    assert raises_inconsistency_under_O("""
        from cubictrace import enumeration
        enumeration._factor_row = lambda p, e: ((), ((-32, -3),), ())

        def run():
            enumeration.classified_polys_for_a(-2)
    """)


def test_alpha_off_the_mod_27_class_in_enumeration():
    # At a = -2 (h = 7), a row with one entry, at residue 1, gives
    # alpha = 1 + 3w, with q = 2x - y = -1, not = 9a - 2 (mod 27): the census
    # raises instead of skipping it.
    assert raises_inconsistency_under_O("""
        from cubictrace import enumeration
        enumeration._factor_row = lambda p, e: ((), ((-1, -3),), ())

        def run():
            enumeration.classified_polys_for_a(-2)
    """)


def test_min_height_differs_from_conductor():
    assert raises_inconsistency_under_O("""
        from cubictrace import enumeration
        from cubictrace.fields import field_invariants
        from cubictrace.poly import TraceOnePoly
        members = enumeration._members
        enumeration._members = lambda k, a: (
            members(k, a) if 1 - 3 * a != k.conductor else ())

        def run():
            enumeration.min_height(field_invariants(TraceOnePoly(-2, 1)))
    """)

