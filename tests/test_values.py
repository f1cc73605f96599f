"""The value types: TraceOnePoly, FieldClass, EnumerationRow, Check and
VerificationReport.  What callers rely on is pinned here, independent of how
the types are built: repr and str, hashing as the tuple of the fields,
equality, the (a, b) order of cubics, immutability, FieldClass's refusal of
an unnormalized character, and the reports' counts and renderings."""

import json
import random

import pytest

from cubictrace.enumeration import EnumerationRow
from cubictrace.fields import FieldClass
from cubictrace.poly import TraceOnePoly
from cubictrace.verify import Check, VerificationReport

K49_POLY = TraceOnePoly(-2, 1)
ROW = EnumerationRow(4, -9, (TraceOnePoly(-9, 1),), 1)
EMPTY_ROW = EnumerationRow(2, None, (), 0)
CHECK = Check("N=1", 1, 1, True)


@pytest.mark.parametrize("value, text, rendered", [
    (K49_POLY, "TraceOnePoly(a=-2, b=1)", "t^3 - t^2 - 2t + 1"),
    (TraceOnePoly(0, -3), "TraceOnePoly(a=0, b=-3)", "t^3 - t^2 + 0t - 3"),
    (FieldClass(91, (1, 2)), "FieldClass(conductor=91, character=(1, 2))",
     "K_8281"),
    (ROW, "EnumerationRow(n=4, a=-9, polys=(TraceOnePoly(a=-9, b=1),), "
          "predicted=1)", None),
    (EMPTY_ROW, "EnumerationRow(n=2, a=None, polys=(), predicted=0)", None),
    (CHECK, "Check(name='N=1', expected=1, actual=1, passed=True, note='')",
     None),
    (Check("N=2", 0, 1, False, "x"),
     "Check(name='N=2', expected=0, actual=1, passed=False, note='x')", None),
], ids=["poly", "poly-zero-a", "field", "row", "empty-row", "check",
        "check-note"])
def test_repr_and_str(value, text, rendered):
    assert repr(value) == text
    assert str(value) == (text if rendered is None else rendered)


def test_report_repr_and_str():
    report = VerificationReport("s")
    assert repr(report) == str(report) == "VerificationReport(subject='s', checks=[])"
    report.add("N=1", 1, 1)
    assert repr(report) == str(report) == (
        "VerificationReport(subject='s', checks=[Check(name='N=1', "
        "expected=1, actual=1, passed=True, note='')])")


@pytest.mark.parametrize("value, fields", [
    (K49_POLY, (-2, 1)),
    (FieldClass(91, (1, 2)), (91, (1, 2))),
    (ROW, (4, -9, (TraceOnePoly(-9, 1),), 1)),
    (EMPTY_ROW, (2, None, (), 0)),
    (CHECK, ("N=1", 1, 1, True, "")),
], ids=["poly", "field", "row", "empty-row", "check"])
def test_hash_is_the_hash_of_the_fields(value, fields):
    assert hash(value) == hash(fields)


@pytest.mark.parametrize("make, same, other", [
    (TraceOnePoly, (-2, 1), (-2, -1)),
    (FieldClass, (91, (1, 2)), (91, (1, 1))),
    (FieldClass, (7, (1,)), (13, (1,))),
    (EnumerationRow, (4, -9, (TraceOnePoly(-9, 1),), 1),
     (4, -9, (TraceOnePoly(-9, 1),), 2)),
    (EnumerationRow, (2, None, (), 0), (5, None, (), 0)),
    (Check, ("N=1", 1, 1, True), ("N=1", 1, 1, True, "x")),
], ids=["poly", "field-character", "field-conductor", "row", "empty-row",
        "check"])
def test_equality_between_instances(make, same, other):
    x, y, z = make(*same), make(*same), make(*other)
    assert x == y and not x != y
    assert x != z and not x == z
    assert len({x, y, z}) == 2


def test_cubics_sort_by_a_then_b():
    rng = random.Random(0)
    pairs = [(rng.randrange(-30, 1), rng.randrange(-40, 41)) for _ in range(300)]
    polys = [TraceOnePoly(a, b) for a, b in pairs]
    assert sorted(polys) == [TraceOnePoly(a, b) for a, b in sorted(pairs)]
    assert min(polys) == TraceOnePoly(*min(pairs))
    assert TraceOnePoly(-3, 5) < TraceOnePoly(-2, -5) < TraceOnePoly(-2, 4)


@pytest.mark.parametrize("value, name", [
    (K49_POLY, "a"), (K49_POLY, "b"),
    (FieldClass(7, (1,)), "conductor"), (FieldClass(7, (1,)), "character"),
    (ROW, "polys"), (ROW, "predicted"), (CHECK, "passed"), (CHECK, "note"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_assignment_raises(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert getattr(value, name) == before


@pytest.mark.parametrize("character", [(2,), (1, 0), ()])
def test_field_class_refuses_an_unnormalized_character(character):
    with pytest.raises(ValueError) as exc:
        FieldClass(7, character)
    assert str(exc.value) == (f"character {character} is not normalized: "
                              "entries in {1, 2}, the first equal to 1")
    with pytest.raises(ValueError):
        FieldClass(conductor=7, character=character)


def test_field_class_by_keyword():
    k = FieldClass(conductor=91, character=(1, 2))
    assert k == FieldClass(91, (1, 2))
    assert (k.conductor, k.character, k.discriminant) == (91, (1, 2), 8281)


def test_row_count_and_height():
    assert (ROW.count, ROW.height_sq) == (1, 28)
    assert (EMPTY_ROW.count, EMPTY_ROW.height_sq) == (0, None)
    row = EnumerationRow(n=7, a=-16, polys=(TraceOnePoly(-16, -13),
                                            TraceOnePoly(-16, 29)), predicted=2)
    assert (row.count, row.height_sq) == (2, 49)


def test_report_add_overall_and_renderings():
    report = VerificationReport("s")
    assert report.overall and report.checks == []
    assert report.to_text() == "s: PASS (0/0 checks)"
    report.add("N=1", 1, 1)
    assert report.overall
    report.add("N=2", 0, 1, note="x")
    assert not report.overall
    assert report.checks == [Check("N=1", 1, 1, True, ""),
                             Check("N=2", 0, 1, False, "x")]
    assert report.to_text() == ("[ok  ] N=1: expected 1, got 1\n"
                                "[FAIL] N=2: expected 0, got 1  (x)\n"
                                "s: FAIL (1/2 checks)")
    assert json.dumps(report.to_json()) == (
        '{"subject": "s", "overall": false, "checks": [{"name": "N=1", '
        '"expected": 1, "actual": 1, "passed": true}, {"name": "N=2", '
        '"expected": 0, "actual": 1, "passed": false, "note": "x"}]}')
    assert CHECK.to_json() == {"name": "N=1", "expected": 1, "actual": 1,
                               "passed": True}


def test_report_checks_are_a_list_that_grows():
    report, other = VerificationReport("s"), VerificationReport("t")
    report.add("x", "a", "a")
    report.checks += [Check("y", 1, 2, False)]
    assert [c.name for c in report.checks] == ["x", "y"]
    assert other.checks == [] and not report.overall


def test_field_class_checks_every_way_it_is_built():
    k = FieldClass(91, (1, 2))
    assert k._replace(character=(1, 1)) == FieldClass(91, (1, 1))
    with pytest.raises(ValueError, match="not normalized"):
        k._replace(character=(2, 1))
    with pytest.raises(ValueError, match="not normalized"):
        FieldClass._make((7, (0,)))
