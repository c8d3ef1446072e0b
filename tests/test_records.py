"""The records of nsx (`nsx.records`): equality by class and fields, hashing
of the frozen ones, the frozen guard, the repr format, validation and fresh
default lists in `__init__`, and cached properties on Chart and Region."""

import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest

import nsx
from nsx import dsl
from nsx.charts import Chart, ChartMap
from nsx.errors import DomainError
from nsx.locus import CoordLocus, EmptyLocus, Region
from nsx.pointcheck import ContactVerdict, DegeneracyVerdict, Outcome, RankVerdict
from nsx.records import FrozenRecord, Record
from nsx.runner import CheckRecord, RunConfig, ScenarioReport, SuiteReport
from nsx.symexpr import Equal, NotEqual, Undecided, sym

A = dsl.Ref("a")


def test_equality_compares_the_class():
    assert dsl.Pullback("m", A) != dsl.Star("m", A)
    assert dsl.Ref("x") != dsl.Basis("x")
    assert dsl.D(A) != dsl.Neg(A)
    assert dsl.Pullback("m", A) == dsl.Pullback("m", dsl.Ref("a"))
    assert dsl.Pi() == dsl.Pi() and hash(dsl.Pi()) == hash(dsl.Pi())
    assert Equal() != Undecided() and NotEqual() == NotEqual()
    assert dsl.Num(1) != 1 and dsl.Num(1) != (1,)


def test_fields_decide_equality_and_hash():
    left = dsl.Bin("+", dsl.Num(1), dsl.Ref("x"))
    assert left == dsl.Bin("+", dsl.Num(1), dsl.Ref("x"))
    assert hash(left) == hash(dsl.Bin("+", dsl.Num(1), dsl.Ref("x")))
    assert left != dsl.Bin("-", dsl.Num(1), dsl.Ref("x"))
    assert left != dsl.Bin("+", dsl.Num(2), dsl.Ref("x"))
    assert len({left, dsl.Bin("+", dsl.Num(1), dsl.Ref("x")), dsl.Neg(left)}) == 2


def test_line_is_left_out_of_equality_and_hash():
    first = dsl.parse_scenario("chart C(x, y)\nform a on C = d(x)\ncheck closed a\n")
    later = dsl.parse_scenario("\n\nchart C(x, y)\n\nform a on C = d(x)\n\n\ncheck closed a\n")
    assert [s.line for s in first.statements] == [1, 2, 3]
    assert [s.line for s in later.statements] == [3, 5, 8]
    assert first == later
    chart, form = first.statements[:2]
    twin = dsl.Statement("chart", {"name": "C", "coords": ("x", "y")})
    assert chart == dsl.Statement("chart", {"name": "C", "coords": ("x", "y")}, line=7) and hash(chart) == hash(twin)
    assert form == later.statements[1] and hash(form) == hash(later.statements[1])
    assert form != dsl.Statement("form", {"name": "a", "chart": "C", "expr": dsl.D(dsl.Ref("y"))}, 2)
    assert form != dsl.Statement("vfield", {"name": "a", "chart": "C", "expr": dsl.D(dsl.Ref("x"))}, 2)


@pytest.mark.parametrize(
    "record",
    [
        dsl.Num(1),
        dsl.Bin("+", A, A),
        dsl.Pi(),
        dsl.Statement("chart", {"name": "C", "coords": ("x",)}, 1),
        dsl.Statement("check", {"kind": "closed", "payload": {"form": A}, "where": (), "note": "", "expect": "pass"}, 1),
        dsl.Scenario(()),
        Chart("C", ("x", "y")),
        Region(Chart("C", ("x",)), ((0, 1),), (2,), 0),
        EmptyLocus(Chart("C", ("x",))),
        RankVerdict(2, False, True),
        RunConfig(),
        Equal(),
    ],
    ids=lambda r: type(r).__name__ + (f"-{r.keyword}" if hasattr(r, "keyword") else ""),
)
def test_a_frozen_record_refuses_assignment_and_deletion(record):
    field = next(iter(record._fields), "keyword" if hasattr(record, "keyword") else "anything")
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.new_attribute = 0


@pytest.mark.parametrize(
    "record",
    [
        Outcome("closed"),
        DegeneracyVerdict(True, ""),
        ContactVerdict(True, False, "", []),
        CheckRecord(0, "closed", "pass", "pass", True, "", "(exact)", {}),
        ScenarioReport("S", "", "pass", []),
        SuiteReport(0, []),
    ],
    ids=lambda r: type(r).__name__,
)
def test_a_mutable_record_is_unhashable_and_compares_by_fields(record):
    with pytest.raises(TypeError):
        hash(record)
    twin = type(record)(*(getattr(record, f) for f in record._fields))
    assert twin == record
    setattr(record, record._fields[0], "changed")
    assert twin != record


def test_repr_keeps_the_dataclass_format():
    assert repr(dsl.Num(3)) == "Num(value=3)"
    assert repr(dsl.Pi()) == "Pi()"
    assert repr(dsl.Bin("^", dsl.Ref("x"), dsl.Num(-2))) == "Bin(op='^', left=Ref(name='x'), right=Num(value=-2))"
    assert repr(dsl.Pullback("m", dsl.D(A))) == "Pullback(map_name='m', arg=D(arg=Ref(name='a')))"
    chart = dsl.Statement("chart", {"name": "C", "coords": ("x", "y")}, 4)
    assert repr(chart) == "Statement(keyword='chart', name='C', coords=('x', 'y'), line=4)"
    check = dsl.Statement("check", {"kind": "closed", "payload": {"form": A}, "where": (), "note": "", "expect": "pass"})
    assert repr(check) == (
        "Statement(keyword='check', kind='closed', payload={'form': Ref(name='a')}, where=(), note='', expect='pass', line=0)"
    )
    assert repr(RunConfig(seed=5)) == "RunConfig(seed=5, samples=None, tol=1e-09)"
    assert repr(Undecided(samples=3)) == "Undecided(samples=3, non_finite=0, kind='undecided')"
    assert repr(Chart("C", ("x",))) == "Chart(name='C', coords=('x',))"


# The fields each statement of a random scenario carries, in order.
STATEMENT_FIELDS = {
    "chart": ("name", "coords"),
    "param": ("names",),
    "const": ("name", "expr"),
    "form": ("name", "chart", "expr"),
    "vfield": ("name", "chart", "expr"),
    "region": ("name", "chart", "intervals", "lattice", "random_count"),
    "locus": ("name", "chart", "flavour", "payload"),
    "check": ("kind", "payload", "where", "note", "expect"),
}


def test_print_statement_reads_every_statement_field():
    made = dsl.random_scenario(random.Random(3))
    text = dsl.print_scenario(made)
    scenario = dsl.parse_scenario(text)
    assert dsl.print_scenario(scenario) == text
    for s in made.statements + scenario.statements:
        assert list(vars(s)) == ["keyword", *STATEMENT_FIELDS[s.keyword], "line"]


def test_init_validates_as_before():
    with pytest.raises(DomainError, match="repeats a coordinate name"):
        Chart("C", ("x", "x"))
    with pytest.raises(DomainError, match="supported range is 1..8"):
        Chart("C", ())
    line = Chart("L", ("t",))
    with pytest.raises(DomainError, match="empty interval"):
        Region(line, ((1, 0),), (2,), 0)
    with pytest.raises(DomainError, match="must pin at least one coordinate"):
        CoordLocus(line, ())
    with pytest.raises(DomainError, match="needs 1 component expressions, got 2"):
        ChartMap("m", line, line, (sym("t"), sym("t")))
    with pytest.raises(DomainError, match="a tolerance must be a finite number"):
        RunConfig(tol=float("nan"))


def test_default_lists_are_fresh():
    first, second = Outcome("closed"), Outcome("closed")
    first.counterexamples.append({"point": {}, "reason": "r"})
    first.notes.append("n")
    assert second.counterexamples == [] and second.notes == []
    assert DegeneracyVerdict(True, "").kernel is not DegeneracyVerdict(True, "").kernel


def test_cached_properties_on_chart_and_region():
    chart = Chart("C", ("x", "y", "z"))
    assert chart.dim == 3 and vars(chart)["dim"] == 3
    region = Region(chart, ((Fraction(-1), Fraction(1)),) * 3, (2, 2, 2), 4)
    assert region.dyadic_axes is region.dyadic_axes
    assert len(region.reach) == 3 and region.reach[0] > 1
    assert region == Region(Chart("C", ("x", "y", "z")), ((Fraction(-1), Fraction(1)),) * 3, (2, 2, 2), 4)
    assert hash(region) == hash(Region(chart, ((Fraction(-1), Fraction(1)),) * 3, (2, 2, 2), 4))


def test_chart_equality_is_the_field_equality():
    chart = Chart("C", ("x", "y"))
    assert chart == chart and chart == Chart("C", ("x", "y"))
    assert chart != Chart("D", ("x", "y")) and chart != Chart("C", ("y", "x"))
    assert chart != ("C", ("x", "y"))
    assert hash(chart) == hash(Chart("C", ("x", "y")))


def test_the_bases_hold_no_instance_state():
    class Pair(FrozenRecord):
        __slots__ = _fields = ("a", "b")

        def __init__(self, a, b):
            Pair.a.__set__(self, a)
            Pair.b.__set__(self, b)

    class Box(Record):
        _fields = ("item",)

        def __init__(self, item):
            self.item = item

    assert Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash(Pair(1, 2)) and Pair(1, 2) != Pair(1, 3)
    assert repr(Pair(1, 2)) == "test_the_bases_hold_no_instance_state.<locals>.Pair(a=1, b=2)"
    assert not hasattr(Pair(1, 2), "__dict__")
    assert Box([1]) == Box([1]) and Box.__hash__ is None


def _nsx_record_classes():
    """Every Record subclass that a module of nsx defines, all modules imported."""
    for module in pkgutil.iter_modules(nsx.__path__):
        if module.name != "__main__":
            importlib.import_module(f"nsx.{module.name}")
    found, pending = [], [Record]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("nsx."):
                found.append(cls)
    return found


def test_every_record_init_takes_its_fields_in_order():
    # A Statement's fields come from its grammar entry, not from `_fields`.
    checked = []
    for cls in _nsx_record_classes():
        if "__init__" in vars(cls) and cls is not dsl.Statement:
            assert list(inspect.signature(cls.__init__).parameters)[1:] == list(cls._fields), cls.__qualname__
            checked.append(cls)
    assert {dsl.Bin, dsl.Scenario, Chart, Region, Outcome, CheckRecord} <= set(checked)
