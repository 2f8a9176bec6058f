"""loopcheck's value classes against twins built with the real `dataclasses`.

`loopcheck._record.record` stands in for ``dataclasses.dataclass`` so that
``import loopcheck`` need not import `dataclasses`.  The twins below
declare the same fields, defaults and ``compare``/``repr`` flags with the
real decorator, and share the class names, so their reprs are the oracle
for ours.  loopcheck's own classes are reached through their modules.
"""
import dataclasses
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from pathlib import Path

import pytest

import loopcheck
from loopcheck import catalog, halfiso, identities, papercheck, perms, report, structure, table
from loopcheck._record import replace
from loopcheck.identities import parse_identity
from loopcheck.table import cyclic_group


@dataclass(frozen=True)
class Record:
    kind: str
    level: str = "info"
    loops: tuple = ()
    witness: tuple | None = None
    anchor: str = ""
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HalfIso:
    source: object
    target: object
    mapping: tuple

    __repr__ = halfiso.HalfIso.__repr__


@dataclass(frozen=True)
class Classification:
    is_isomorphism: bool
    is_anti_isomorphism: bool
    is_special: bool
    gg_triples: tuple
    trivial: bool
    special_witness: tuple | None = None


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Equation:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class IdentityStatement:
    variables: tuple
    hypotheses: tuple
    conclusion: tuple
    name: str | None = field(default=None, compare=False)
    macros: dict = field(default_factory=dict, compare=False)
    line: int | None = field(default=None, compare=False)


@dataclass
class SuiteContext:
    max_order: int = 6
    seed: int = 0
    generated: dict = field(default_factory=dict)
    builtins: list = field(default_factory=list)
    enumerated: dict = field(default_factory=dict, repr=False)


def twin_of(obj):
    """The dataclass twin holding the same field values as `obj`."""
    cls = globals()[type(obj).__name__]
    return cls(**{f.name: getattr(obj, f.name) for f in dataclasses.fields(cls)})


def statement():
    stmt = parse_identity("x * (y * x) = x * y * x", name="flexible")
    return replace(stmt, line=7, macros={"sq": "x * x"})


def samples():
    """One instance of each class with a twin, with non-default values."""
    c3 = cyclic_group(3)
    x, y = identities.Var("x"), identities.Var("y")
    return [
        report.Record("k", "finding", ("a", "b"), (1, 2), "anchor-1", {"n": 3}),
        report.Record("k"),
        halfiso.HalfIso(c3, c3, (0, 2, 1)),
        halfiso.Classification(True, False, True, ((0, 1, 2),), False, (1, 2)),
        halfiso.Classification(False, False, False, (), True),
        x,
        identities.One(),
        identities.Mul(x, identities.Mul(y, identities.One())),
        identities.Equation(x, y),
        statement(),
        papercheck.SuiteContext(max_order=3, seed=5, builtins=[1], enumerated={1: 2}),
    ]


@pytest.mark.parametrize("obj", samples(), ids=lambda o: type(o).__name__)
def test_repr_matches_the_dataclass_twin(obj):
    assert repr(obj) == repr(twin_of(obj))


@pytest.mark.parametrize(
    "obj",
    [o for o in samples() if not isinstance(o, (papercheck.SuiteContext, identities.Var))],
    ids=lambda o: type(o).__name__,
)
def test_hash_matches_the_dataclass_twin(obj):
    # Equal hashes keep the iteration order of sets of loops and maps.  A
    # one-field record (`Var`) hashes its value rather than a 1-tuple of it.
    if isinstance(obj, report.Record):
        with pytest.raises(TypeError):  # its data dict is unhashable
            hash(obj)
        with pytest.raises(TypeError):
            hash(twin_of(obj))
    else:
        assert hash(obj) == hash(twin_of(obj))


def test_equality_and_hash_ignore_uncompared_fields():
    rows = cyclic_group(4).table
    a = table.LoopTable(4, rows, 0, name="a")
    b = table.LoopTable(order=4, table=rows, identity=0, name="b")
    assert a == b and hash(a) == hash(b)
    assert a != table.LoopTable(4, rows, 1, name="a")

    stmt = statement()
    other = replace(stmt, name="other", line=99, macros={})
    assert stmt == other and hash(stmt) == hash(other)
    assert stmt != replace(stmt, variables=("y", "x"))


def test_classes_do_not_compare_equal_across_types():
    x, y = identities.Var("x"), identities.Var("y")
    assert identities.Mul(x, y) != identities.LDiv(x, y)
    assert identities.Mul(x, y) != Mul(x, y)  # nor to the twin
    assert identities.Mul(x, y) == identities.Mul(identities.Var("x"), y)
    assert hash(x) == hash(identities.Var("x"))
    assert identities.One() == identities.One()


def test_mutable_classes_are_unhashable():
    mutable = [
        identities.Counterexample({"x": 1}),
        papercheck.SuiteContext(),
        papercheck.CriterionResult(1, "t", True, report.AnalysisReport(), 0.5),
        report.AnalysisReport(),
    ]
    for obj in mutable:
        assert type(obj).__hash__ is None
        with pytest.raises(TypeError):
            hash(obj)
    ctx = mutable[1]
    ctx.seed = 9
    assert ctx.seed == 9
    assert mutable[0] == identities.Counterexample({"x": 1})


def test_frozen_fields_refuse_assignment_and_deletion():
    c3 = cyclic_group(3)
    frozen = [
        c3,
        statement(),
        report.Record("k"),
        halfiso.HalfIso(c3, c3, (0, 1, 2)),
        perms.StabilizerChain(3, (), (), ()),
        structure.SubloopClosure(frozenset({0}), frozenset({0})),
        catalog.make_entry("c3", c3),
    ]
    for obj in frozen:
        name = obj._record_fields[0]
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        with pytest.raises(FrozenInstanceError):
            obj.unrelated = 1


def test_default_factory_gives_each_instance_its_own_value():
    a, b = report.Record("k"), report.Record("k")
    assert a.data == {} and a.data is not b.data
    assert report.AnalysisReport().records is not report.AnalysisReport().records
    s, t = papercheck.SuiteContext(), papercheck.SuiteContext()
    for name in ("generated", "builtins", "enumerated"):
        assert getattr(s, name) is not getattr(t, name)
    s.builtins.append(1)
    assert t.builtins == []
    stmt = identities.IdentityStatement(("x",), (), ())
    assert stmt.macros == {} and stmt.macros is not identities.IdentityStatement((), (), ()).macros


def test_replace_keeps_uncompared_fields():
    stmt = statement()
    moved = replace(stmt, line=12)
    assert (moved.name, moved.macros, moved.line) == ("flexible", stmt.macros, 12)
    assert repr(moved) == repr(dataclasses.replace(twin_of(stmt), line=12))
    assert moved == stmt and moved is not stmt
    with pytest.raises(TypeError):
        replace(stmt, bogus=1)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),                                # both fields missing
        (("x",), {}),                            # one missing
        (("x", "y", "z"), {}),                   # one too many
        (("x",), {"left": "y"}),                 # given twice
        (("x",), {"bogus": "y"}),                # unknown name, right count
        (("x", "y"), {"bogus": "z"}),            # unknown name, all given
    ],
)
def test_bad_constructor_calls_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Mul(*args, **kwargs)  # the twin agrees that the call is bad
    with pytest.raises(TypeError):
        identities.Mul(*args, **kwargs)


def test_constructors_bind_positional_keyword_and_default_values():
    ours = report.Record("k", witness=(1,), data={"v": 1})
    assert (ours.kind, ours.level, ours.loops, ours.witness, ours.anchor, ours.data) == (
        "k", "info", (), (1,), "", {"v": 1}
    )
    assert ours == report.Record(kind="k", data={"v": 1}, witness=(1,))
    with pytest.raises(TypeError):
        report.Record()
    with pytest.raises(TypeError):
        report.Record("k", level="info", kind="k")


def test_import_leaves_dataclasses_inspect_and_argparse_unloaded():
    # A fresh interpreter that ignores PYTHON* variables (-E) and site
    # hooks (-S), which may import these modules themselves.
    src = Path(loopcheck.__file__).resolve().parent.parent
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import loopcheck, loopcheck.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'argparse') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-E", "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
