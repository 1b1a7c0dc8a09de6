"""Records against frozen dataclasses.

Every `Record` subclass is compared with a frozen-dataclass twin built here
from the same annotations and defaults: construction, equality, hashing,
`repr`, immutability, `__post_init__` errors and cached properties must
behave alike.  A fresh `import sgpd.cli` must not load `dataclasses` or
`inspect`.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import sgpd
from sgpd.core import Frozen, MalformedTable, Record, SemigroupoidTable
from sgpd.covers import CandidateNotSubset, CoverSpec
from sgpd.kgraph import Edge, KGraph, KGraphSkeleton
from sgpd.markov import EmptyAlphabet, Matrix01
from sgpd.matrices import RatMat
from sgpd.relations import Gen, Relation
from sgpd.reps import DimensionMismatch, Representation


def record_classes() -> list[type]:
    out, todo = [], [Record]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("sgpd.") and sub not in out:
                out.append(sub)
                todo.append(sub)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))


RECORDS = record_classes()

# the members of a record class that the twin makes itself, or that are
# the record's own bookkeeping
MADE = {
    "__module__", "__qualname__", "__doc__", "__annotations__", "__dict__",
    "__weakref__", "__init__", "__eq__", "__hash__", "__repr__",
    "_fields", "_defaults", "_checked",
}

_twins: dict[type, type] = {}


def declared(cls) -> list[tuple[str, object, object]]:
    """(name, annotation, default or MISSING) for every field, read from
    the class bodies along the MRO, bases first."""
    out: dict[str, tuple[object, object]] = {}
    for klass in reversed(cls.__mro__):
        for name, annotation in vars(klass).get("__annotations__", {}).items():
            if klass in (Record, Frozen):
                continue
            default = vars(klass).get(name, dataclasses.MISSING)
            if name in out and default is dataclasses.MISSING:
                default = out[name][1]
            out[name] = (annotation, default)
    return [(name, ann, default) for name, (ann, default) in out.items()]


def twin(cls) -> type:
    """A frozen dataclass with the fields, defaults and methods of `cls`."""
    if cls not in _twins:
        namespace = {}
        for klass in reversed(cls.__mro__):
            if klass in (object, Frozen, Record):
                continue
            for key, value in vars(klass).items():
                if key not in MADE:
                    namespace[key] = value
        fields = []
        for name, annotation, default in declared(cls):
            namespace.pop(name, None)
            fields.append((name, annotation, dataclasses.field(default=default)))
        _twins[cls] = dataclasses.make_dataclass(
            cls.__name__, fields, namespace=namespace, frozen=True
        )
    return _twins[cls]


def params(cls) -> list[tuple[str, object]]:
    """(name, default or MISSING) for the fields `__init__` takes."""
    return [(n, d) for n, _, d in declared(cls)]


def _table() -> SemigroupoidTable:
    return SemigroupoidTable.build({"f", "g", "m"}, {("f", "g"): "m"})


def _skeleton(k: int = 1) -> KGraphSkeleton:
    edges = tuple(Edge(f"e{c}", c, "v", "v") for c in range(1, k + 1))
    squares = ((("e1", "e2"), ("e2", "e1")),) if k == 2 else ()
    return KGraphSkeleton(k, ("v",), edges, squares)


# valid field values for the records whose __post_init__ checks them, and
# values it refuses with the error it raises
CHECKED = {
    SemigroupoidTable: (
        [
            (frozenset({"f", "g", "m"}), {("f", "g"): "m"}),
            (frozenset({"f", "g", "m"}), {("f", "g"): "m"}, frozenset({"m"}), frozenset({("g", "m")})),
        ],
        [((frozenset({"f"}), {("f", "g"): "f"}), MalformedTable)],
    ),
    CoverSpec: (
        [(frozenset("ab"), frozenset("a")), (frozenset("abc"), frozenset())],
        [((frozenset("a"), frozenset("ab")), CandidateNotSubset)],
    ),
    KGraphSkeleton: (
        [tuple(vars(_skeleton(1))[n] for n, _ in params(KGraphSkeleton)),
         tuple(vars(_skeleton(2))[n] for n, _ in params(KGraphSkeleton))],
        [((0, ("v",), (), ()), ValueError)],
    ),
    Matrix01: (
        [(("1", "2"), ((1, 1), (1, 0))), (("a",), ((1,),))],
        [(((), ()), EmptyAlphabet), ((("1",), ((2,),)), ValueError)],
    ),
    Representation: (
        [(_table(), 1, {f: RatMat.zeros(1) for f in "fgm"}),
         (_table(), 2, {f: RatMat.identity(2) for f in "fgm"})],
        [((_table(), 1, {"f": RatMat.zeros(1)}), DimensionMismatch)],
    ),
}


def samples(cls) -> list[tuple]:
    """Two distinct tuples of constructor arguments."""
    if cls in CHECKED:
        return CHECKED[cls][0]
    if not params(cls):
        return [()]
    return [tuple(f"{name}-{k}" for name, _ in params(cls)) for k in (0, 1)]


def outcome(call):
    """("ok", value) or (exception class, message)."""
    try:
        return "ok", call()
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)


ids = [c.__qualname__ for c in RECORDS]


def test_the_records():
    # 32 records across seven modules, all with a twin
    assert len(RECORDS) == 33  # the 32, plus Witness, their falsy base
    assert {c.__module__ for c in RECORDS} == {
        f"sgpd.{m}" for m in ("core", "covers", "kgraph", "markov", "relations", "reps", "springs")
    }
    for cls in RECORDS:
        assert dataclasses.is_dataclass(twin(cls))
        assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_checked_records_have_samples(cls):
    # a record that checks its fields needs valid values in CHECKED
    assert hasattr(cls, "__post_init__") == (cls in CHECKED)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_and_defaults(cls):
    assert cls._fields == tuple(n for n, _, _ in declared(cls))
    assert [f.name for f in dataclasses.fields(twin(cls))] == list(cls._fields)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_construction(cls):
    twin_cls = twin(cls)
    names = [n for n, _ in params(cls)]
    for args in samples(cls):
        positional = cls(*args)
        keyword = cls(**dict(zip(names, args)))
        other = twin_cls(*args)
        assert positional == keyword
        assert repr(positional) == repr(keyword) == repr(other)
        assert outcome(lambda: bool(positional)) == outcome(lambda: bool(other))
        for name in cls._fields:
            assert getattr(positional, name) == getattr(other, name)
    # only the required arguments: the rest are the defaults
    required = [n for n, d in params(cls) if d is dataclasses.MISSING]
    args = samples(cls)[0][: len(required)]
    assert repr(cls(*args)) == repr(twin_cls(*args))


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_bad_calls(cls):
    twin_cls = twin(cls)
    args = samples(cls)[0]
    names = [n for n, _ in params(cls)]
    calls = [
        (args + ("extra",), {}),
        ((), {"no_such_field": 1}),
        (args, {"no_such_field": 1}),
        (args[1:], {}),
        (args[:1], {names[0]: args[0]} if names else {}),
        ((), {}),
    ]
    if len(names) > 2:
        calls.append(((), {names[-1]: args[-1]}))
    for a, kw in calls:
        got = outcome(lambda: cls(*a, **kw))
        want = outcome(lambda: twin_cls(*a, **kw))
        if got[0] == "ok":
            assert want[0] == "ok" and repr(got[1]) == repr(want[1])
        else:
            assert got == want


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_equality_and_hash(cls):
    twin_cls = twin(cls)
    first, second = samples(cls)[0], samples(cls)[-1]
    a, b, c = cls(*first), cls(*first), cls(*second)
    ta, tc = twin_cls(*first), twin_cls(*second)
    assert (a == b) is (ta == twin_cls(*first)) is True
    assert (a == c) is (ta == tc)
    assert (a != c) is (ta != tc)
    assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
    # no equality across classes, even with equal fields
    other = next(o for o in RECORDS if o is not cls)
    stranger = other(*samples(other)[0])
    assert a.__eq__(stranger) is NotImplemented
    assert ta.__eq__(twin(other)(*samples(other)[0])) is NotImplemented
    assert a != stranger and a != ta


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_frozen(cls):
    args = samples(cls)[0]
    for obj in (cls(*args), twin(cls)(*args)):
        before = repr(obj)
        for name in (*cls._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert repr(obj) == before


@pytest.mark.parametrize("cls", sorted(CHECKED, key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_post_init_errors(cls):
    for args, error in CHECKED[cls][1]:
        got = outcome(lambda: cls(*args))
        assert got == outcome(lambda: twin(cls)(*args))
        assert issubclass(got[0], error)


def test_composable_is_cached():
    # the product's keys, computed on first use: no field, no argument
    table = SemigroupoidTable(frozenset({"f", "g", "m"}), {("f", "g"): "m"})
    assert "composable" not in SemigroupoidTable._fields
    assert "composable" not in vars(table)
    assert table.composable == frozenset({("f", "g")})
    assert vars(table)["composable"] is table.composable
    with pytest.raises(TypeError, match="unexpected keyword argument 'composable'"):
        SemigroupoidTable(frozenset(), {}, composable=frozenset())


def test_default_order_is_checked():
    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
        class Bad(Record):
            a: int = 0
            b: int


def test_cached_properties(fix_c, fix_d):
    for table in (fix_c.table, fix_d.table, _table()):
        args = [getattr(table, n) for n in SemigroupoidTable._fields]
        mirror = twin(SemigroupoidTable)(*args)
        for name in ("composable", "followers"):
            assert getattr(SemigroupoidTable(*args), name) == getattr(mirror, name)
            assert getattr(mirror, name) == getattr(table, name)
            assert name in vars(table)
    for kg in (fix_c, fix_d):
        args = [getattr(kg, n) for n in KGraph._fields]
        assert KGraph(*args).slices == twin(KGraph)(*args).slices == kg.slices


def test_terms_share_the_frozen_base():
    term = Gen("a")
    rel = Relation("fam", term, term)
    for obj in (term, rel, RatMat.identity(1)):
        assert isinstance(obj, Frozen)
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError, match="cannot assign to field"):
            obj.x = 1
        with pytest.raises(AttributeError, match="cannot delete field"):
            del obj.x


def test_cli_import_loads_no_code_generators():
    # the interpreter is started without site, so only sgpd's own imports count
    root = Path(sgpd.__file__).resolve().parent.parent
    probe = (
        "import sys, sgpd.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={"PYTHONPATH": str(root)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
