"""Every record: its positional fields, its repr, its equality and hash, and
that it cannot be changed."""

import importlib
import re
from pathlib import Path

import pytest

from nestfold.analysis import GroupContext, IApp, IVar, MutualGroup, analyze
from nestfold.diagnostics import Diagnostic, Record
from nestfold.emitter import EmitModule
from nestfold.parser import Constructor, Program, TApp, TVar, TypeDecl, parse_program
from nestfold.properties import Counterexample, PropertyResult, SuiteReport
from nestfold.runtime import Algebra, HAlgebra
from nestfold.terms import (
    App,
    Binder,
    Clause,
    DataDecl,
    DerivedDef,
    DerivedGroup,
    Lam,
    PCon,
    Pi,
    PVar,
    Var,
)
from nestfold.values import Atom, VBase, VCon

ROOT = Path(__file__).resolve().parent.parent

#: Each record class's positional fields, which class patterns read.
MATCH_ARGS = {
    Diagnostic: ("message", "line", "col", "file"),
    TVar: ("name", "pos"),
    TApp: ("head", "args", "pos"),
    Constructor: ("name", "args", "result", "pos"),
    TypeDecl: ("name", "params", "ctors", "pos"),
    Program: ("decls", "source"),
    Atom: ("name",),
    VBase: ("payload", "pos"),
    VCon: ("ctor", "args", "pos"),
    IVar: ("k",),
    IApp: ("ctor", "args"),
    MutualGroup: ("decls", "nested"),
    GroupContext: ("program", "group"),
    Var: ("name",),
    App: ("fn", "args"),
    Lam: ("params", "body"),
    Binder: ("names", "type", "implicit"),
    Pi: ("segments",),
    PVar: ("name", "implicit"),
    PCon: ("head", "args"),
    Clause: ("patterns", "body", "wheres"),
    DataDecl: ("params", "ctors", "forward"),
    DerivedDef: ("name", "role", "signature", "clauses", "data"),
    DerivedGroup: ("name", "defs", "notes"),
    EmitModule: ("name", "defs", "notes"),
    Algebra: ("name", "bases", "methods"),
    HAlgebra: ("name", "methods", "finish"),
    Counterexample: ("prop", "index", "value", "algebra", "lhs", "rhs"),
    PropertyResult: ("name", "cases", "distinct", "counterexample"),
    SuiteReport: ("group", "max_size", "results"),
}

LIST = (ROOT / "samples" / "list.ndt").read_text()
_T = TApp("T", (TVar("a", (1, 9)),), (1, 7))
_CTOR = Constructor("k", (TVar("a", (2, 7)),), _T, (2, 3))


def _sig():
    return Pi((Binder(("a",), Var("Set"), True), Var("a")))


def _clause():
    return Clause((PVar("x"), PCon("k", (PVar("y", True),))), App(Var("f"), (Lam(("z",), Var("z")),)))


def _def():
    return DerivedDef("f", "fold", _sig(), (_clause(),))


def _result():
    return PropertyResult("nfold", 3, 2, Counterexample("nfold", "varA", "leaf", "sum", "1", "2"))


def _samples(pos):
    """A new record of every class, with pos (and every other position) at pos."""
    params = ("a", "b")
    return [
        Diagnostic("duplicate constructor", 3, 5, "x.ndt"),
        TVar("a", pos),
        TApp("T", (TVar("a", pos),), pos),
        Constructor("k", (TVar("a", pos),), TApp("T", (TVar("a"),)), pos),
        TypeDecl("T", params, (_CTOR,), pos, (pos, pos)),
        Program((TypeDecl("T", ("a",), (_CTOR,), pos),), "t.ndt"),
        Atom("x"),
        VBase(4, pos),
        VCon("cons", (VBase(1, pos), VCon("nil", (), pos)), pos),
        IVar(1),
        IApp("BushC", (IApp("BushC", (IVar(0),)),)),
        MutualGroup(("Bob", "Dylan"), True),
        analyze(parse_program(LIST))[0],
        Var("x"),
        App(Var("f"), (Var("x"),)),
        Lam(("x",), Var("x")),
        Binder(("a", "b"), Var("Set"), True),
        _sig(),
        PVar("x", True),
        PCon("k", (PVar("x"),)),
        _clause(),
        DataDecl(("a",), (("k", Var("T")),), True),
        _def(),
        DerivedGroup("T", (_def(),), ("a note",)),
        EmitModule("T", (_def(),), ("a note",)),
        Algebra("sum", {0: abs}, {"k": max}),
        HAlgebra("rebuild", {"k": max}, abs),
        _result().counterexample,
        _result(),
        SuiteReport("T", 4, (_result(),)),
    ]


def test_every_record_class_is_listed():
    for m in ("analysis", "emitter", "parser", "properties", "runtime", "terms", "values"):
        importlib.import_module(f"nestfold.{m}")
    assert set(Record.__subclasses__()) == set(MATCH_ARGS)
    assert [type(r) for r in _samples(None)] == list(MATCH_ARGS)


@pytest.mark.parametrize("cls", MATCH_ARGS, ids=lambda c: c.__name__)
def test_match_args_are_the_positional_fields(cls):
    assert cls.__match_args__ == MATCH_ARGS[cls]


@pytest.mark.parametrize(
    "a, b", zip(_samples((1, 1)), _samples((7, 3))), ids=lambda r: type(r).__name__
)
def test_equality_and_hash_ignore_positions(a, b):
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert not a != b


@pytest.mark.parametrize("r", _samples(None), ids=lambda r: type(r).__name__)
def test_every_field_is_frozen(r):
    for name in {*MATCH_ARGS[type(r)], *getattr(r, "__slots__", ()), "other"}:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)


@pytest.mark.parametrize("r", _samples(None), ids=lambda r: type(r).__name__)
def test_a_record_equals_no_tuple_of_its_fields(r):
    assert r != tuple(getattr(r, n) for n in MATCH_ARGS[type(r)])


def test_records_of_two_classes_differ():
    assert TVar("a") != Var("a")
    assert PVar("a") != Var("a")
    assert IVar(0) != VBase(0)


def test_each_compared_field_is_compared():
    assert TApp("T", (TVar("a"),)) != TApp("T", (TVar("b"),))
    assert TApp("T") != TApp("U")
    assert VCon("k", (VBase(1),)) != VCon("k", (VBase(2),))
    assert VBase(1) != VBase(Atom("1"))
    assert IApp("C", (IVar(0),)) != IApp("C", (IVar(1),))
    assert Diagnostic("m", 1, 2) != Diagnostic("m", 1, 3)
    assert TypeDecl("T", ("a",), ()) != TypeDecl("T", ("b",), ())
    assert Binder(("a",), None) != Binder(("a",), None, True)


def test_algebras_compare_by_name():
    assert Algebra("sum", {}, {}) == Algebra("sum", {0: abs}, {"k": max})
    assert hash(Algebra("sum", {}, {})) == hash(Algebra("sum", {0: abs}, {}))
    assert HAlgebra("a", {}, abs) == HAlgebra("a", {"k": max}, max)
    assert Algebra("sum", {}, {}) != Algebra("depth", {}, {})


def test_class_patterns_read_the_positional_fields():
    match TApp("T", (TVar("a"),), (1, 7)):
        case TApp(head, args, pos):
            assert (head, args, pos) == ("T", (TVar("a"),), (1, 7))
    match IApp("C", (IVar(0),)):
        case IApp(ctor, (IVar(k),)):
            assert (ctor, k) == ("C", 0)


def test_a_type_declaration_keeps_each_parameters_position():
    (d,) = parse_program("data T (a b : Set) c : Set where\n  k : T a b c\n").decls
    assert d.param_pos == ((1, 9), (1, 11), (1, 20))
    assert "param_pos" not in repr(d)


def test_reprs_are_unchanged():
    value = VCon("cons", (VBase(4, (1, 2)), VBase(Atom("x")), VCon("nil")), (1, 1))
    assert repr(value) == (
        "VCon(ctor='cons', args=(VBase(payload=4), VBase(payload=Atom(name='x')), "
        "VCon(ctor='nil', args=())))"
    )
    t = TApp("Bush", (TApp("Bush", (TVar("a", (1, 9)),), (1, 4)),), (1, 1))
    assert repr(t) == "TApp(head='Bush', args=(TApp(head='Bush', args=(TVar(name='a'),)),))"
    assert repr(Diagnostic("duplicate constructor", 3, 5, "x.ndt")) == (
        "Diagnostic(message='duplicate constructor', line=3, col=5, file='x.ndt')"
    )
    assert repr(Diagnostic("no position")) == (
        "Diagnostic(message='no position', line=None, col=None, file=None)"
    )
    assert repr(PropertyResult("map-identity", 40, 12)) == (
        "PropertyResult(name='map-identity', cases=40, distinct=12, counterexample=None)"
    )
    assert repr(_result()) == (
        "PropertyResult(name='nfold', cases=3, distinct=2, counterexample=Counterexample("
        "prop='nfold', index='varA', value='leaf', algebra='sum', lhs='1', rhs='2'))"
    )
    assert repr(_def()) == (
        "DerivedDef(name='f', role='fold', signature=Pi(segments=(Binder(names=('a',), "
        "type=Var(name='Set'), implicit=True), Var(name='a'))), clauses=(Clause(patterns="
        "(PVar(name='x', implicit=False), PCon(head='k', args=(PVar(name='y', implicit=True),"
        "))), body=App(fn=Var(name='f'), args=(Lam(params=('z',), body=Var(name='z')),)), "
        "wheres=()),), data=None)"
    )


#: The records that write their own __init__: IApp computes its hash, and
#: GroupContext has no slots.
HAND_WRITTEN = {IApp, GroupContext}

_BUILT = [r for r in _samples((1, 1)) if type(r) not in HAND_WRITTEN]


def _fields(r):
    return {n: getattr(r, n) for n in type(r).__slots__}


@pytest.mark.parametrize("r", _BUILT, ids=lambda r: type(r).__name__)
def test_positional_and_keyword_construction_agree(r):
    cls, fields = type(r), _fields(r)
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword == r
    assert _fields(by_position) == _fields(by_keyword) == fields


@pytest.mark.parametrize("r", _BUILT, ids=lambda r: type(r).__name__)
def test_left_out_fields_read_back_their_defaults(r):
    cls, values = type(r), list(_fields(r).values())
    required = len(values) - len(cls._defaults)
    built = cls(*values[:required])
    assert tuple(_fields(built).values())[required:] == cls._defaults
    assert tuple(_fields(built).values())[:required] == tuple(values[:required])


@pytest.mark.parametrize("r", _BUILT, ids=lambda r: type(r).__name__)
def test_a_wrong_argument_count_is_refused(r):
    cls, values = type(r), list(_fields(r).values())
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[: len(values) - len(cls._defaults) - 1])
    with pytest.raises(TypeError):
        cls(*values, **{cls.__slots__[0]: values[0]})


@pytest.mark.parametrize("cls", MATCH_ARGS, ids=lambda c: c.__name__)
def test_the_constructor_is_named_for_its_class(cls):
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


def test_only_two_records_write_their_own_constructor():
    """Record builds every other __init__ from source it compiles, not in a
    module file; and no module keeps a field setter for one."""
    written = {c for c in MATCH_ARGS if c.__init__.__code__.co_filename.endswith(".py")}
    assert written == HAND_WRITTEN
    for path in sorted((ROOT / "src" / "nestfold").glob("*.py")):
        module = importlib.import_module(f"nestfold.{path.stem}".removesuffix(".__init__"))
        assert not hasattr(module, "_set"), path.name
        text = path.read_text()
        assert not re.search(r"\b_set\b", text), path.name
        aliases = [ln for ln in text.splitlines() if ".__set__" in ln and not ln.startswith(" ")]
        assert all(ln.startswith("_iapp_") for ln in aliases), aliases
