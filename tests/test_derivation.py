"""Derivation tests.

Expected shapes are pinned as explicit ASTs: clause counts follow the
one-clause-per-(index constructor x value constructor) rule, and the
load-bearing bodies (the fold's recursive calls, the bridge definitions)
are written out in full so a drift in the builder shows up as a diff here.
"""

import gc
import re
import string

import pytest

from nestfold.analysis import analyze
from nestfold.derivation import (
    _Names,
    derive_data_decls,
    derive_group,
    derive_hfold,
    derive_ind,
    derive_index_decl,
    derive_interp,
    derive_map,
    derive_nfold,
    derive_ps_bridge,
)
from nestfold.diagnostics import AnalysisError, DerivationError
from nestfold.emitter import emit_agda, module_for_group
from nestfold.parser import parse_program
from nestfold.terms import (
    App,
    Binder,
    Clause,
    DerivedDef,
    Lam,
    PCon,
    Pi,
    PVar,
    Var,
    ind_erases_to_nfold,
    recursion_witnesses,
)

from test_parser import BOBDYLAN, BUSH, LIST, SAMPLES


def _permuting(n: int) -> str:
    """A declaration with n parameters whose constructor reverses them."""
    ps = " ".join(string.ascii_lowercase[:n])
    rev = " ".join(reversed(ps.split()))
    return f"data M ({ps} : Set) : Set where\n  m0 : M {ps}\n  m1 : a -> M {rev} -> M {ps}\n"


def _bush_like(leaf: str, cons: str, name: str = "T") -> str:
    return (
        f"data {name} (a : Set) : Set where\n  {leaf} : {name} a\n"
        f"  {cons} : a -> {name} ({name} a) -> {name} a\n"
    )


# Declarations beyond the samples that every eligible mode must derive.  The
# later ones are named like the binders a derivation would otherwise use.
PROBES = {
    "two-params": (
        "data T (a b : Set) : Set where\n  tn : T a b\n"
        "  tk : a -> T b a -> T (T a b) b -> T a b\n"
    ),
    "three-params": (
        "data T (a b c : Set) : Set where\n  tn : T a b c\n"
        "  tk : a -> T b c a -> T (T a b c) b c -> T a b c\n"
    ),
    "four-params": (
        "data T (a b c d : Set) : Set where\n  tn : T a b c d\n"
        "  tk : a -> T b c d a -> T (T a b c d) b c d -> T a b c d\n"
    ),
    "five-params": (
        "data T (a b c d e : Set) : Set where\n  tn : T a b c d e\n"
        "  tk : a -> T b c d e a -> T (T a b c d e) b c d e -> T a b c d e\n"
    ),
    "no-params": "data N : Set where\n  z : N\n  s : N -> N\n",
    "XYW": (
        "data X (a : Set) : Set where\n  xn : X a\n  xk : a -> Y a -> X a\n\n"
        "data Y (a : Set) : Set where\n  ym : Y a\n  yj : W a -> Y a\n\n"
        "data W (a : Set) : Set where\n  wm : W a\n  wj : X (W a) -> W a\n"
    ),
    "t-s": "data T (a : Set) : Set where\n  t : T a\n  s : a -> T a -> T a\n",
    "six-params": _permuting(6),
    "nine-params": _permuting(9),
    # as wide as the index universe goes; no test runs its suite, whose
    # depth-2 index family does not finish enumerating
    "twenty-six-params": _permuting(26),
    **{f"bush-{l}-{c}": _bush_like(l, c) for l, c in ["bc", "xy", "pq", "nf", ("hyp", "tr")]},
    "long-name": _bush_like("leaf", "cons", "Loooooooooooooooooooong"),
    "XY-x0-x1-y": (
        "data X (a : Set) : Set where\n  x0 : X a\n  x1 : a -> Y a -> X a\n\n"
        "data Y (a : Set) : Set where\n  y : X a -> Y a\n"
    ),
}
SOURCES = {"bush": BUSH, "lists": LIST, "bobdylan": BOBDYLAN, **PROBES}
# The Bush-shaped ones among them.
BUSHES = ["bush", "bush-b-c", "bush-x-y", "bush-p-q", "bush-n-f", "bush-hyp-tr", "long-name"]

# Near misses of the bush and list shapes.
SHAPES = {
    "swapped-bush": "data B (a : Set) : Set where\n  nil : B a\n  cons : B (B a) -> a -> B a\n",
    "two-param-list": (
        "data L (a b : Set) : Set where\n  nil : L a b\n  cons : a -> L a b -> L a b\n"
    ),
    "tree": (
        "data Tree (a : Set) : Set where\n  leaf : Tree a\n"
        "  node : Tree a -> a -> Tree a -> Tree a\n"
    ),
}


def _ctx(which: str):
    """The one group of a named source, or of the source text itself."""
    (ctx,) = analyze(parse_program(SOURCES.get(which, which)))
    return ctx


def _modes(sources: dict[str, str]) -> list[tuple[bool, str]]:
    """Every (nat, name) pair whose group the mode accepts."""
    return [
        (nat, which)
        for which in sources
        for nat in (False, True)
        if not nat or _ctx(which).nat_index_eligible
    ]


@pytest.fixture(scope="module")
def bush():
    return analyze(parse_program(BUSH))[0]


@pytest.fixture(scope="module")
def lists():
    return analyze(parse_program(LIST))[0]


@pytest.fixture(scope="module")
def bobdylan():
    return analyze(parse_program(BOBDYLAN))[0]


def _ap(head, *args):
    return App(Var(head), tuple(args))


NFOLD_BUSH_PREFIX = ("p", "l", "c", "a", "z")
NFOLD_BD_PREFIX = (
    "p",
    "robert'",
    "zimmerman'",
    "duluth'",
    "minnesota'",
    "a",
    "b",
    "baseA",
    "baseB",
)


# ---------------------------------------------------------------------------
# Index declaration


def test_index_decl_bobdylan(bobdylan):
    d = derive_index_decl(_Names(bobdylan, False))
    assert d.name == "BobDylanIndex"
    assert d.data is not None and d.data.params == ()
    names = [n for n, _ in d.data.ctors]
    assert names == ["varA", "varB", "BobC", "DylanC"]
    idx = Var("BobDylanIndex")
    assert d.data.ctors[0][1] == idx
    assert d.data.ctors[2][1] == Pi((idx, idx))
    assert d.data.ctors[3][1] == Pi((idx, idx, idx))


def test_index_decl_bush_general_and_nat(bush):
    d = derive_index_decl(_Names(bush, False))
    assert d.name == "BushIndex"
    assert [n for n, _ in d.data.ctors] == ["varA", "BushC"]
    n = derive_index_decl(_Names(bush, True))
    assert n.name == "Nat"
    assert [c for c, _ in n.data.ctors] == ["zero", "succ"]
    assert n.data.ctors[1][1] == Pi((Var("Nat"), Var("Nat")))


def test_index_decl_list(lists):
    d = derive_index_decl(_Names(lists, False))
    assert d.name == "ListIndex"
    assert [n for n, _ in d.data.ctors] == ["varA", "ListC"]


def test_nat_index_eligibility(bush, lists, bobdylan):
    assert bush.nat_index_eligible
    assert lists.nat_index_eligible
    assert not bobdylan.nat_index_eligible


# ---------------------------------------------------------------------------
# Source data declarations


def test_data_decls_bush(bush):
    (d,) = derive_data_decls(bush)
    assert d.name == "Bush" and not d.data.forward
    assert d.data.params == ("a",)
    leaf, cons = d.data.ctors
    assert leaf == ("leaf", _ap("Bush", Var("a")))
    assert cons == (
        "cons",
        Pi((Var("a"), _ap("Bush", _ap("Bush", Var("a"))), _ap("Bush", Var("a")))),
    )


def test_data_decls_bobdylan_are_forward(bobdylan):
    bob, dylan = derive_data_decls(bobdylan)
    assert bob.name == "Bob" and dylan.name == "Dylan"
    assert bob.data.forward and dylan.data.forward
    assert dylan.data.params == ("a", "b")
    zim = dict(bob.data.ctors)["zimmerman"]
    assert isinstance(zim, Pi) and len(zim.segments) == 3


# ---------------------------------------------------------------------------
# Interpretation function


def test_interp_nat_mode_is_ntimes(bush):
    d = derive_interp(_Names(bush, True))
    assert d.name == "NTimes"
    assert d.signature == Pi(
        (
            Binder(("n",), Var("Nat")),
            Binder(("b",), Pi((Var("Set"), Var("Set")))),
            Var("Set"),
            Var("Set"),
        )
    )
    zero, succ = d.clauses
    assert zero.patterns == (PCon("zero"), PVar("b"), PVar("a"))
    assert zero.body == Var("a")
    assert succ.patterns == (PCon("succ", (PVar("n"),)), PVar("b"), PVar("a"))
    assert succ.body == _ap("b", _ap("NTimes", Var("n"), Var("b"), Var("a")))


def test_interp_general_bobdylan(bobdylan):
    d = derive_interp(_Names(bobdylan, False))
    assert d.name == "I"
    assert len(d.clauses) == 4
    rec = lambda e: _ap("I", Var("bob"), Var("dylan"), Var("a"), Var("b"), e)
    assert d.clauses[0].body == Var("a")
    assert d.clauses[1].body == Var("b")
    assert d.clauses[2].patterns[-1] == PCon("BobC", (PVar("expr"),))
    assert d.clauses[2].body == _ap("bob", rec(Var("expr")))
    assert d.clauses[3].patterns[-1] == PCon("DylanC", (PVar("expr1"), PVar("expr2")))
    assert d.clauses[3].body == _ap("dylan", rec(Var("expr1")), rec(Var("expr2")))


# ---------------------------------------------------------------------------
# nfold


def test_nfold_bush_nat_clauses(bush):
    d = derive_nfold(_Names(bush, True))
    assert len(d.clauses) == 3
    lead = tuple(PVar(v) for v in NFOLD_BUSH_PREFIX)
    zero, leaf, cons = d.clauses
    assert zero.patterns == lead + (PCon("zero"), PVar("x"))
    assert zero.body == _ap("z", Var("x"))
    assert leaf.patterns == lead + (PCon("succ", (PVar("n"),)), PCon("leaf"))
    assert leaf.body == _ap("l", Var("n"))
    assert cons.patterns == lead + (
        PCon("succ", (PVar("n"),)),
        PCon("cons", (PVar("x"), PVar("xs"))),
    )
    args = tuple(Var(v) for v in NFOLD_BUSH_PREFIX)
    assert cons.body == _ap(
        "c",
        Var("n"),
        _ap("nfold", *args, Var("n"), Var("x")),
        _ap("nfold", *args, _ap("succ", _ap("succ", Var("n"))), Var("xs")),
    )


def test_nfold_bush_nat_signature(bush):
    d = derive_nfold(_Names(bush, True))
    nat, set_ = Var("Nat"), Var("Set")
    p = lambda ix: _ap("p", ix)
    sn = _ap("succ", Var("n"))
    assert d.signature == Pi(
        (
            Binder(("p",), Pi((nat, set_))),
            Binder(("l",), Pi((Binder(("n",), nat), p(sn)))),
            Binder(("c",), Pi((Binder(("n",), nat), p(Var("n")), p(_ap("succ", sn)), p(sn)))),
            Binder(("a",), set_),
            Binder(("z",), Pi((Var("a"), p(Var("zero"))))),
            Binder(("n",), nat),
            _ap("NTimes", Var("n"), Var("Bush"), Var("a")),
            p(Var("n")),
        )
    )


def test_nfold_bobdylan_methods_and_clauses(bobdylan):
    d = derive_nfold(_Names(bobdylan, False))
    named = [s.names[0] for s in d.signature.segments if isinstance(s, Binder)]
    assert named == ["p", "robert'", "zimmerman'", "duluth'", "minnesota'", "a", "baseA", "baseB", "i"]
    # the zimmerman method quantifies one index and takes two results
    zim = next(s for s in d.signature.segments if isinstance(s, Binder) and s.names == ("zimmerman'",))
    i = Var("i")
    bc = lambda e: _ap("BobC", e)
    assert zim.type == Pi(
        (
            Binder(("i",), Var("BobDylanIndex")),
            _ap("p", _ap("DylanC", bc(_ap("DylanC", i, bc(i))), bc(i))),
            _ap("p", bc(_ap("DylanC", i, i))),
            _ap("p", bc(i)),
        )
    )
    assert len(d.clauses) == 6
    lead = tuple(PVar(v) for v in NFOLD_BD_PREFIX)
    assert d.clauses[0].patterns == lead + (PCon("varA"), PVar("x"))
    assert d.clauses[0].body == _ap("baseA", Var("x"))
    rob = d.clauses[2]
    assert rob.patterns == lead + (PCon("BobC", (PVar("i"),)), PCon("robert", (PVar("x"),)))
    args = tuple(Var(v) for v in NFOLD_BD_PREFIX)
    assert rob.body == _ap("robert'", i, _ap("nfold", *args, i, Var("x")))
    dul = d.clauses[4]
    assert dul.patterns == lead + (
        PCon("DylanC", (PVar("i"), PVar("j"))),
        PCon("duluth", (PVar("x1"), PVar("x2"))),
    )
    assert dul.body == _ap(
        "duluth'",
        i,
        Var("j"),
        _ap("nfold", *args, bc(i), Var("x1")),
        _ap("nfold", *args, bc(Var("j")), Var("x2")),
    )


def test_nfold_trailer_interprets_with_real_types(bobdylan):
    d = derive_nfold(_Names(bobdylan, False))
    assert d.signature.segments[-2] == _ap(
        "I", Var("Bob"), Var("Dylan"), Var("a"), Var("b"), Var("i")
    )
    assert d.signature.segments[-1] == _ap("p", Var("i"))


def test_nfold_list_nat_method_names_avoid_reserved(lists):
    d = derive_nfold(_Names(lists, True))
    named = [s.names[0] for s in d.signature.segments if isinstance(s, Binder)]
    # "nil" starts with the reserved index variable letter, so it keeps its name
    assert named == ["p", "nil'", "c", "a", "z", "n"]
    cc = d.clauses[2]
    args = tuple(Var(v) for v in ("p", "nil'", "c", "a", "z"))
    assert cc.body == _ap(
        "c",
        Var("n"),
        _ap("nfold", *args, Var("n"), Var("x")),
        _ap("nfold", *args, _ap("succ", Var("n")), Var("xs")),
    )


@pytest.mark.parametrize(
    "which,count",
    [("bush", 3), ("lists", 3), ("bobdylan", 6)],
)
def test_clause_count_is_vars_plus_ctors(which, count, request):
    ctx = request.getfixturevalue(which)
    assert len(derive_nfold(_Names(ctx, False)).clauses) == count
    assert len(derive_ind(_Names(ctx, False)).clauses) == count


# ---------------------------------------------------------------------------
# Induction principle


def test_ind_bush_nat_matches_shape(bush):
    d = derive_ind(_Names(bush, True))
    segs = d.signature.segments
    assert segs[0] == Binder(("a",), Var("Set"), implicit=True)
    assert isinstance(segs[1], Binder) and segs[1].names == ("p",) and segs[1].implicit
    named = [s.names[0] for s in segs if isinstance(s, Binder)]
    assert named == ["a", "p", "base", "l", "c", "n", "xs"]
    zero, leaf, cons = d.clauses
    assert zero.patterns == (PVar("base"), PVar("l"), PVar("c"), PCon("zero"), PVar("xs"))
    assert zero.body == _ap("base", Var("xs"))
    assert leaf.body == _ap("l", Var("n"))
    rec = lambda ix, v: _ap("ind", Var("base"), Var("l"), Var("c"), ix, v)
    assert cons.body == _ap(
        "c",
        Var("n"),
        Var("x"),
        Var("xs"),
        rec(Var("n"), Var("x")),
        rec(_ap("succ", _ap("succ", Var("n"))), Var("xs")),
    )


def test_ind_methods_take_values_and_hypotheses(bobdylan):
    d = derive_ind(_Names(bobdylan, False))
    rob = next(
        s for s in d.signature.segments if isinstance(s, Binder) and s.names == ("robert'",)
    )
    interp = lambda ix: _ap("I", Var("Bob"), Var("Dylan"), Var("a"), Var("b"), ix)
    assert rob.type == Pi(
        (
            Binder(("i",), Var("BobDylanIndex")),
            Binder(("x",), interp(Var("i"))),
            _ap("p", Var("i"), Var("x")),
            _ap("p", _ap("BobC", Var("i")), _ap("robert", Var("x"))),
        )
    )
    rob_clause = d.clauses[2]
    lead = tuple(
        PVar(v)
        for v in ("robert'", "zimmerman'", "duluth'", "minnesota'", "baseA", "baseB")
    )
    assert rob_clause.patterns == lead + (
        PCon("BobC", (PVar("i"),)),
        PCon("robert", (PVar("x"),)),
    )
    args = tuple(Var(p.name) for p in lead)
    assert rob_clause.body == _ap(
        "robert'", Var("i"), Var("x"), _ap("ind", *args, Var("i"), Var("x"))
    )


@pytest.mark.parametrize("nat,which", _modes(SOURCES))
def test_ind_erases_to_nfold(which, nat):
    ctx = _ctx(which)
    ind = derive_ind(_Names(ctx, nat))
    nfold = derive_nfold(_Names(ctx, nat))
    assert ind_erases_to_nfold(ctx, ind, nfold) == []


# ---------------------------------------------------------------------------
# Map


def test_nmap_bush_nat(bush):
    d = derive_map(_Names(bush, True))
    assert d.name == "nmap"
    (clause,) = d.clauses
    assert clause.patterns == (
        PVar("a", implicit=True),
        PVar("b", implicit=True),
        PVar("n"),
        PVar("f"),
        PVar("l"),
    )
    assert clause.body == _ap(
        "nfold",
        Lam(("n",), _ap("NTimes", Var("n"), Var("Bush"), Var("b"))),
        Lam(("n",), Var("leaf")),
        Lam(("n",), Var("cons")),
        Var("a"),
        Var("f"),
        Var("n"),
        Var("l"),
    )


def test_nmap_bobdylan_two_functions(bobdylan):
    d = derive_map(_Names(bobdylan, False))
    (clause,) = d.clauses
    imp = [p.name for p in clause.patterns if isinstance(p, PVar) and p.implicit]
    assert imp == ["a", "b", "a'", "b'"]
    assert clause.body == _ap(
        "nfold",
        Lam(("i",), _ap("I", Var("Bob"), Var("Dylan"), Var("a'"), Var("b'"), Var("i"))),
        Lam(("i",), Var("robert")),
        Lam(("i",), Var("zimmerman")),
        Lam(("i", "j"), Var("duluth")),
        Lam(("i", "j"), Var("minnesota")),
        Var("a"),
        Var("b"),
        Var("f"),
        Var("g"),
        Var("i"),
        Var("x"),
    )


# ---------------------------------------------------------------------------
# Higher-order folds


def test_hfold_bush_nat(bush):
    (d,) = derive_hfold(_Names(bush, True))
    assert d.name == "hfold"
    named = [s.names[0] for s in d.signature.segments if isinstance(s, Binder)]
    assert named == ["b", "l", "c", "a"]
    (clause,) = d.clauses
    assert clause.patterns == tuple(PVar(v) for v in ("b", "l", "c", "a", "x"))
    nt = _ap("NTimes", Var("n"), Var("b"), Var("a"))
    assert clause.body == _ap(
        "nfold",
        Lam(("n",), nt),
        Lam(("n",), _ap("l", nt)),
        Lam(("n",), _ap("c", nt)),
        Var("a"),
        Lam(("x",), Var("x")),
        _ap("succ", Var("zero")),
        Var("x"),
    )


def test_hfold_bobdylan_pair(bobdylan):
    hb, hd = derive_hfold(_Names(bobdylan, False))
    assert hb.name == "hfold-bob" and hd.name == "hfold-dylan"
    # methods are read off the declarations, quantifying the decl parameters
    dul = next(
        s for s in hb.signature.segments if isinstance(s, Binder) and s.names == ("duluth'",)
    )
    assert dul.type == Pi(
        (
            Binder(("a", "b"), None),
            _ap("bob", Var("a")),
            _ap("bob", Var("b")),
            _ap("dylan", Var("a"), Var("b")),
        )
    )
    # hfold-bob folds a Bob a; its trailer quantifies just Bob's parameter
    assert hb.signature.segments[-3] == Binder(("a",), None)
    assert hb.signature.segments[-2] == _ap("Bob", Var("a"))
    assert hb.signature.segments[-1] == _ap("bob", Var("a"))
    (clause,) = hd.clauses
    interp = lambda ix: _ap("I", Var("bob"), Var("dylan"), Var("a"), Var("b"), ix)
    assert clause.body == _ap(
        "nfold",
        Lam(("i",), interp(Var("i"))),
        Lam(("i",), _ap("robert'", interp(Var("i")))),
        Lam(("i",), _ap("zimmerman'", interp(Var("i")))),
        Lam(("i", "j"), _ap("duluth'", interp(Var("i")), interp(Var("j")))),
        Lam(("i", "j"), _ap("minnesota'", interp(Var("i")), interp(Var("j")))),
        Var("a"),
        Var("b"),
        Lam(("x",), Var("x")),
        Lam(("x",), Var("x")),
        _ap("DylanC", Var("varA"), Var("varB")),
        Var("x"),
    )


def test_hfold_bob_instantiates_missing_base_with_own_parameter(bobdylan):
    hb, _ = derive_hfold(_Names(bobdylan, False))
    (clause,) = hb.clauses
    # Bob has one parameter; the group's second base slot reuses it
    assert clause.body.args[5] == Var("a")
    assert clause.body.args[6] == Var("a")
    assert clause.body.args[9] == _ap("BobC", Var("varA"))


# ---------------------------------------------------------------------------
# PS bridge


def test_ps_bridge_bush_nat(bush):
    defs = derive_ps_bridge(_Names(bush, True))
    assert [d.name for d in defs] == ["PS", "PS-to-P", "fold-PS", "liftNTimes", "nfold'"]
    ps, pstop, foldps, lift, nfoldp = defs

    (ps_clause,) = ps.clauses
    assert ps_clause.patterns == (PVar("p"), PVar("A"))
    assert ps_clause.body == Pi(
        (
            Binder(("n",), Var("Nat")),
            Pi((Var("A"), _ap("p", Var("n")))),
            _ap("p", _ap("succ", Var("n"))),
        )
    )

    succ_clause = pstop.clauses[1]
    assert succ_clause.body == _ap("hyp", Var("n"), Var("ih"))
    (where,) = succ_clause.wheres
    assert where.name == "ih"
    assert where.clauses[0].patterns == ()
    assert where.clauses[0].body == _ap("PS-to-P", Var("p"), Var("a"), Var("z"), Var("n"))

    (fp_clause,) = foldps.clauses
    assert len(fp_clause.patterns) == 3  # partially applied, like the fold it wraps
    assert fp_clause.body == _ap(
        "hfold",
        _ap("PS", Var("p")),
        Lam(("a", "n", "tr"), _ap("l", Var("n"))),
        Lam(
            ("a", "x", "xs", "n", "tr"),
            _ap(
                "c",
                Var("n"),
                _ap("tr", Var("x")),
                _ap("xs", _ap("succ", Var("n")), Lam(("f",), _ap("f", Var("n"), Var("tr")))),
            ),
        ),
    )

    step = lift.clauses[1]
    assert step.patterns[3] == PCon("succ", (PVar("n"),))
    assert step.body == _ap(
        "f",
        _ap("NTimes", Var("n"), Var("c"), Var("a")),
        _ap(
            "m",
            _ap("NTimes", Var("n"), Var("b"), Var("a")),
            _ap("NTimes", Var("n"), Var("c"), Var("a")),
            _ap("liftNTimes", Var("b"), Var("c"), Var("m"), Var("n"), Var("f"), Var("a")),
            Var("x"),
        ),
    )

    assert nfoldp.signature == derive_nfold(_Names(bush, True)).signature
    (np_clause,) = nfoldp.clauses
    assert np_clause.body == _ap(
        "PS-to-P", Var("p"), Var("a"), Var("z"), Var("n"), _ap("lift", Var("n"), Var("x"))
    )
    (lift_def,) = np_clause.wheres
    assert lift_def.clauses[0].body == _ap(
        "liftNTimes",
        Var("Bush"),
        _ap("PS", Var("p")),
        Lam(("a", "b"), Var("hmap")),
        Var("n"),
        _ap("fold-PS", Var("p"), Var("l"), Var("c")),
        Var("a"),
        Var("x"),
    )


def test_ps_bridge_general_mode_uses_index_constructors(bush):
    defs = derive_ps_bridge(_Names(bush, False))
    ps = defs[0]
    assert ps.clauses[0].body == Pi(
        (
            Binder(("i",), Var("BushIndex")),
            Pi((Var("A"), _ap("p", Var("i")))),
            _ap("p", _ap("BushC", Var("i"))),
        )
    )
    nfoldp = defs[4]
    (lift_def,) = nfoldp.clauses[0].wheres
    assert lift_def.clauses[0].body.args[4] == _ap("fold-PS", Var("p"), Var("leaf'"), Var("cons'"))


#: A bush that declares cons before leaf: every signature binds its methods
#: in declaration order, so cons's comes first.
CONS_FIRST = "data B (a : Set) : Set where\n  cons : a -> B (B a) -> B a\n  leaf : B a\n"


def _params(sig):
    """The name each argument position of sig binds, None where it binds none."""
    *doms, _ = sig.segments
    return [n for s in doms for n in (s.names if isinstance(s, Binder) else [None])]


def _calls(t, name):
    """Every application of name in the term t."""
    if isinstance(t, App):
        if t.fn == Var(name):
            yield t
        for u in (t.fn, *t.args):
            yield from _calls(u, name)
    elif isinstance(t, Lam):
        yield from _calls(t.body, name)


def _with_wheres(d):
    """d, then the definitions of its where blocks."""
    yield d
    for cl in d.clauses:
        for w in cl.wheres:
            yield from _with_wheres(w)


@pytest.mark.parametrize("nat", [False, True], ids=["general", "nat"])
@pytest.mark.parametrize("src", [BUSH, CONS_FIRST], ids=["leaf-first", "cons-first"])
def test_the_bridge_follows_its_signatures_method_order(src, nat):
    ctx = _ctx(src)
    nm = _Names(ctx, nat)
    defs = {d.name: d for d in derive_group(ctx, nat).defs}
    methods = [nm.method[c.name] for _, c in ctx.ctors()]
    hfold = defs[nm.hfold[ctx.group.decls[0]]]
    assert _params(defs["fold-PS"].signature)[1:3] == methods == _params(hfold.signature)[1:3]
    calls = []
    for top in ("PS", "PS-to-P", "fold-PS", "liftNTimes", "nfold'"):
        for d in _with_wheres(defs[top]):
            params = _params(d.signature)
            for cl in d.clauses:
                # a pattern variable binds the name its signature binds there
                for q, want in zip(cl.patterns, params):
                    assert not isinstance(q, PVar) or want in (None, q.name), (d.name, q)
                calls += [("fold-PS", [a.name for a in c.args]) for c in _calls(cl.body, "fold-PS")]
                # each lambda hfold is handed calls the method hfold binds there
                calls += [
                    ("hfold", [lam.body.fn.name for lam in c.args[1:]])
                    for c in _calls(cl.body, hfold.name)
                ]
    assert calls == [("hfold", methods), ("fold-PS", [nm.p, *methods])]


# ---------------------------------------------------------------------------
# Structural-recursion certificate


def test_recursion_witnesses(bush, bobdylan):
    assert recursion_witnesses(derive_nfold(_Names(bush, True))) == ("x", "xs")
    assert recursion_witnesses(derive_interp(_Names(bush, True))) == ("n",)
    assert recursion_witnesses(derive_ind(_Names(bush, True))) == ("x", "xs")
    assert recursion_witnesses(derive_map(_Names(bush, True))) == ()
    assert recursion_witnesses(derive_nfold(_Names(bobdylan, False))) == ("x", "x1", "x2")
    assert recursion_witnesses(derive_interp(_Names(bobdylan, False))) == ("expr", "expr1", "expr2")


def test_bridge_witnesses_include_where_blocks(bush):
    defs = derive_ps_bridge(_Names(bush, True))
    by_name = {d.name: d for d in defs}
    assert recursion_witnesses(by_name["PS-to-P"]) == ("n",)
    assert recursion_witnesses(by_name["liftNTimes"]) == ("n",)
    assert recursion_witnesses(by_name["nfold'"]) == ()


def test_certificate_rejects_unguarded_recursion():
    bad = DerivedDef(
        name="spin",
        role="diverges",
        signature=Pi((Var("Nat"), Var("Nat"))),
        clauses=(
            Clause((PVar("n"),), App(Var("spin"), (Var("n"),))),
        ),
    )
    with pytest.raises(DerivationError, match="strict subterm"):
        recursion_witnesses(bad)


def test_certificate_rejects_constructed_argument():
    bad = DerivedDef(
        name="grow",
        role="diverges",
        signature=Pi((Var("Nat"), Var("Nat"))),
        clauses=(
            Clause(
                (PCon("succ", (PVar("n"),)),),
                App(Var("grow"), (App(Var("succ"), (App(Var("succ"), (Var("n"),)),)),)),
            ),
        ),
    )
    with pytest.raises(DerivationError, match="strict subterm"):
        recursion_witnesses(bad)


# ---------------------------------------------------------------------------
# Group assembly


def test_group_bush_nat_order(bush):
    g = derive_group(bush, nat_index=True)
    assert g.name == "Bush"
    assert [d.name for d in g.defs] == [
        "Nat",
        "Bush",
        "NTimes",
        "nfold",
        "nmap",
        "hmap",
        "ind",
        "hfold",
        "PS",
        "PS-to-P",
        "fold-PS",
        "liftNTimes",
        "nfold'",
    ]
    assert g.notes == ()


def test_group_bobdylan_order_and_skip_note(bobdylan):
    g = derive_group(bobdylan)
    assert g.name == "BobDylan"
    assert [d.name for d in g.defs] == [
        "BobDylanIndex",
        "Bob",
        "Dylan",
        "I",
        "nfold",
        "nmap",
        "ind",
        "hfold-bob",
        "hfold-dylan",
    ]
    assert g.notes == ("PS bridge: skipped (PS bridge not derivable for this shape)",)


def test_group_list_general_gets_hmap_and_skip(lists):
    g = derive_group(lists)
    names = [d.name for d in g.defs]
    assert "hmap" in names and "hfold-list" in names
    assert g.notes == ("PS bridge: skipped (PS bridge not derivable for this shape)",)


def test_group_is_deterministic(bush, bobdylan):
    assert derive_group(bush, nat_index=True) == derive_group(bush, nat_index=True)
    assert derive_group(bobdylan) == derive_group(bobdylan)


def test_nat_index_rejected_for_mutual_groups(bobdylan):
    with pytest.raises(DerivationError, match="one declaration with one parameter"):
        derive_group(bobdylan, nat_index=True)


def test_every_emitted_def_is_certified():
    for nat, which in _modes(SOURCES):
        for d in derive_group(_ctx(which), nat_index=nat).defs:
            if d.data is None:
                recursion_witnesses(d)  # raises on failure


def _binders(t, out: set[str]) -> None:
    """Add to out every name that t binds."""
    match t:
        case App(fn, args):
            for s in (fn, *args):
                _binders(s, out)
        case Lam(params, body):
            out.update(params)
            _binders(body, out)
        case Pi(segments):
            for s in segments:
                if isinstance(s, Binder):
                    out.update(s.names)
                    _binders(s.type, out)
                else:
                    _binders(s, out)


def _def_binders(d: DerivedDef, out: set[str]) -> None:
    _binders(d.signature, out)
    for cl in d.clauses:
        stack = list(cl.patterns)
        while stack:
            match stack.pop():
                case PVar(name, _):
                    out.add(name)
                case PCon(_, args):
                    stack.extend(args)
        _binders(cl.body, out)
        for w in cl.wheres:
            out.add(w.name)
            _def_binders(w, out)


# Every sample and probe, in every mode its group accepts: the module passes
# the emitter's scope checks, is ASCII within 80 columns (header included) and
# is derived the same twice; test_ind_erases_to_nfold checks the erasure.
@pytest.mark.parametrize("nat,which", _modes(SOURCES))
def test_every_probe_derives_a_valid_module(which, nat):
    group = derive_group(_ctx(which), nat_index=nat)
    text = emit_agda(module_for_group(group))
    assert text.isascii()
    assert [line for line in text.splitlines() if len(line) > 80] == []
    assert emit_agda(module_for_group(derive_group(_ctx(which), nat_index=nat))) == text
    # no binder is named like a data type, constructor or definition of the module
    top = {d.name for d in group.defs} | {c for d in group.defs if d.data for c, _ in d.data.ctors}
    bound: set[str] = set()
    for d in group.defs:
        if d.data is None:
            _def_binders(d, bound)
    assert bound & top == set()


@pytest.mark.parametrize("which", ["bush", "lists", "bobdylan"])
def test_derive_group_builds_its_names_once(which, request, monkeypatch):
    calls = []
    init = _Names.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(_Names, "__init__", counted)
    derive_group(request.getfixturevalue(which))
    assert len(calls) == 1


def test_nat_method_names_skip_the_constructor_names():
    src = BUSH.replace("cons", "k")
    nm = _Names(_ctx(src), True)
    assert nm.method == {"leaf": "l", "k": "k'"}
    assert "nfold p l k' a z (succ n) (k x xs) =" in _module(src, True).splitlines()


def test_nat_methods_take_the_letters_no_shared_name_holds():
    # f, m, i and j were once reserved for every nat method; no nat-mode
    # definition binds them beside the methods, so mk and fo get m and f, and
    # fold-PS's continuation variable steps aside to f'
    src = "data T (a : Set) : Set where\n  mk : T a\n  fo : a -> T (T a) -> T a\n"
    assert _Names(_ctx(src), True).method == {"mk": "m", "fo": "f"}
    lines = _module(src, True).splitlines()
    assert "fold-PS p m f =" in lines
    assert "    (\\ a x xs n tr -> f n (tr x) (xs (succ n) (\\ f' -> f' n tr)))" in lines


@pytest.mark.parametrize(
    "src, line",
    [
        # the carrier j would capture hfold-a's second index variable
        (
            "data A (a b : Set) : Set where\n  an : A a b\n  ak : J a b -> A a b\n\n"
            "data J (a b : Set) : Set where\n  jn : J a b\n  jk : A (J a b) b -> J a b\n",
            "    (\\ i j -> ak' (I a' j' a b i) (I a' j' a b j))",
        ),
        # the carrier nfold would shadow the fold that hfold-nfold calls
        (_bush_like("leaf", "cons", "Nfold"), "hfold-nfold nfold'' leaf' cons' a x ="),
    ],
    ids=["J", "Nfold"],
)
def test_a_carrier_steps_aside_for_index_variables_and_derived_names(src, line):
    assert line in _module(src, False).splitlines()


# ---------------------------------------------------------------------------
# Source parameter names never reach the derived definitions


def _renamed(src: str, renaming: dict[str, str]) -> str:
    """src with its one-letter type parameters renamed (comments untouched)."""
    return "".join(
        line if line.startswith("--")
        else re.sub(r"\b[a-z]\b", lambda m: renaming.get(m[0], m[0]), line)
        for line in src.splitlines(keepends=True)
    )


def _module(src: str, nat: bool) -> str:
    (ctx,) = analyze(parse_program(src))
    return emit_agda(module_for_group(derive_group(ctx, nat_index=nat)))


def _outside_source_data(text: str, decls: tuple[str, ...]) -> list[str]:
    """The module's lines, without the blocks that restate the source data types."""
    out, restating = [], False
    for line in text.splitlines():
        if any(line.startswith(f"data {d} ") for d in decls):
            restating = True
        elif not line:
            restating = False
        if not restating:
            out.append(line)
    return out


def _assert_only_data_lines_differ(src: str, renaming: dict[str, str], nat: bool) -> None:
    decls = tuple(d.name for d in parse_program(src).decls)
    before, after = _module(src, nat), _module(_renamed(src, renaming), nat)
    assert before != after
    assert _outside_source_data(after, decls) == _outside_source_data(before, decls)


@pytest.mark.parametrize("nat", [False, True], ids=["general", "nat"])
@pytest.mark.parametrize("name", ["b", "x", "n", "l", "i", "p", "z", "nfold"])
def test_bush_parameter_name_reaches_only_the_data_lines(name, nat):
    _assert_only_data_lines_differ(BUSH, {"a": name}, nat)


@pytest.mark.parametrize(
    "renaming",
    [{"a": "x", "b": "i"}, {"a": "b", "b": "a"}, {"a": "p", "b": "nfold"}],
    ids=["x-i", "swapped", "p-nfold"],
)
def test_bobdylan_parameter_names_reach_only_the_data_lines(renaming):
    _assert_only_data_lines_differ(BOBDYLAN, renaming, False)


def test_interp_carriers_avoid_the_base_type_names():
    (ctx,) = analyze(parse_program("data A (a : Set) : Set where\n  mk : a -> A a\n"))
    interp = derive_interp(_Names(ctx, False))
    for cl in interp.clauses:
        bound = [p.name for p in cl.patterns if isinstance(p, PVar)]
        assert len(bound) == len(set(bound)), cl
    assert interp.clauses[0] == Clause((PVar("a'"), PVar("a"), PCon("varA")), Var("a"))
    assert "I a' a varA = a\n" in _module("data A (a : Set) : Set where\n  mk : a -> A a\n", False)


def _derive_every_sample() -> None:
    for path in sorted(SAMPLES.glob("*.ndt")):
        try:
            ctxs = analyze(parse_program(path.read_text()))
        except AnalysisError:
            continue
        for ctx in ctxs:
            for nat in {False, ctx.nat_index_eligible}:
                emit_agda(module_for_group(derive_group(ctx, nat_index=nat)))


def test_deriving_every_sample_leaves_no_cyclic_garbage():
    # A recursive local closure refers to itself, so each call of its
    # enclosing function would leave a reference cycle, and every derived
    # term it reached, for the cyclic collector.
    _derive_every_sample()  # warm-up: first-use caches are not garbage
    gc.collect()
    gc.disable()
    try:
        _derive_every_sample()
        assert gc.collect() == 0
    finally:
        gc.enable()
