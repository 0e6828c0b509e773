"""Analysis tests: validation, grouping, classification, index translation."""

import itertools

import pytest
from hypothesis import given, strategies as st

from nestfold.analysis import (
    AnalysisError,
    GroupContext,
    IApp,
    IVar,
    _sccs,
    analyze,
    classify,
    context_to_index,
    enumerate_indices,
    group_context,
    index_depth,
    render_index,
    subst_index,
    type_to_index,
    well_formed,
)
from nestfold.derivation import _carrier_type, _Names
from nestfold.parser import (
    Constructor,
    Program,
    TApp,
    TVar,
    TypeDecl,
    parse_program,
    parse_type_context,
    render_type_expr,
)
from nestfold.runtime import _encode_index
from nestfold.terms import Var, _v
from nestfold.values import Atom, VBase, VCon

from test_derivation import PROBES, SHAPES, SOURCES
from test_parser import BOBDYLAN, BUSH, LIST, SAMPLES


def _single(src):
    """The one group of src, and its context."""
    program = parse_program(src)
    (group,) = classify(program)
    return group, group_context(program, group)


def test_bush_is_a_nested_singleton():
    g, ctx = _single(BUSH)
    assert g.decls == ("Bush",)
    assert g.nested
    assert ctx.base_var_count == 1
    assert ctx.index_name == "BushIndex"
    assert ctx.var_ctors == ("varA",)
    assert ctx.app_ctor == {"Bush": "BushC"}


def test_list_is_ordinary():
    g, ctx = _single(LIST)
    assert not g.nested
    assert ctx.app_ctor == {"List": "ListC"}


def test_bobdylan_is_one_nested_group():
    g, ctx = _single(BOBDYLAN)
    assert g.decls == ("Bob", "Dylan")
    assert g.nested
    assert ctx.base_var_count == 2
    assert ctx.index_name == "BobDylanIndex"
    assert ctx.slot_letters == "AB"
    assert ctx.var_ctors == ("varA", "varB")
    assert ctx.app_ctor == {"Bob": "BobC", "Dylan": "DylanC"}
    assert ctx.decl_of_app == {"BobC": "Bob", "DylanC": "Dylan"}


def test_grouping_survives_declaration_reordering():
    flipped = BOBDYLAN.split("\n\n")
    g, ctx = _single("\n\n".join(reversed(flipped)))
    assert set(g.decls) == {"Bob", "Dylan"}
    assert g.nested
    assert ctx.base_var_count == 2


def test_independent_groups_with_dependency_come_out_dependencies_first():
    src = LIST + "\ndata Rose a where\n  rose : List (Rose a) -> Rose a\n"
    groups = classify(parse_program(src))
    assert [g.decls for g in groups] == [("List",), ("Rose",)]
    groups = classify(parse_program(
        "data Rose a where\n  rose : List (Rose a) -> Rose a\n" + LIST
    ))
    assert [g.decls for g in groups] == [("List",), ("Rose",)]


def test_classify_is_idempotent():
    program = parse_program(BOBDYLAN)
    assert classify(program) == classify(program)


def _recursive_sccs(names, edges):
    """Tarjan's algorithm as one recursion per node, the order _sccs keeps."""
    index, low, stack, out = {}, {}, [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in edges[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = [stack.pop()]
            while comp[-1] != v:
                comp.append(stack.pop())
            out.append(comp)

    for v in names:
        if v not in index:
            visit(v)
    return out


@given(st.lists(st.lists(st.integers(0, 7), max_size=4), min_size=1, max_size=8))
def test_sccs_come_out_as_the_recursion_orders_them(successors):
    names = [f"T{i}" for i in range(len(successors))]
    edges = {n: [names[w % len(names)] for w in ws] for n, ws in zip(names, successors)}
    assert _sccs(names, edges) == _recursive_sccs(names, edges)


# ---------------------------------------------------------------------------
# well_formed


def test_examples_are_well_formed():
    for src in (BUSH, LIST, BOBDYLAN):
        assert well_formed(parse_program(src)) == []


@pytest.mark.parametrize(
    "src, message, pos",
    [
        pytest.param(
            "data T a where\n  k : T a\ndata T a where\n  j : T a\n",
            "duplicate declaration name 'T'",
            (3, 1),
            id="duplicate-declaration",
        ),
        pytest.param(
            "data T a where\n  k : T a\n  k : a -> T a\n",
            "duplicate constructor 'k' in T",
            (3, 3),
            id="duplicate-constructor",
        ),
        pytest.param(
            "data T a where\n  k : T a\ndata U a where\n  k : U a\n",
            "constructor 'k' already declared by T",
            (4, 3),
            id="constructor-already-declared",
        ),
        pytest.param(
            "data T a where\n  k : Wrong a -> T a\n",
            "unknown type constructor Wrong",
            (2, 7),
            id="unknown-type-constructor",
        ),
        pytest.param(
            "data T a where\n  k : b -> T a\n",
            "unknown type parameter 'b'",
            (2, 7),
            id="unknown-type-parameter",
        ),
        pytest.param(
            "data T a where\n  k : T -> T a\n",
            "T expects 1 argument(s), got 0",
            (2, 7),
            id="too-few-arguments",
        ),
        pytest.param(
            "data T a where\n  k : T a a -> T a\n",
            "T expects 1 argument(s), got 2",
            (2, 7),
            id="too-many-arguments",
        ),
        pytest.param(
            "data T a where\n",
            "declaration T has no constructors",
            (1, 1),
            id="no-constructors",
        ),
        pytest.param(
            "data T a a where\n  k : T a a\n",
            "duplicate type parameter 'a' in T",
            (1, 10),
            id="duplicate-type-parameter",
        ),
    ],
)
def test_resolution_errors(src, message, pos):
    (d,) = well_formed(parse_program(src))
    assert d.message == message
    assert (d.line, d.col) == pos


def test_error_carries_position():
    (d,) = well_formed(parse_program("data T a where\n  k : Wrong -> T a\n", "t.ndt"))
    assert (d.line, d.col) == (2, 7)
    assert d.render() == "t.ndt:2:7: error: unknown type constructor Wrong"


def test_result_shape_rule():
    diags = well_formed(parse_program("data T a where\n  k : T (T a)\n"))
    assert len(diags) == 1
    assert "constructor result must be the declared head" in diags[0].message


def test_unknown_reference_on_handbuilt_ast():
    t = TypeDecl(
        "T",
        ("a",),
        (Constructor("k", (TApp("Tree", (TVar("a"),)),), TApp("T", (TVar("a"),))),),
    )
    diags = well_formed(Program((t,)))
    assert [d.message for d in diags] == ["unknown type constructor Tree"]


def test_well_formed_collects_every_error():
    t = TypeDecl(
        "T",
        ("a",),
        (
            Constructor("k", (TVar("b"),), TApp("T", (TVar("a"),))),
            Constructor("j", (), TApp("T", ())),
        ),
    )
    diags = well_formed(Program((t,)))
    messages = " | ".join(d.message for d in diags)
    assert "unknown type parameter 'b'" in messages
    assert "T expects 1 argument(s), got 0" in messages
    assert "constructor result must be" in messages
    assert len(diags) == 3


def test_analyze_raises_on_ill_formed():
    t = TypeDecl("T", ("a",), (Constructor("k", (), TApp("T", ())),))
    with pytest.raises(AnalysisError):
        analyze(Program((t,)))


def _nested_program(depth):
    """data T a with k : T a and s : T (T (... (T a))) -> T a, the argument
    type nesting depth applications, built by hand, past the reader."""
    arg = TVar("a")
    for _ in range(depth):
        arg = TApp("T", (arg,))
    own = TApp("T", (TVar("a"),))
    ctors = (Constructor("k", (), own), Constructor("s", (arg,), own))
    return Program((TypeDecl("T", ("a",), ctors),))


def test_analyze_refuses_a_hand_built_type_nested_past_the_readers_bound():
    # Unbounded, it would pass analyze and then overflow the recursion of
    # arg_templates and derive_group.
    with pytest.raises(AnalysisError) as refused:
        analyze(_nested_program(5000))
    assert [d.message for d in refused.value.diagnostics] == [
        "type nests too deeply: 5000 applications, at most 128"
    ]


def test_analyze_accepts_a_type_nested_as_deep_as_the_reader_reads():
    (ctx,) = analyze(_nested_program(128))
    assert index_depth(ctx.arg_templates["s"][0]) == 128
    text = "data T a where\n  k : T a\n  s : " + "T (" * 127 + "T a" + ")" * 127 + " -> T a\n"
    assert parse_program(text) == _nested_program(128)


# ---------------------------------------------------------------------------
# type_to_index


@pytest.fixture(scope="module")
def bush_ctx():
    (ctx,) = analyze(parse_program(BUSH))
    return ctx


@pytest.fixture(scope="module")
def bobdylan_ctx():
    (ctx,) = analyze(parse_program(BOBDYLAN))
    return ctx


def test_variable_translates_to_its_slot(bush_ctx):
    assert type_to_index(TVar("a"), ("a",), bush_ctx.app_ctor) == IVar(0)


def test_nested_application_translates_structurally(bush_ctx):
    t = TApp("Bush", (TApp("Bush", (TVar("a"),)),))
    assert type_to_index(t, ("a",), bush_ctx.app_ctor) == IApp(
        "BushC", (IApp("BushC", (IVar(0),)),)
    )


def test_mutual_translation_of_a_deep_argument(bobdylan_ctx):
    zim = bobdylan_ctx.decls["Bob"].ctor("zimmerman")
    idx = type_to_index(zim.args[0], ("a",), bobdylan_ctx.app_ctor)
    assert idx == IApp(
        "DylanC",
        (
            IApp("BobC", (IApp("DylanC", (IVar(0), IApp("BobC", (IVar(0),)))),)),
            IApp("BobC", (IVar(0),)),
        ),
    )
    assert render_index(idx, bobdylan_ctx) == (
        "DylanC (BobC (DylanC varA (BobC varA))) (BobC varA)"
    )


def test_cross_group_nesting_is_rejected():
    src = LIST + "\ndata Rose a where\n  rose : List (Rose a) -> Rose a\n"
    program = parse_program(src)
    rose = next(g for g in classify(program) if g.decls == ("Rose",))
    with pytest.raises(AnalysisError, match="cross-group nesting not supported in v1"):
        group_context(program, rose)


def test_arg_templates_cover_every_constructor(bobdylan_ctx):
    assert set(bobdylan_ctx.arg_templates) == {
        "robert",
        "zimmerman",
        "duluth",
        "minnesota",
    }
    assert bobdylan_ctx.arg_templates["duluth"] == (
        IApp("BobC", (IVar(0),)),
        IApp("BobC", (IVar(1),)),
    )


def test_ctors_at_places_arguments_at_their_indices(bobdylan_ctx):
    a, b = IVar(0), IVar(1)
    bob = lambda i: IApp("BobC", (i,))
    at = IApp("DylanC", (bob(a), b))
    assert bobdylan_ctx.ctors_at(at, "duluth") == (bob(bob(a)), bob(b))
    assert bobdylan_ctx.ctors_at(at, "minnesota") == (IApp("DylanC", (bob(bob(a)), bob(b))),)
    assert bobdylan_ctx.ctors_at(at, "robert") is None


def test_ctors_at_hands_out_one_object_per_index(monkeypatch):
    (ctx,) = analyze(parse_program(BUSH))
    bushc = lambda i: IApp("BushC", (i,))
    one = bushc(IVar(0))
    # BushC (BushC varA) as cons's second argument at depth 1, and as its
    # first argument at depth 3
    _, two = ctx.ctors_at(one, "cons")
    three = ctx.ctors_at(two, "cons")[1]
    assert three == bushc(bushc(bushc(IVar(0))))
    two_again, four = ctx.ctors_at(three, "cons")
    assert two_again is two
    # the first object asked about stands for its index from then on
    assert ctx.ctors_at(two, "cons")[0] is ctx.own_index("Bush") is one
    assert ctx.ctors_at(one, "cons")[0] is ctx.canonical(IVar(0))

    # the table is keyed by the objects it hands out: once filled, no
    # lookup compares indices by structure
    filled = {idx: ctx.ctors_at(idx, "cons") for idx in (two, three, four)}

    def no_compare(self, other):
        raise AssertionError("an index was compared by structure")

    monkeypatch.setattr(IApp, "__eq__", no_compare)
    for idx, at in filled.items():
        assert ctx.ctors_at(idx, "cons") is at


def test_an_index_is_hashed_once_at_construction():
    hashed = []

    class Probe:
        def __hash__(self):
            hashed.append(self)
            return 7

    e = IApp("BushC", (Probe(),))
    assert len(hashed) == 1
    assert hash(e) == hash(e) == hash(("BushC", e.args))
    assert {e: 1}[e] == 1
    assert len(hashed) == 2  # only the explicit hash of the argument tuple above
    assert repr(IApp("BushC", (IVar(0),))) == "IApp(ctor='BushC', args=(IVar(k=0),))"


# ---------------------------------------------------------------------------
# Index expressions


def test_bush_indices_biject_with_naturals(bush_ctx):
    t = TVar("a")
    for k in range(6):
        idx = type_to_index(t, ("a",), bush_ctx.app_ctor)
        assert index_depth(idx) == k
        t = TApp("Bush", (t,))


def test_enumerate_bush_indices(bush_ctx):
    got = enumerate_indices(bush_ctx, 3)
    expected = [IVar(0)]
    for _ in range(3):
        expected.append(IApp("BushC", (expected[-1],)))
    assert got == expected


def test_enumerate_bobdylan_counts(bobdylan_ctx):
    # e(d) counts expressions of depth <= d: e(0) = 2, e(d) = 2 + e + e^2
    assert len(enumerate_indices(bobdylan_ctx, 0)) == 2
    assert len(enumerate_indices(bobdylan_ctx, 1)) == 8
    assert len(enumerate_indices(bobdylan_ctx, 2)) == 74
    assert len(enumerate_indices(bobdylan_ctx, 3)) == 5552


def test_enumeration_is_deterministic_and_depth_sorted(bobdylan_ctx):
    xs = enumerate_indices(bobdylan_ctx, 2)
    assert xs == enumerate_indices(bobdylan_ctx, 2)
    assert [index_depth(e) for e in xs] == sorted(index_depth(e) for e in xs)
    assert len(set(xs)) == len(xs)


def _reference_indices(ctx, max_depth):
    """enumerate_indices by its first definition: tier d is the product over
    every shallower tier, filtered by index_depth == d."""
    by_depth = [[IVar(k) for k in range(ctx.base_var_count)]]
    for d in range(1, max_depth + 1):
        shallower = [e for tier in by_depth for e in tier]
        tier = []
        for name in ctx.group.decls:
            for combo in itertools.product(shallower, repeat=len(ctx.decls[name].params)):
                e = IApp(ctx.app_ctor[name], combo)
                if index_depth(e) == d:
                    tier.append(e)
        by_depth.append(tier)
    return [e for tier in by_depth for e in tier]


def _every_group():
    """(id, context) of every group of every sample that analyzes, and of
    every probe and near-miss shape."""
    sources = {p.stem: p.read_text() for p in sorted(SAMPLES.glob("*.ndt"))}
    for name, src in {**sources, **PROBES, **SHAPES}.items():
        try:
            ctxs = analyze(parse_program(src))
        except AnalysisError:
            continue
        yield from ((f"{name}:{ctx.name}", ctx) for ctx in ctxs)


#: The most candidate tuples a pinned tier may try: three-params at depth 2
#: tries 31^3 = 29,791.
_TIER_BUDGET = 30_000


#: The pinned depth of the shipped samples and of three-params.
_PINNED_DEPTHS = {"bush:Bush": 3, "list:List": 3, "bobdylan:BobDylan": 3, "three-params:T": 2}


def _pinned_depth(ctx):
    """The deepest depth up to 3 whose last tier tries at most _TIER_BUDGET
    tuples (depth 0 at least)."""
    depth, known = 0, ctx.base_var_count
    arities = [len(ctx.decls[d].params) for d in ctx.group.decls]
    while depth < 3 and sum(known**a for a in arities) <= _TIER_BUDGET:
        depth += 1
        known = len(_reference_indices(ctx, depth))
    return depth


EVERY_GROUP = list(_every_group())
GROUP_IDS = [n for n, _ in EVERY_GROUP]


@pytest.mark.parametrize("name, ctx", EVERY_GROUP, ids=GROUP_IDS)
def test_enumerate_indices_is_the_filtered_product(name, ctx):
    # Pinned, order included, at _pinned_depth.
    depth = _pinned_depth(ctx)
    assert depth == _PINNED_DEPTHS.get(name, depth)
    assert enumerate_indices(ctx, depth) == _reference_indices(ctx, depth)


# The eight recursions over index and type expressions by their first
# definitions, each a match on the node classes.  Each is now one algebra of
# fold_index or fold_type.


def _ref_subst_index(e, iargs):
    match e:
        case IVar(k):
            return iargs[k]
        case IApp(ctor, args):
            return IApp(ctor, tuple(_ref_subst_index(a, iargs) for a in args))
    raise AssertionError


def _ref_index_depth(e):
    match e:
        case IVar():
            return 0
        case IApp(_, args):
            return 1 + max((_ref_index_depth(a) for a in args), default=0)
    raise AssertionError


def _ref_render_index(e, ctx, atom=False):
    match e:
        case IVar(k):
            return ctx.var_ctors[k]
        case IApp(ctor, ()):
            return ctor
        case IApp(ctor, args):
            s = " ".join([ctor] + [_ref_render_index(a, ctx, atom=True) for a in args])
            return f"({s})" if atom else s
    raise AssertionError


def _ref_encode_index(e, ctx):
    match e:
        case IVar(k):
            return VBase(Atom(ctx.var_ctors[k]))
        case IApp(c, args):
            return VCon("@" + c, tuple(_ref_encode_index(a, ctx) for a in args))
    raise AssertionError


def _ref_index_term(nm, e, env):
    match e:
        case IVar(k):
            return env[k]
        case IApp(ctor, args):
            return _v(nm.index_head(ctor), *(_ref_index_term(nm, a, env) for a in args))
    raise AssertionError


def _ref_type_to_index(t, params, members):
    match t:
        case TVar(name):
            return IVar(params.index(name))
        case TApp(head, args):
            return IApp(members[head], tuple(_ref_type_to_index(a, params, members) for a in args))
    raise AssertionError


def _ref_carrier_type(t, carrier, params):
    match t:
        case TVar(name):
            return Var(params.get(name, name))
        case TApp(head, args):
            args = (_ref_carrier_type(a, carrier, params) for a in args)
            return _v(carrier.get(head, head), *args)
    raise AssertionError


def _ref_render_type_expr(t, atom=False):
    match t:
        case TVar(name, _):
            return name
        case TApp(head, (), _):
            return head
        case TApp(head, args, _):
            s = " ".join([head] + [_ref_render_type_expr(a, atom=True) for a in args])
            return f"({s})" if atom else s
    raise AssertionError


@pytest.mark.parametrize("name, ctx", EVERY_GROUP, ids=GROUP_IDS)
def test_the_folds_compute_the_recursions_they_replace(name, ctx):
    names = [_Names(ctx, nat) for nat in (False, True) if not nat or ctx.nat_index_eligible]
    for e in enumerate_indices(ctx, _pinned_depth(ctx)):
        assert index_depth(e) == _ref_index_depth(e)
        assert render_index(e, ctx) == _ref_render_index(e, ctx)
        assert _encode_index(e, ctx) == _ref_encode_index(e, ctx)
        for nm in names:
            env = {k: Var(f"s{k}") for k in range(ctx.base_var_count)}
            assert nm.index_term(e, env) == _ref_index_term(nm, e, env)
        if e.__class__ is IApp:
            for c in ctx.decls[ctx.decl_of_app[e.ctor]].ctors:
                for t in ctx.arg_templates[c.name]:
                    assert subst_index(t, e.args) == _ref_subst_index(t, e.args)
    for d, c in ctx.ctors():
        for t in (*c.args, c.result):
            assert type_to_index(t, d.params, ctx.app_ctor) == _ref_type_to_index(
                t, d.params, ctx.app_ctor
            )
            assert render_type_expr(t) == _ref_render_type_expr(t)
            for nm in names:
                renames = (nm.carriers, dict(zip(d.params, nm.base_types)))
                assert _carrier_type(t, *renames) == _ref_carrier_type(t, *renames)


def test_subst_index():
    e = IApp("DylanC", (IVar(0), IApp("BobC", (IVar(1),))))
    i, j = IApp("BobC", (IVar(0),)), IVar(1)
    assert subst_index(e, (i, j)) == IApp("DylanC", (i, IApp("BobC", (j,))))


@given(st.integers(0, 8), st.integers(0, 8))
def test_type_to_index_injective_on_bush_towers(m, n):
    program = parse_program(BUSH)
    (ctx,) = (group_context(program, g) for g in classify(program))

    def tower(k):
        t = TVar("a")
        for _ in range(k):
            t = TApp("Bush", (t,))
        return type_to_index(t, ("a",), ctx.app_ctor)

    assert (tower(m) == tower(n)) == (m == n)


# ---------------------------------------------------------------------------
# Type contexts -> indices


def test_context_to_index_bush(bush_ctx):
    program = bush_ctx.program
    ctx = parse_type_context("Bush (Bush Nat)", program)
    idx, universes = context_to_index(ctx, bush_ctx)
    assert idx == IApp("BushC", (IApp("BushC", (IVar(0),)),))
    assert universes == {0: "nat"}


def test_context_to_index_two_universes(bobdylan_ctx):
    ctx = parse_type_context("Dylan (Bob Nat) Atom", bobdylan_ctx.program)
    idx, universes = context_to_index(ctx, bobdylan_ctx)
    assert idx == IApp("DylanC", (IApp("BobC", (IVar(0),)), IVar(1)))
    assert universes == {0: "nat", 1: "atom"}


def test_context_to_index_repeated_universe_shares_a_variable(bobdylan_ctx):
    ctx = parse_type_context("Dylan Nat Nat", bobdylan_ctx.program)
    idx, universes = context_to_index(ctx, bobdylan_ctx)
    assert idx == IApp("DylanC", (IVar(0), IVar(0)))
    assert universes == {0: "nat", 1: "nat"}


def test_context_to_index_rejects_foreign_heads(bush_ctx):
    program = parse_program(BUSH + "\n" + LIST)
    ctxs = analyze(program)
    bush = next(c for c in ctxs if c.name == "Bush")
    foreign = parse_type_context("List Nat", program)
    with pytest.raises(AnalysisError, match="does not belong to group"):
        context_to_index(foreign, bush)


# ---------------------------------------------------------------------------
# Shape facts

#: (nat_index_eligible, spine_shape, list_shape, bush_shape) per source.
SHAPE_FACTS = {
    "bush": (True, ("leaf", "cons"), None, ("leaf", "cons")),
    "bush-b-c": (True, ("b", "c"), None, ("b", "c")),
    "bush-x-y": (True, ("x", "y"), None, ("x", "y")),
    "bush-p-q": (True, ("p", "q"), None, ("p", "q")),
    "bush-n-f": (True, ("n", "f"), None, ("n", "f")),
    "bush-hyp-tr": (True, ("hyp", "tr"), None, ("hyp", "tr")),
    "long-name": (True, ("leaf", "cons"), None, ("leaf", "cons")),
    "lists": (True, ("nil", "cc"), ("nil", "cc"), None),
    "t-s": (True, ("t", "s"), ("t", "s"), None),
    "bobdylan": (False, None, None, None),
    "two-params": (False, None, None, None),
    "three-params": (False, None, None, None),
    "four-params": (False, None, None, None),
    "five-params": (False, None, None, None),
    "six-params": (False, ("m0", "m1"), None, None),
    "nine-params": (False, ("m0", "m1"), None, None),
    "twenty-six-params": (False, ("m0", "m1"), None, None),
    "no-params": (False, None, None, None),
    "XYW": (False, None, None, None),
    "XY-x0-x1-y": (False, None, None, None),
    "swapped-bush": (True, ("nil", "cons"), None, None),
    "two-param-list": (False, ("nil", "cons"), ("nil", "cons"), None),
    "tree": (True, None, None, None),
}


@pytest.mark.parametrize("which", SHAPE_FACTS)
def test_shape_facts(which):
    (ctx,) = analyze(parse_program({**SOURCES, **SHAPES}[which]))
    facts = (ctx.nat_index_eligible, ctx.spine_shape, ctx.list_shape, ctx.bush_shape)
    assert facts == SHAPE_FACTS[which]


def test_shape_facts_cover_every_source():
    assert SHAPE_FACTS.keys() == {**SOURCES, **SHAPES}.keys()
