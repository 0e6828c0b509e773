"""Runtime tests.

Every derived expectation here is checked two ways: against an independent
oracle written directly over the Value tree (flatten-and-add, spine count,
foldList, naive depth), and against the frozen number the oracle produced
when this suite was written.  The frozen copies keep silent oracle drift
from going unnoticed.
"""

import gc
import itertools
import json
import weakref
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from nestfold.analysis import IApp, IVar, analyze, index_depth, render_index, subst_index
from nestfold.diagnostics import EvalError, GuardExceeded
from nestfold.parser import parse_program
from nestfold.values import Atom, VBase, VCon, parse_value_literal, render_value, value_size
from nestfold.runtime import (
    NAT_MAX,
    Algebra,
    RFun,
    apply_result,
    as_value,
    catalogue,
    enumerate_values,
    eval_hfold_direct,
    eval_hfold_via_nfold,
    eval_hmap_direct,
    eval_ind,
    eval_map,
    eval_nfold,
    eval_nfold_prime,
    fold_tape,
    halg_catalogue,
    nat_add,
    nat_of,
    nat_succ,
    pool_set,
    prepare_ind,
    prepare_lift,
    prepare_map,
    prepare_map_over,
    prepare_nfold,
    prepare_ps_to_p,
    typecheck_value,
    wrap,
)
import nestfold.properties as properties
import nestfold.runtime as runtime
from nestfold.properties import (
    Folds,
    _ignore_values,
    _pool,
    _suite_indices,
    _values,
    check_equivalence,
)

from test_derivation import PROBES
from test_parser import BOBDYLAN, BUSH, DEEP_BUSH, LIST, SAMPLES, _bush_values


def _cases(ctx, indices, max_size):
    """The (idx, value, row) of every value of the suite's chunks (_values)."""
    return [
        (idx, v, row)
        for idx, values, rows, _ in _values(ctx, indices, max_size)
        for v, row in zip(values, rows)
    ]


@pytest.fixture(scope="module")
def bush():
    (ctx,) = analyze(parse_program(BUSH))
    return ctx


@pytest.fixture(scope="module")
def lists():
    (ctx,) = analyze(parse_program(LIST))
    return ctx


@pytest.fixture(scope="module")
def bobdylan():
    (ctx,) = analyze(parse_program(BOBDYLAN))
    return ctx


@pytest.fixture(scope="module")
def bush1(bush):
    return parse_value_literal(DEEP_BUSH, bush.program, bush.decls["Bush"])


def bushc(k):
    idx = IVar(0)
    for _ in range(k):
        idx = IApp("BushC", (idx,))
    return idx


NAT_KINDS = {0: "nat"}
POOL3 = {0: (VBase(0), VBase(1), VBase(2))}


# ---------------------------------------------------------------------------
# Independent oracles


def flatten_add(v):
    """Sum of every natural anywhere in the tree."""
    match v:
        case VBase(int() as n):
            return n
        case VBase(_):
            raise AssertionError("non-natural payload in a sum oracle")
        case VCon(_, args):
            return sum(flatten_add(a) for a in args)


def top_spine_length(v):
    """Number of cons cells along the top-level spine."""
    match v:
        case VCon("cons", (_, tail)):
            return 1 + top_spine_length(tail)
        case _:
            return 0


def naive_depth(v):
    match v:
        case VBase(_):
            return 0
        case VCon(_, ()):
            return 0
        case VCon(_, args):
            return 1 + max(naive_depth(a) for a in args)


def fold_list(base, step, v):
    match v:
        case VCon("nil", ()):
            return base
        case VCon("cc", (x, xs)):
            return step(x, fold_list(base, step, xs))
    raise AssertionError


def add_one(v):
    assert isinstance(v, VBase) and isinstance(v.payload, int)
    return VBase(v.payload + 1)


def bump_every_natural(v):
    match v:
        case VBase(int() as n):
            return VBase(n + 1)
        case VBase(_):
            return v
        case VCon(c, args):
            return VCon(c, tuple(bump_every_natural(a) for a in args))


# ---------------------------------------------------------------------------
# typecheck_value


def test_typecheck_accepts_the_deep_literal(bush, bush1):
    assert typecheck_value(bush, bushc(1), NAT_KINDS, bush1)[0] == []


def test_typecheck_rejects_base_at_constructor_index(bush):
    diags, _ = typecheck_value(bush, bushc(1), NAT_KINDS, VBase(4))
    assert len(diags) == 1 and "expected a Bush constructor" in diags[0].message


def test_typecheck_rejects_constructor_at_base_index(bush):
    diags, _ = typecheck_value(bush, IVar(0), NAT_KINDS, VCon("leaf"))
    assert [d.message for d in diags] == ["expected a natural, found constructor 'leaf'"]


def test_typecheck_universe_kinds(bush):
    assert typecheck_value(bush, IVar(0), {0: "atom"}, VBase(Atom("x")))[0] == []
    diags, _ = typecheck_value(bush, IVar(0), {0: "atom"}, VBase(3))
    assert diags and "atom" in diags[0].message


def test_typecheck_walks_every_slot(bush):
    v = VCon("cons", (VCon("leaf"), VCon("cons", (VBase(1), VCon("leaf")))))
    # payload slot is wrong (leaf at varA) and the tail's payload slot is
    # wrong too (a bare natural where a Bush Nat belongs)
    diags, _ = typecheck_value(bush, bushc(1), NAT_KINDS, v)
    assert len(diags) == 2


@pytest.mark.parametrize(
    "v, message",
    [
        (VCon("cons", (VBase(1),), (2, 5)), "cons takes 2 argument(s), got 1"),
        (VCon("leaf", (VBase(1),), (2, 5)), "leaf takes 0 argument(s), got 1"),
    ],
)
def test_typecheck_refuses_a_node_of_the_wrong_arity(bush, v, message):
    # A hand-built node that no literal could give: one positioned
    # diagnostic in the parser's wording, and nothing placed below it.
    diags, tape = typecheck_value(bush, bushc(1), NAT_KINDS, v)
    assert [(d.message, d.line, d.col) for d in diags] == [(message, 2, 5)]
    assert tape == []
    wrapped = VCon("cons", (VBase(7), VCon("cons", (v, VCon("leaf")))))
    diags, tape = typecheck_value(bush, bushc(1), NAT_KINDS, wrapped)
    assert [d.message for d in diags] == [message]
    assert all(w is not v for _, w in tape) and (IVar(0), VBase(7)) in tape


def test_typecheck_mutual(bobdylan):
    v = parse_value_literal(
        "duluth (robert 1) (robert 'x)", bobdylan.program, bobdylan.decls["Dylan"]
    )
    idx = IApp("DylanC", (IVar(0), IVar(1)))
    assert typecheck_value(bobdylan, idx, {0: "nat", 1: "atom"}, v)[0] == []
    flipped = IApp("DylanC", (IVar(1), IVar(0)))
    assert typecheck_value(bobdylan, flipped, {0: "nat", 1: "atom"}, v)[0] != []


@pytest.mark.parametrize(
    "src, head, idx, kinds, text, expected",
    [
        (
            BUSH,
            "Bush",
            IApp("BushC", (IVar(0),)),
            NAT_KINDS,
            "[ [ 1 ], 2,\n  [ 'x, [ 3 ], leaf ],\n  cons 4 leaf, 'y ]\n",
            [
                ("expected a natural, found constructor 'cons'", 1, 3),
                ("expected a Bush constructor, found base value 2", 1, 10),
                ("expected a Bush constructor, found base value 'x", 2, 5),
                ("expected a Bush constructor, found base value 3", 2, 11),
                ("expected a Bush constructor, found base value 4", 3, 8),
                ("expected a Bush constructor, found base value 'y", 3, 16),
            ],
        ),
        (
            BOBDYLAN,
            "Dylan",
            IApp("DylanC", (IVar(0), IVar(1))),
            {0: "nat", 1: "atom"},
            "duluth\n  (robert (duluth 1 2))\n  (zimmerman (robert 1) (minnesota (robert 3)))\n",
            [
                ("expected a natural, found constructor 'duluth'", 2, 12),
                ("expected a Dylan constructor, found 'robert'", 3, 15),
                ("expected a Bob constructor, found 'minnesota'", 3, 26),
            ],
        ),
        (
            BOBDYLAN,
            "Dylan",
            IApp("DylanC", (IVar(0), IVar(1))),
            {0: "nat", 1: "atom"},
            "duluth (robert 'a) (robert 7)",
            [("expected a natural, found 'a", 1, 16), ("expected an atom, found 7", 1, 28)],
        ),
    ],
    ids=["bush", "bobdylan-constructors", "bobdylan-universes"],
)
def test_typecheck_reports_every_error_in_pre_order(src, head, idx, kinds, text, expected):
    (ctx,) = analyze(parse_program(src))
    v = parse_value_literal(text, ctx.program, ctx.decls[head])
    diags, _ = typecheck_value(ctx, idx, kinds, v)
    assert [(d.message, d.line, d.col) for d in diags] == expected


def test_tape_lists_every_node_in_post_order(bush):
    v = parse_value_literal("[ 1, [ 2 ] ]", bush.program, bush.decls["Bush"])
    diags, tape = typecheck_value(bush, bushc(1), NAT_KINDS, v)
    assert diags == []
    assert [(i, render_value(w)) for i, w in tape] == [
        (bushc(0), "1"),
        (bushc(0), "2"),
        (bushc(2), "leaf"),
        (bushc(1), "cons 2 leaf"),
        (bushc(3), "leaf"),
        (bushc(2), "cons (cons 2 leaf) leaf"),
        (bushc(1), "cons 1 (cons (cons 2 leaf) leaf)"),
    ]


def test_fold_tape_reports_the_leftmost_overflow_first(lists):
    # Both the head and the tail overflow, by different operands: the head's
    # methods run first, as in eval_nfold.
    top = NAT_MAX
    v = parse_value_literal(f"[[{top}, 1], [{top}, 2]]", lists.program, lists.decls["List"])
    idx = IApp("ListC", (IApp("ListC", (IVar(0),)),))
    diags, tape = typecheck_value(lists, idx, NAT_KINDS, v)
    assert diags == []
    msg = f"natural overflow: {top} \\+ 1 exceeds 64 bits"
    with pytest.raises(EvalError, match=msg):
        eval_nfold(lists, catalogue(lists)["sum"], idx, v)
    with pytest.raises(EvalError, match=msg):
        fold_tape(lists, catalogue(lists)["sum"], tape)


@pytest.mark.parametrize("src", [BUSH, LIST, BOBDYLAN], ids=["bush", "list", "bobdylan"])
def test_fold_tape_agrees_with_eval_nfold(src):
    (ctx,) = analyze(parse_program(src))
    kinds = {k: "nat" for k in range(ctx.base_var_count)}
    algs = catalogue(ctx).values()
    cases = 0
    for idx, v, _ in _cases(ctx, _suite_indices(ctx), 5):
        diags, tape = typecheck_value(ctx, idx, kinds, v)
        assert diags == []
        for alg in algs:
            assert fold_tape(ctx, alg, tape) == eval_nfold(ctx, alg, idx, v)
            cases += 1
    assert cases > 100


@pytest.mark.parametrize(
    "drop, message",
    [
        ("base", "algebra is missing base functions for slots [0]"),
        ("method", "algebra is missing a method for constructor cons"),
    ],
)
def test_an_incomplete_algebra_is_rejected_by_every_fold(bush, bush1, drop, message):
    full = catalogue(bush)["sum"]
    bases, methods = dict(full.bases), dict(full.methods)
    if drop == "base":
        del bases[0]
    else:
        del methods["cons"]
    alg = Algebra("partial", bases=bases, methods=methods)
    diags, tape = typecheck_value(bush, bushc(1), NAT_KINDS, bush1)
    assert diags == []
    folds = [
        lambda: eval_nfold(bush, alg, bushc(1), bush1),
        lambda: eval_ind(bush, _ignore_values(alg), bushc(1), bush1),
        lambda: fold_tape(bush, alg, tape),
        # a prepared fold is refused before it is given any row
        lambda: prepare_nfold(bush, alg, []),
        lambda: prepare_ind(bush, _ignore_values(alg), []),
        lambda: prepare_ps_to_p(bush, alg),
    ]
    if drop == "base":
        folds.append(lambda: prepare_map(bush, bases, []))
    for fold in folds:
        with pytest.raises(EvalError) as raised:
            fold()
        assert str(raised.value) == message
    recursive = [
        lambda v: eval_nfold(bush, full, bushc(1), v),
        lambda v: eval_ind(bush, _ignore_values(full), bushc(1), v),
        lambda v: eval_map(bush, {0: lambda w: w}, bushc(1), v),
    ]
    for fold in recursive:
        with pytest.raises(EvalError, match="^value 4 does not inhabit a Bush index$"):
            fold(VBase(4))


def _render_reference(v, atom=False):
    """render_value as one recursion, the definition it must keep."""
    match v:
        case VBase(payload):
            return str(payload)
        case VCon(ctor, ()):
            return ctor
        case VCon(ctor, args):
            s = " ".join([ctor] + [_render_reference(a, atom=True) for a in args])
            return f"({s})" if atom else s


@given(_bush_values, st.booleans())
def test_render_value_agrees_with_the_recursive_reference(v, atom):
    assert render_value(v, atom) == _render_reference(v, atom)


# ---------------------------------------------------------------------------
# eval_nfold and the catalogue


def test_sum_of_the_deep_literal_is_34(bush, bush1):
    alg = catalogue(bush)["sum"]
    assert flatten_add(bush1) == 34
    assert eval_nfold(bush, alg, bushc(1), bush1) == 34


def test_length_of_the_deep_literal_is_4(bush, bush1):
    alg = catalogue(bush)["length"]
    assert top_spine_length(bush1) == 4
    assert eval_nfold(bush, alg, bushc(1), bush1) == 4


def test_sum_of_the_empty_bush_is_0(bush):
    v = parse_value_literal("[ ]", bush.program, bush.decls["Bush"])
    assert eval_nfold(bush, catalogue(bush)["sum"], bushc(1), v) == 0


def test_base_index_dispatches_to_the_base_function(bush):
    alg = catalogue(bush)["sum"]
    assert eval_nfold(bush, alg, IVar(0), VBase(5)) == 5


def test_depth_of_the_deep_literal_is_9(bush, bush1):
    alg = catalogue(bush)["depth"]
    assert naive_depth(bush1) == 9
    assert eval_nfold(bush, alg, bushc(1), bush1) == 9


def test_trace_discriminates_values(bush):
    alg = catalogue(bush)["trace"]
    pool = enumerate_values(bush, bushc(1), POOL3, 4)
    traces = [eval_nfold(bush, alg, bushc(1), v) for v in pool]
    assert len(set(traces)) == len(pool)


def test_sum_on_a_mutual_value(bobdylan):
    # zimmerman : Dylan (Bob (Dylan a (Bob a))) (Bob a) -> Bob (Dylan a a)
    #             -> Bob a, so well-typed occupants need several layers of
    #             robert/duluth wrapping before a payload is legal
    v = parse_value_literal(
        "zimmerman"
        " (duluth (robert (robert (duluth (robert 1) (robert (robert 2)))))"
        "         (robert (robert 3)))"
        " (robert (duluth (robert 4) (robert 5)))",
        bobdylan.program,
        bobdylan.decls["Bob"],
    )
    idx = IApp("BobC", (IVar(0),))
    assert typecheck_value(bobdylan, idx, {0: "nat", 1: "nat"}, v)[0] == []
    alg = catalogue(bobdylan)["sum"]
    assert flatten_add(v) == 15
    assert eval_nfold(bobdylan, alg, idx, v) == 15


def test_catalogue_contents(bush, lists, bobdylan):
    assert sorted(catalogue(bush)) == ["depth", "length", "sum", "trace"]
    assert sorted(catalogue(lists)) == ["depth", "length", "sum", "trace"]
    assert sorted(catalogue(bobdylan)) == ["depth", "sum", "trace"]


def test_derived_fold_on_lists_agrees_with_foldlist(lists):
    idx = IApp("ListC", (IVar(0),))
    alg = catalogue(lists)["sum"]
    for v in enumerate_values(lists, idx, POOL3, 6):
        expected = fold_list(0, lambda x, r: x.payload + r, v)
        assert eval_nfold(lists, alg, idx, v) == expected


def _checked_method(name, rs):
    """sum, depth and length as the checked path computes them: every entry
    read through nat_of, every step through nat_add or nat_succ."""
    if name == "sum":
        total = 0
        for r in rs:
            total = nat_add(total, nat_of(r))
        return total
    if name == "depth":
        return nat_succ(max((nat_of(r) for r in rs), default=0)) if rs else 0
    return nat_succ(nat_of(rs[1]))


def _outcome(f, *args):
    """A call's result and its type, or its exception's type and words."""
    try:
        r = f(*args)
    except Exception as e:
        return "raised", type(e), str(e)
    return "returned", type(r), r


_RESULT_ENTRIES = st.one_of(
    st.sampled_from([0, 1, NAT_MAX - 2, NAT_MAX - 1, NAT_MAX, NAT_MAX + 1, NAT_MAX + 2, -1]),
    st.integers(min_value=-3, max_value=NAT_MAX + 3),
    st.booleans(),
    st.sampled_from([VCon("nil"), VBase(2), RFun(abs)]),
)


@given(st.sampled_from(["sum", "depth", "length"]), st.lists(_RESULT_ENTRIES, max_size=4))
@example("sum", [NAT_MAX, 1])
@example("sum", [NAT_MAX - 1, 1])
@example("sum", [NAT_MAX, 1, -5])
@example("sum", [NAT_MAX, True])
@example("sum", [NAT_MAX, 1, VCon("nil")])
@example("sum", [1, RFun(abs), NAT_MAX])
@example("depth", [NAT_MAX - 1, 3])
@example("depth", [3, NAT_MAX])
@example("depth", [True, 1])
@example("depth", [NAT_MAX, VCon("nil")])
@example("length", [VBase(2), NAT_MAX - 1])
@example("length", [VBase(2), NAT_MAX])
@example("length", [VBase(2), True])
@example("length", [VBase(2), RFun(abs)])
def test_the_natural_methods_return_what_the_checked_path_returns(lists, name, rs):
    # Every sum and depth method, and length's at the binary constructor (at
    # nil it is the constant 0), on any entries: the same result, or the same
    # EvalError at the same operand (or the same IndexError, for a length
    # method short of arguments).
    rs = tuple(rs)
    methods = catalogue(lists)[name].methods
    if name == "length":
        methods = {"cc": methods["cc"]}
    for method in methods.values():
        assert _outcome(method, (), rs) == _outcome(_checked_method, name, rs)


def test_overflow_is_an_error_not_a_wrap(bush):
    big = VCon(
        "cons",
        (
            VBase(NAT_MAX - 1),
            VCon("cons", (VCon("cons", (VBase(2), VCon("leaf"))), VCon("leaf"))),
        ),
    )
    with pytest.raises(EvalError, match="overflow"):
        eval_nfold(bush, catalogue(bush)["sum"], bushc(1), big)
    with pytest.raises(EvalError, match="overflow"):
        nat_add(NAT_MAX, 1)


def _ind(ctx, alg, idx, v):
    """eval_ind with alg's methods, blind to the sub-values."""
    return eval_ind(ctx, _ignore_values(alg), idx, v)


FOLDS = [eval_nfold, _ind]


def _counted(alg, calls):
    """alg with every method adding one to calls[0] each time it runs."""

    def count(m):
        def counted(*args):
            calls[0] += 1
            return m(*args)
        return counted

    return Algebra(alg.name, alg.bases, {name: count(m) for name, m in alg.methods.items()})


def test_call_counter_is_bounded_by_size(bush, bush1):
    """A fold calls one method per constructor node, so a counted algebra
    counts exactly size(v) calls."""
    calls = [0]
    alg = _counted(catalogue(bush)["sum"], calls)
    for fold in FOLDS:
        for v in (bush1, VCon("leaf"), VCon("cons", (VBase(1), VCon("leaf")))):
            calls[0] = 0
            fold(bush, alg, bushc(1), v)
            assert calls[0] == value_size(v)


# ---------------------------------------------------------------------------
# eval_map


def test_map_increments_every_numeral(bush, bush1):
    got = eval_map(bush, {0: add_one}, bushc(1), bush1)
    assert got == bump_every_natural(bush1)


def test_map_identity_on_everything_small(bush):
    for d in range(3):
        idx = bushc(d)
        for v in enumerate_values(bush, idx, POOL3, 4):
            assert eval_map(bush, {0: lambda x: x}, idx, v) == v


def test_map_at_base_index_is_plain_application(bush):
    assert eval_map(bush, {0: add_one}, IVar(0), VBase(7)) == VBase(8)


def test_map_composition_pointwise(bush):
    two = bushc(2)
    for v in enumerate_values(bush, two, POOL3, 4):
        once = eval_map(bush, {0: add_one}, two, v)
        # nmap (add 1 1) f == nmap 1 (nmap 1 f): the outer pass hands whole
        # level-1 subtrees to its base function
        composed = eval_map(
            bush, {0: lambda w: eval_map(bush, {0: add_one}, bushc(1), w)}, bushc(1), v
        )
        assert once == composed


# ---------------------------------------------------------------------------
# eval_ind


def test_ind_with_value_blind_methods_equals_nfold(bush, bush1):
    alg = catalogue(bush)["sum"]
    dep = _ignore_values(alg)
    assert eval_ind(bush, dep, bushc(1), bush1) == 34
    for v in enumerate_values(bush, bushc(2), POOL3, 4):
        assert eval_ind(bush, dep, bushc(2), v) == eval_nfold(
            bush, alg, bushc(2), v
        )


def test_ind_sees_the_examined_subvalues(bush, bush1):
    rebuild = Algebra(
        "rebuild",
        bases={0: lambda v: v},
        methods={
            "leaf": lambda iargs, subs, rs: VCon("leaf"),
            "cons": lambda iargs, subs, rs: VCon("cons", subs),
        },
    )
    assert eval_ind(bush, rebuild, bushc(1), bush1) == bush1


def test_ind_base_case_applies_base_directly(bush):
    dep = _ignore_values(catalogue(bush)["sum"])
    assert eval_ind(bush, dep, IVar(0), VBase(6)) == 6


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda ctx, v: eval_nfold(ctx, catalogue(ctx)["sum"], bushc(1), v),
        lambda ctx, v: eval_ind(ctx, _ignore_values(catalogue(ctx)["sum"]), bushc(1), v),
    ],
    ids=["eval_nfold", "eval_ind"],
)
@pytest.mark.parametrize(
    "v, shown",
    [(VCon("robert", (VBase(1),)), "robert 1"), (VBase(4), "4")],
    ids=["foreign-constructor", "base-value"],
)
def test_a_value_off_its_index_is_one_error(bush, evaluate, v, shown):
    with pytest.raises(EvalError, match=f"^value {shown} does not inhabit a Bush index$"):
        evaluate(bush, v)


def test_a_second_fold_substitutes_no_index(bush1, monkeypatch):
    import nestfold.analysis as analysis

    (ctx,) = analyze(parse_program(BUSH))
    alg = catalogue(ctx)["sum"]
    calls = []
    real = analysis.subst_index
    monkeypatch.setattr(
        analysis, "subst_index", lambda e, iargs: calls.append(e) or real(e, iargs)
    )
    assert eval_nfold(ctx, alg, bushc(1), bush1) == 34
    assert calls
    calls.clear()
    assert eval_nfold(ctx, alg, bushc(1), bush1) == 34
    assert calls == []


def test_a_fold_substitutes_only_the_constructors_it_meets(monkeypatch):
    import nestfold.analysis as analysis

    (ctx,) = analyze(parse_program(BOBDYLAN))
    alg = catalogue(ctx)["sum"]
    calls = []
    real = analysis.subst_index
    monkeypatch.setattr(
        analysis, "subst_index", lambda e, iargs: calls.append(e) or real(e, iargs)
    )
    robert = VCon("robert", (VBase(1),))
    assert eval_nfold(ctx, alg, IApp("BobC", (IVar(0),)), robert) == 1
    assert calls == list(ctx.arg_templates["robert"])


# ---------------------------------------------------------------------------
# Row folds

ROW_GROUPS = {
    **{name: (SAMPLES / f"{name}.ndt").read_text() for name in ("bush", "list", "bobdylan")},
    **PROBES,
}


def _row_table(src, size=3):
    """A fresh context of src and its row table after enumerating, up to
    size, every declaration's own index, and the levels 0..3 where the
    indices are levels."""
    (ctx,) = analyze(parse_program(src))
    pool = _pool(ctx)
    indices = [ctx.own_index(d) for d in ctx.group.decls]
    if ctx.nat_index_eligible:
        indices += [ctx.level(n) for n in range(4)]
    for idx in map(ctx.canonical, indices):
        enumerate_values(ctx, idx, pool, size)
    return ctx, pool_set(ctx, pool)[1]


@pytest.mark.parametrize("which", ROW_GROUPS)
def test_every_value_of_a_pool_has_the_pool_size(which):
    # The suite bounds call counts, and guards the direct recursions, by the
    # size of a value's pool instead of measuring the value.
    ctx, table = _row_table(ROW_GROUPS[which], 4)
    pools = pool_set(ctx, _pool(ctx))[0]
    assert any(values for values, _ in pools.values())
    for (idx, size), (values, rows) in pools.items():
        assert [value_size(v) for v in values] == [size] * len(values), render_index(idx, ctx)
        assert [table[r][1] for r in rows] == list(values)


@pytest.mark.parametrize("which", ROW_GROUPS)
def test_row_folds_agree_with_the_recursion_and_the_tape(which):
    # Every row is an enumerated (index, value) pair, sub-values included.
    ctx, table = _row_table(ROW_GROUPS[which])
    slots = range(ctx.base_var_count)
    kinds = {k: "nat" for k in slots}
    folds = [
        (alg, prepare_nfold(ctx, alg, table), prepare_ind(ctx, _ignore_values(alg), table))
        for alg in catalogue(ctx).values()
    ]
    # the last map gives variable k its own function, adding k + 1, and every
    # map is checked against one built here: a fold whose base k applies
    # fs[k] and whose methods rebuild their node
    fss = [{k: (lambda v: v) for k in slots}, {k: add_one for k in slots}]
    fss.append({k: partial(lambda n, v: VBase(v.payload + n), k + 1) for k in slots})
    maps = [(fs, prepare_map(ctx, fs, table)) for fs in fss]
    rebuild = {
        c.name: partial(lambda name, iargs, rs: VCon(name, rs), c.name) for _, c in ctx.ctors()
    }
    assert len(table) >= 3
    for r, (idx, v, _) in enumerate(table):
        diags, tape = typecheck_value(ctx, idx, kinds, v)
        assert diags == []
        for alg, nfold, ind in folds:
            want = fold_tape(ctx, alg, tape)
            assert nfold(r) == want == eval_nfold(ctx, alg, idx, v)
            assert ind(r) == want == eval_ind(ctx, _ignore_values(alg), idx, v)
        for fs, nmap in maps:
            want = fold_tape(ctx, Algebra("map", fs, rebuild), tape)
            assert nmap(r) == want == eval_map(ctx, fs, idx, v)
        # the identity map rebuilds every value as the interned value itself
        assert maps[0][1](r) is v


@pytest.mark.parametrize("which", ["bush", "list", "t-s"])
def test_a_map_over_rows_is_the_recursive_map_of_the_inner_map(which):
    ctx, table = _row_table(ROW_GROUPS[which])
    inner = prepare_map(ctx, {0: add_one}, table)
    for n in range(4):
        outer = prepare_map_over(ctx, inner, n, table)
        base = lambda w: eval_map(ctx, {0: add_one}, ctx.level(n), w)
        for r, (idx, v, _) in enumerate(table):
            m = index_depth(idx) - n
            want = eval_map(ctx, {0: base}, ctx.level(m), v) if m >= 0 else None
            assert outer(r) == want


def test_a_row_fold_keeps_the_first_error_and_the_rows_below_it(lists):
    ctx, table = _row_table(LIST)
    alg = catalogue(ctx)["sum"]
    bad = next(r for r, (_, v, args) in enumerate(table) if args and v.args[0].payload == 2)
    broken = Algebra("broken", alg.bases, {
        name: (lambda m: lambda iargs, rs: m(iargs, rs) if rs[:1] != (2,) else 1 // 0)(m)
        for name, m in alg.methods.items()
    })
    fold, whole = prepare_nfold(ctx, broken, table), prepare_nfold(ctx, alg, table)
    assert fold.fill(len(table)) == whole.fill(len(table))[:bad]
    assert isinstance(fold.error, ZeroDivisionError) and whole.error is None
    # the filling stays ended: no row is folded again, and a row above reads the error
    assert fold.fill(len(table)) is fold.results and len(fold.results) == bad
    assert fold(bad - 1) == whole(bad - 1)
    with pytest.raises(ZeroDivisionError):
        fold(bad)


# ---------------------------------------------------------------------------
# Dropped row folds


class _Watched:
    """A fold result that a weak reference can watch."""


def _watching(ctx):
    """An algebra, for nfold or induction, whose every result is a fresh _Watched."""
    fresh = lambda *args: _Watched()
    return Algebra(
        "watching",
        {k: fresh for k in range(ctx.base_var_count)},
        {c.name: fresh for _, c in ctx.ctors()},
    )


@pytest.mark.parametrize("prepare", [prepare_nfold, prepare_ind], ids=["nfold", "ind"])
def test_a_dropped_row_fold_frees_its_results_by_reference_counting(lists, prepare):
    # The result list of a row fold in a reference cycle would outlive its
    # property until the cyclic collector ran, and every property's results
    # would pile up.
    cases = _cases(lists, _suite_indices(lists), 4)
    gc.disable()
    try:
        fold = prepare(lists, _watching(lists), Folds(lists).table)
        watch = [weakref.ref(fold(r)) for _, _, r in cases]
        assert all(w() is not None for w in watch)
        del fold
        assert all(w() is None for w in watch)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Higher-order folds


def test_cps_sum_of_the_deep_literal_is_34(bush, bush1):
    halg = halg_catalogue(bush)["cps-sum"]
    r = eval_hfold_direct(bush, halg, bush1)
    assert halg.finish(r) == 34


def test_hfold_direct_on_leaf_is_the_leaf_method(bush):
    halg = halg_catalogue(bush)["sum-naive"]
    assert eval_hfold_direct(bush, halg, VCon("leaf")) == 0


def test_hfold_rebuild_is_identity(bush, bush1):
    halg = halg_catalogue(bush)["rebuild"]
    assert eval_hfold_direct(bush, halg, bush1) == bush1


def test_hfold_via_nfold_matches_direct(bush, bush1):
    for name, halg in halg_catalogue(bush).items():
        direct = halg.finish(eval_hfold_direct(bush, halg, bush1))
        derived = halg.finish(eval_hfold_via_nfold(bush, halg, "Bush", bush1))
        assert direct == derived, name


def test_hmap_direct_satisfies_the_cons_equation(bush):
    v = parse_value_literal("[ 1, [ 2 ], [ [ 3 ] ] ]", bush.program, bush.decls["Bush"])
    x, xs = v.args
    lhs = eval_hmap_direct(bush, add_one, v)
    rhs = VCon(
        "cons",
        (
            add_one(x),
            eval_hmap_direct(bush, lambda w: eval_hmap_direct(bush, add_one, w), xs),
        ),
    )
    assert lhs == rhs


def test_hmap_direct_matches_map(bush, bush1):
    assert eval_hmap_direct(bush, add_one, bush1) == eval_map(
        bush, {0: add_one}, bushc(1), bush1
    )


def test_guard_converts_runaway_recursion_into_an_error(bush, bush1, monkeypatch):
    monkeypatch.setattr(runtime, "default_guard", lambda v, idx_depth=0: 1)
    halg = halg_catalogue(bush)["sum-naive"]
    with pytest.raises(GuardExceeded):
        eval_hfold_direct(bush, halg, bush1)
    with pytest.raises(GuardExceeded):
        eval_hmap_direct(bush, add_one, bush1)
    with pytest.raises(GuardExceeded):
        eval_nfold_prime(bush, catalogue(bush)["sum"], bushc(1), bush1)


#: For every value of the bush@5 family chunks, and for a few deeper values
#: ("deep", at their levels), the least guard limit at which each direct
#: recursion raises no GuardExceeded, and what it then does ("ok", or the
#: exception it raises): frozen from the closure-built recursions that the
#: payload frames replaced.
GUARD_DEPTHS = json.loads((Path(__file__).parent / "guard_depth.json").read_text())


def _least_limit(run, high):
    """The least limit in [0, high] at which run(limit) raises no
    GuardExceeded (by bisection), and "ok" or the exception it raises there."""

    def outcome(limit):
        try:
            run(limit)
        except GuardExceeded:
            return None
        except Exception as e:
            return type(e).__name__
        return "ok"

    assert outcome(high) is not None
    lo, hi = 0, high
    while lo < hi:
        mid = (lo + hi) // 2
        if outcome(mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return [lo, outcome(lo)]


def _guard_depths(ctx, max_size, deep):
    """GUARD_DEPTHS' rows, [index, value, {recursion: [least limit, outcome]}],
    recomputed: the direct hfold at every halg_catalogue algebra, the
    direct hmap at every MAP_FNS function and the lift, each searched up to
    the suite's budget for the value."""
    cases = [(idx, v, size) for idx, values, _, size in Folds(ctx).chunks(max_size) for v in values]
    for level, literal in deep:
        v = parse_value_literal(literal, ctx.program, ctx.decls["Bush"])
        cases.append((ctx.level(level), v, value_size(v)))
    runs = {
        **{f"hfold {name}": partial(eval_hfold_direct, ctx, halg)
           for name, halg in halg_catalogue(ctx).items()},
        **{f"hmap {name}": partial(eval_hmap_direct, ctx, f) for name, f in properties.MAP_FNS},
    }
    rows = []
    for idx, v, size in cases:
        depth, lift = prepare_lift(ctx)(idx)
        high = properties.guard(size, depth)
        least = {name: _least_limit(partial(run, v), high) for name, run in runs.items()}
        least["lift"] = _least_limit(partial(lift, v), high)
        rows.append([render_index(idx, ctx), render_value(v), least])
    return rows


def test_the_direct_recursions_trip_their_guards_at_the_frozen_depths(bush):
    # A payload frame carries the depth at which it was made.  No bush@5
    # value tells that depth from the depth of the node where the frame is
    # applied; the deep values, of size 11, do: at the wrong one the direct
    # hfold, the direct hmap or the lift needs one more level of budget.
    rows = _guard_depths(bush, GUARD_DEPTHS["max_size"], GUARD_DEPTHS["deep"])
    assert rows == GUARD_DEPTHS["rows"]


@pytest.mark.parametrize(
    "bad",
    [
        VCon("leaf", (VBase(1),)),
        VCon("cons", (VBase(1), VCon("leaf"), VCon("leaf"))),
        VBase(1),
    ],
    ids=["nil-with-arguments", "cons-with-three", "base-for-node"],
)
def test_the_direct_recursions_refuse_a_foreign_node(bush, bad):
    halg = halg_catalogue(bush)["sum-naive"]
    with pytest.raises(EvalError, match="direct fold met a foreign node"):
        eval_hfold_direct(bush, halg, bad)
    with pytest.raises(EvalError, match="direct map met a foreign node"):
        eval_hmap_direct(bush, add_one, bad)
    # below a cons, hfold maps the tail before it folds it, so the map meets
    # the foreign node first
    below = VCon("cons", (VBase(2), bad))
    for evaluate in (
        lambda: eval_hfold_direct(bush, halg, below),
        lambda: eval_hmap_direct(bush, add_one, below),
    ):
        with pytest.raises(EvalError, match="direct map met a foreign node"):
            evaluate()


def test_value_size_and_the_guard_measure_a_deep_value():
    # 100,000 list cells nest far deeper than the default recursion limit.
    v = VCon("nil")
    for _ in range(100_000):
        v = VCon("cc", (VBase(1), v))
    assert value_size(v) == 100_001
    assert runtime.default_guard(v) == 10 * 100_001 + 100
    assert runtime.default_guard(v, 3) == 10 * (100_001 + 3) + 100


# ---------------------------------------------------------------------------
# nfold' (the PS route)


def test_nfold_prime_sum_is_34(bush, bush1):
    alg = catalogue(bush)["sum"]
    assert eval_nfold_prime(bush, alg, bushc(1), bush1) == 34


def test_nfold_prime_hands_out_the_contexts_levels(bush1):
    (ctx,) = analyze(parse_program(BUSH))
    total = catalogue(ctx)["sum"]
    seen = []
    spy = Algebra(
        "spy",
        bases=total.bases,
        methods={
            c: (lambda m: lambda iargs, rs: seen.append(iargs[0]) or m(iargs, rs))(m)
            for c, m in total.methods.items()
        },
    )
    assert eval_nfold_prime(ctx, spy, bushc(1), bush1) == 34
    first = list(seen)
    seen.clear()
    assert eval_nfold_prime(ctx, spy, bushc(1), bush1) == 34
    assert len(seen) == len(first) and all(a is b for a, b in zip(seen, first))
    assert all(i is ctx.level(index_depth(i)) for i in first)


def test_nfold_prime_at_base_index_equals_nfold(bush):
    alg = catalogue(bush)["sum"]
    assert eval_nfold_prime(bush, alg, IVar(0), VBase(3)) == 3


def test_nfold_prime_agrees_with_nfold_on_a_sample(bush):
    algs, cases = catalogue(bush).values(), 0
    for d in range(4):
        idx = bushc(d)
        for alg in algs:
            for v in enumerate_values(bush, idx, POOL3, 5):
                assert eval_nfold_prime(bush, alg, idx, v) == eval_nfold(bush, alg, idx, v)
                cases += 1
    # the values of nfold-vs-nfold-prime at size 5, at sum, depth, trace and length
    assert (cases, len(algs)) == (29 * 4, 4)


#: The (constructor, level, rendered arguments) of every method call, and
#: ("base", None, [rendered value]) of every base call, that each catalogue
#: algebra received from nfold' on a few values at levels 1 to 3, frozen
#: from the closure-built PS carrier this one replaced.
NFOLD_PRIME_TRACE = json.loads((Path(__file__).parent / "nfold_prime_trace.json").read_text())


@pytest.mark.parametrize("name", sorted(NFOLD_PRIME_TRACE["traces"]))
def test_nfold_prime_calls_each_method_as_the_closure_carrier_did(bush, name):
    alg = catalogue(bush)[name]
    for key, frozen in NFOLD_PRIME_TRACE["traces"][name].items():
        depth, literal = key.split(":", 1)
        calls = []
        spy = Algebra(name, bases={
            k: (lambda b: lambda w: calls.append(["base", None, [render_value(w)]]) or b(w))(b)
            for k, b in alg.bases.items()
        }, methods={
            c: (lambda c, m: lambda iargs, rs: calls.append(
                [c, index_depth(iargs[0]), [render_value(r) for r in rs]]
            ) or m(iargs, rs))(c, m)
            for c, m in alg.methods.items()
        })
        v = parse_value_literal(literal, bush.program, bush.decls["Bush"])
        result = eval_nfold_prime(bush, spy, bush.level(int(depth)), v)
        assert (render_value(result), calls) == (frozen["result"], frozen["calls"]), key


def test_the_ps_carrier_refuses_a_non_natural_level(bush):
    # Levels are looked up in a table keyed by naturals: a function result
    # given as a level is refused as a non-natural, not hashed.
    methods = prepare_ps_to_p(bush, catalogue(bush)["sum"]).args[0]
    assert runtime._run_ps(methods, runtime.PS(), 0, 0) == 0
    for ps in (runtime.PS(), runtime.PS(1, runtime.PS())):
        with pytest.raises(EvalError, match="expected a natural"):
            runtime._run_ps(methods, ps, RFun(lambda r: r), 0)


def _level_two_cases(ctx):
    return [(idx, v) for idx, v, _ in _cases(ctx, [ctx.level(2)], 6)]


def test_nfold_prime_leaves_no_cyclic_garbage(bush):
    # A self-referencing local closure per case would leave a reference
    # cycle behind every case, for the cyclic collector to find.
    cases = _level_two_cases(bush)
    algs = list(catalogue(bush).values())
    assert cases
    check_equivalence(Folds(bush), 6)  # the pools, which live with the context
    gc.collect()
    gc.disable()
    try:
        for alg in algs:
            for idx, v in cases:
                eval_nfold_prime(bush, alg, idx, v)
        assert gc.collect() == 0
        assert check_equivalence(Folds(bush), 6).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_dropped_nfold_prime_fold_is_freed_by_reference_counting(bush):
    cases = _level_two_cases(bush)
    check_equivalence(Folds(bush), 6)  # the pools, which live with the context
    gc.collect()
    gc.disable()
    try:
        lift_at, ps_to_p = prepare_lift(bush), prepare_ps_to_p(bush, catalogue(bush)["trace"])
        watch = [weakref.ref(lift_at), weakref.ref(ps_to_p)]
        for idx, v in cases:
            depth, lift = lift_at(idx)
            ps_to_p(depth, lift(v, runtime.default_guard(v, depth)))
        del lift_at, lift, ps_to_p
        # one whole sweep: its store, its lifts and its PS-to-Ps go with it
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("prepare_lift", "prepare_ps_to_p"):
                real = getattr(properties, name)
                patch.setattr(properties, name, lambda *a, f=real: seen.append(f(*a)) or seen[-1])
            folds = Folds(bush)
            assert check_equivalence(folds, 6).ok
        watch += [weakref.ref(folds), *map(weakref.ref, seen)]
        del folds, seen
        assert len(watch) == 2 + 1 + 1 + len(catalogue(bush))
        assert [w() for w in watch] == [None] * len(watch)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda ctx, v: eval_nfold_prime(
            ctx, catalogue(ctx)["sum"], IApp("BobC", (IVar(0),)), v
        ),
        # the shape check comes before the algebra is looked at
        lambda ctx, v: eval_hfold_direct(ctx, None, v),
        lambda ctx, v: eval_hmap_direct(ctx, add_one, v),
    ],
    ids=["eval_nfold_prime", "eval_hfold_direct", "eval_hmap_direct"],
)
def test_nfold_prime_rejects_non_bush_shapes(bobdylan, evaluate):
    with pytest.raises(EvalError, match="bush-shaped"):
        evaluate(bobdylan, VCon("robert", (VBase(1),)))


# ---------------------------------------------------------------------------
# enumerate_values


def test_enumeration_matches_the_hand_example(bush):
    dot = {0: (VBase(Atom("dot")),)}
    got = enumerate_values(bush, bushc(1), dot, 2)
    assert got == [
        VCon("leaf"),
        VCon("cons", (VBase(Atom("dot")), VCon("leaf"))),
    ]


def test_enumeration_at_size_zero_is_empty_for_constructor_indices(bush):
    assert enumerate_values(bush, bushc(1), POOL3, 0) == []


def test_enumeration_at_base_index_is_the_pool(bush):
    assert enumerate_values(bush, IVar(0), POOL3, 5) == list(POOL3[0])


def test_enumeration_is_exhaustive_well_typed_and_deterministic(bush):
    pool = enumerate_values(bush, bushc(2), POOL3, 5)
    assert pool == enumerate_values(bush, bushc(2), POOL3, 5)
    assert len(set(pool)) == len(pool)
    sizes = [value_size(v) for v in pool]
    assert sizes == sorted(sizes)
    assert all(value_size(v) <= 5 for v in pool)
    for v in pool:
        assert typecheck_value(bush, bushc(2), NAT_KINDS, v)[0] == []


def _count(ctx, idx, pool_sizes, size):
    """Independent counting recurrence (never builds the values)."""
    match idx:
        case IVar(k):
            return pool_sizes[k] if size == 0 else 0
        case IApp(ic, iargs):
            if size == 0:
                return 0
            total = 0
            decl = ctx.decl_of_app[ic]
            for c in ctx.decls[decl].ctors:
                templates = ctx.arg_templates[c.name]
                total += _compositions(ctx, templates, iargs, pool_sizes, size - 1)
            return total


def _compositions(ctx, templates, iargs, pool_sizes, budget):
    if not templates:
        return 1 if budget == 0 else 0
    from nestfold.analysis import subst_index

    head, rest = templates[0], templates[1:]
    total = 0
    for s in range(budget + 1):
        here = _count(ctx, subst_index(head, iargs), pool_sizes, s)
        if here:
            total += here * _compositions(ctx, rest, iargs, pool_sizes, budget - s)
    return total


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("max_size", [3, 5, 7])
def test_enumeration_counts_match_the_recurrence(bush, depth, max_size):
    idx = bushc(depth)
    got = len(enumerate_values(bush, idx, POOL3, max_size))
    expected = sum(_count(bush, idx, {0: 3}, s) for s in range(max_size + 1))
    assert got == expected


def test_enumeration_mutual_group(bobdylan):
    idx = IApp("BobC", (IVar(0),))
    pool = enumerate_values(bobdylan, idx, {0: (VBase(0),), 1: (VBase(1),)}, 4)
    assert pool and all(v.ctor in ("robert", "zimmerman") for v in pool)
    for v in pool:
        assert typecheck_value(bobdylan, idx, {0: "nat", 1: "nat"}, v)[0] == []


@pytest.mark.parametrize("src", [BUSH, LIST, BOBDYLAN], ids=["bush", "list", "bobdylan"])
def test_enumerated_values_are_equal_exactly_when_identical(src):
    # Every value reachable from the suite's enumeration, sub-values and base
    # values included, once per object, compared pairwise.
    (ctx,) = analyze(parse_program(src))
    reachable = {}
    todo = [v for _, v, _ in _cases(ctx, _suite_indices(ctx), 5)]
    while todo:
        v = todo.pop()
        if id(v) not in reachable:
            reachable[id(v)] = v
            if isinstance(v, VCon):
                todo.extend(v.args)
    values = list(reachable.values())
    assert any(isinstance(v, VBase) for v in values)
    for a in values:
        for b in values:
            assert (a == b) == (a is b)
    assert reachable.keys() <= {id(v) for v in ctx.interned.values()}


def test_enumeration_keeps_each_base_pool_apart():
    (ctx,) = analyze(parse_program(BUSH))
    dot = {0: (VBase(Atom("dot")),)}
    got = [enumerate_values(ctx, bushc(2), pool, 4) for pool in (POOL3, dot)]
    assert got[0] != got[1]
    for pool, values in zip((POOL3, dot), got):
        (fresh,) = analyze(parse_program(BUSH))
        assert values == enumerate_values(fresh, bushc(2), pool, 4)


INF = """\
data Inf (a : Set) : Set where
  mk : Inf a -> Inf a
"""

SWAPPED = """\
data Ping (a b : Set) : Set where
  pa : a -> Ping a b
  pq : Pong b a -> Ping a b

data Pong (a b : Set) : Set where
  qb : b -> Pong a b
  qp : Ping (Pong a b) a -> Pong a b
"""


def _reference_values(ctx, memo, idx, pool, max_size):
    """enumerate_values with nothing pruned: at every size, every
    constructor, every split of the remaining size over its arguments (in
    lexicographic order) and the product of the argument pools, each
    argument index substituted afresh.  memo holds the exact-size pools of
    one context and base pool."""

    def exact(i, size):
        if (i, size) not in memo:
            out = []
            if isinstance(i, IVar):
                out = list(pool[i.k]) if size == 0 else []
            elif size > 0:
                for c in ctx.decls[ctx.decl_of_app[i.ctor]].ctors:
                    at = [subst_index(t, i.args) for t in ctx.arg_templates[c.name]]
                    splits = [
                        s for s in itertools.product(range(size), repeat=len(at))
                        if sum(s) == size - 1
                    ]
                    for split in splits:
                        pools = [exact(t, s) for t, s in zip(at, split)]
                        out.extend(VCon(c.name, combo) for combo in itertools.product(*pools))
            memo[i, size] = out
        return memo[i, size]

    return [v for s in range(max_size + 1) for v in exact(idx, s)]


@pytest.mark.parametrize(
    "src, pool, max_size",
    [
        (BUSH, POOL3, 6),
        (LIST, POOL3, 6),
        (BOBDYLAN, {0: POOL3[0], 1: POOL3[0]}, 4),
        (INF, POOL3, 6),
        (SWAPPED, {0: POOL3[0], 1: POOL3[0]}, 4),
        (BOBDYLAN, {0: (), 1: (VBase(1),)}, 4),
    ],
    ids=["bush", "list", "bobdylan", "no-finite-value", "swapped-mutual", "empty-base-pool"],
)
def test_pruned_enumeration_is_the_unpruned_product(src, pool, max_size):
    # The least-size bound may only skip pools that are empty: every value,
    # in order, at every index of the suite family and every size bound.
    from nestfold.properties import _suite_indices

    for ctx in analyze(parse_program(src)):
        memo = {}
        built = 0
        for idx in map(ctx.canonical, _suite_indices(ctx)):
            want = _reference_values(ctx, memo, idx, pool, max_size)
            for size in range(max_size + 1):
                got = enumerate_values(ctx, idx, pool, size)
                assert got == [v for v in want if value_size(v) <= size], (idx, size)
            built += isinstance(idx, IApp) and len(want)
        assert (built == 0) == (src == INF)


def test_least_size_is_the_fewest_nodes_up_to_the_cap(bush, bobdylan):
    (inf,) = analyze(parse_program(INF))
    bob = lambda i: IApp("BobC", (i,))
    dylan = lambda i, j: IApp("DylanC", (i, j))
    a, b = IVar(0), IVar(1)
    assert bush.least_size(bushc(3), 5) == 1
    assert bush.least_size(IVar(0), 5) == 0
    assert inf.least_size(IApp("InfC", (IVar(0),)), 4) == 5
    assert bobdylan.least_size(bob(a), 4) == 1
    assert bobdylan.least_size(dylan(a, b), 4) == 3
    assert bobdylan.least_size(bob(bob(bob(a))), 4) == 3
    assert bobdylan.least_size(bob(dylan(a, dylan(a, b))), 8) == 7
    assert bobdylan.least_size(bob(dylan(a, dylan(a, b))), 4) == 5
    # a template reads its slots' bounds from slots
    (robert_arg,) = bobdylan.arg_templates["robert"]
    assert bobdylan.least_size(robert_arg, 4, (3,)) == 3
    assert bobdylan.least_size(bob(a), 9, (3, 0)) == 4


def test_least_size_substitutes_nothing_and_is_filled_only_on_demand(monkeypatch):
    import nestfold.analysis as analysis

    (ctx,) = analyze(parse_program(BOBDYLAN))
    assert ctx._least == {}
    monkeypatch.setattr(analysis, "subst_index", lambda *a: pytest.fail("substituted"))
    monkeypatch.setattr(analysis.GroupContext, "ctors_at", lambda *a: pytest.fail("placed"))
    deep = IVar(0)
    for _ in range(6):
        deep = IApp("DylanC", (IApp("BobC", (deep,)), deep))
    assert ctx.least_size(deep, 6) == 7
    assert ctx._least and ctx._ctors_at == {}


@pytest.mark.parametrize("size, substitutions", [(3, 200), (4, 400)])
def test_a_bobdylan_suite_places_few_indices(monkeypatch, size, substitutions):
    # Nesting sends zimmerman's arguments ever deeper; almost none of those
    # indices hold a value within the bound, so none of them is placed, and
    # the pools built are those of every family index that some value fits:
    # an index that none fits is skipped before any pool of it is built.
    import nestfold.analysis as analysis
    from nestfold.properties import _suite_indices, run_suite

    (ctx,) = analyze(parse_program(BOBDYLAN))
    calls = []
    real = analysis.subst_index
    monkeypatch.setattr(
        analysis, "subst_index", lambda e, iargs: calls.append(e) or real(e, iargs)
    )
    assert run_suite(ctx, size).ok
    assert len(ctx._ctors_at) <= 40
    assert len(calls) < substitutions
    ((pools, _),) = ctx.pools.values()
    family = list(map(ctx.canonical, _suite_indices(ctx)))
    fits = [idx for idx in family if ctx.least_size(idx, size) <= size]
    assert 0 < len(fits) < len(family)
    assert set(pools) == {(idx, s) for idx in fits for s in range(size + 1)}


# ---------------------------------------------------------------------------
# Result plumbing


def test_wrap_and_as_value_are_inverse():
    assert wrap(VBase(3)) == 3
    assert as_value(3) == VBase(3)
    leafy = VCon("leaf")
    assert wrap(leafy) == leafy
    assert as_value(leafy) == leafy
    atom = VBase(Atom("q"))
    assert as_value(wrap(atom)) == atom


def test_each_carrier_has_one_representation(bush, bush1):
    assert type(eval_nfold(bush, catalogue(bush)["sum"], bushc(1), bush1)) is int
    assert type(eval_map(bush, {0: add_one}, bushc(1), bush1)) is VCon
    assert type(eval_nfold(bush, catalogue(bush)["trace"], bushc(1), bush1)) is VCon
    rebuild = halg_catalogue(bush)["rebuild"]
    assert eval_hfold_via_nfold(bush, rebuild, "Bush", bush1) == bush1
    assert eval_hfold_direct(bush, rebuild, bush1) == bush1
    assert wrap(VBase(3)) == 3 and type(wrap(VBase(3))) is int
    atom = VBase(Atom("q"))
    assert wrap(atom) is atom
    with pytest.raises(EvalError):
        nat_of(VBase(3))
    with pytest.raises(EvalError):
        RFun(lambda r: r) == RFun(lambda r: r)


def test_functions_are_only_observed_by_application():
    f = RFun(lambda r: r + 1)
    assert apply_result(f, 4) == 5
    with pytest.raises(EvalError):
        as_value(f)
    with pytest.raises(EvalError):
        f == f
    with pytest.raises(TypeError):
        hash(f)
    assert str(f) == "<function>"


@given(st.integers(0, 3), st.integers(0, 100))
def test_map_then_sum_shifts_by_payload_count(seed_depth, pick):
    (ctx,) = analyze(parse_program(BUSH))
    idx = bushc(seed_depth)
    pool = enumerate_values(ctx, idx, POOL3, 4)
    if not pool:
        return
    v = pool[pick % len(pool)]
    alg = catalogue(ctx)["sum"]
    plain = eval_nfold(ctx, alg, idx, v)
    bumped = eval_nfold(ctx, alg, idx, eval_map(ctx, {0: add_one}, idx, v))
    assert bumped - plain == _payload_count(v)


def _payload_count(v):
    match v:
        case VBase(_):
            return 1
        case VCon(_, args):
            return sum(_payload_count(a) for a in args)
