"""Property-suite tests.

The exact case counts pinned here come from hand arithmetic over the
enumerator's size metric (constructor nodes only, base pool {0,1,2}):
lists of length <= 6 over a 3-element pool number 3^0+...+3^6 = 1093, and
the bush sweep at size <= 7 across index depths 0..3 yields 74 values.
"""

import ast
import gc
import weakref
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nestfold.analysis import analyze
from nestfold.parser import parse_program
from nestfold.values import VBase, VCon, parse_value_literal, render_value
from nestfold.properties import (
    Counterexample,
    Folds,
    PropertyResult,
    SuiteReport,
    check_equivalence,
    check_ind_agreement,
    check_map_identity,
    check_spine_fold_agreement,
    run_suite,
)
import nestfold.properties as properties
import nestfold.runtime as runtime
from nestfold.diagnostics import EvalError, GuardExceeded
from nestfold.runtime import RFun

from test_derivation import BUSHES, PROBES, SHAPES, SOURCES
from test_parser import BOBDYLAN, BUSH, LIST
from test_runtime import _cases, _counted


def _row_fold_of(f):
    """A row fold whose result at row r is f(r)."""
    return runtime.RowFold(lambda rs, stop: rs.extend(map(f, range(len(rs), stop))))


#: A prepared PS-to-P, the last step of nfold', that answers 10**9 on every value.
_BILLION = lambda ctx, alg: lambda depth, lifted: 10**9


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
def bush_report(bush):
    return run_suite(bush, 7)


@pytest.fixture(scope="module")
def list_report(lists):
    return run_suite(lists, 7)


@pytest.fixture(scope="module")
def bobdylan_report(bobdylan):
    return run_suite(bobdylan, 5)


# ---------------------------------------------------------------------------
# Green suites


def test_bush_suite_passes(bush_report):
    assert bush_report.ok
    failed = [r.name for r in bush_report.results if not r.ok]
    assert failed == []


def test_list_suite_passes(list_report):
    assert list_report.ok


def test_bobdylan_suite_passes(bobdylan_report):
    assert bobdylan_report.ok


def test_every_property_ran_at_least_one_case(bush_report, list_report):
    for rep in (bush_report, list_report):
        for r in rep.results:
            assert r.cases > 0, r.name


BUSH_PROPERTIES = [
    "nfold-vs-nfold-prime",
    "map-identity",
    "map-composition",
    "hfold-conformance",
    "hfold-leaf-equation",
    "hmap-agreement",
    "hmap-cons-equation",
    "ind-agreement",
    "call-counter-bound",
]


def test_bush_runs_the_full_property_set(bush_report):
    assert [r.name for r in bush_report.results] == BUSH_PROPERTIES


def test_list_runs_the_ordinary_property_set(list_report):
    names = [r.name for r in list_report.results]
    assert "spine-fold-agreement" in names
    assert "nfold-vs-nfold-prime" not in names  # not bush-shaped
    assert "map-composition" in names  # single-parameter index universe
    assert "hfold-conformance" not in names


def test_mutual_group_runs_only_general_properties(bobdylan_report):
    names = [r.name for r in bobdylan_report.results]
    assert names == ["map-identity", "ind-agreement", "call-counter-bound"]


# ---------------------------------------------------------------------------
# Pinned case counts


def test_bush_equivalence_sweep_size(bush_report):
    # 74 enumerated values across index depths 0..3, times 4 algebras.
    r = bush_report.result("nfold-vs-nfold-prime")
    assert r.cases == 74 * 4


def test_list_spine_agreement_counts(list_report):
    # 1093 lists (3^0 + ... + 3^6) times the two hand-written folds.
    r = list_report.result("spine-fold-agreement")
    assert r.cases == 1093 * 2
    assert r.distinct == 1093 * 2


def test_equivalence_distinct_cases_scale_with_size(bush):
    # The acceptance sweep at size 8 must clear 500 distinct pairs.
    r = check_equivalence(Folds(bush), 8)
    assert r.ok
    assert r.cases == 524
    assert r.distinct >= 500


def test_suite_totals_add_up(bush_report):
    assert bush_report.total_cases == sum(r.cases for r in bush_report.results)


# ---------------------------------------------------------------------------
# Determinism and report plumbing


def test_suite_is_deterministic(bush):
    assert run_suite(bush, 5) == run_suite(bush, 5)


@pytest.mark.parametrize(
    "src, size", [(BUSH, 5), (LIST, 4), (BOBDYLAN, 3)], ids=["bush", "list", "bobdylan"]
)
def test_a_second_suite_builds_no_pool(monkeypatch, src, size):
    import nestfold.runtime as runtime

    (ctx,) = analyze(parse_program(src))
    calls = []
    real = runtime._splits
    monkeypatch.setattr(runtime, "_splits", lambda *a: calls.append(a) or real(*a))
    first = run_suite(ctx, size)
    assert calls
    calls.clear()
    assert run_suite(ctx, size) == first
    assert calls == []


def _stream(chunks):
    """A chunk stream's (idx, value, row, size) by the identity of its objects."""
    return [
        (id(idx), id(v), row, size)
        for idx, values, rows, size in chunks
        for v, row in zip(values, rows)
    ]


@pytest.mark.parametrize(
    "src, size", [(BUSH, 5), (LIST, 4), (BOBDYLAN, 3)], ids=["bush", "list", "bobdylan"]
)
def test_a_warm_sweep_enumerates_nothing(monkeypatch, src, size):
    (ctx,) = analyze(parse_program(src))
    indices = properties._suite_indices(ctx)
    first = _stream(properties._values(ctx, indices, size))
    calls = []
    real = properties.enumerate_values
    monkeypatch.setattr(properties, "enumerate_values", lambda *a: calls.append(a) or real(*a))
    assert _stream(properties._values(ctx, indices, size)) == first
    assert calls == []


def test_a_sweep_enumerates_an_index_built_only_as_an_argument(monkeypatch, lists):
    # Enumerating lists of lists builds the pools of a list at sizes 1..3 as
    # arguments, but never its size-0 pool (a list has at least one node),
    # so a sweep over lists up to size 3 still enumerates them.
    (ctx,) = analyze(parse_program(LIST))
    inner, outer = ctx.level(1), ctx.level(2)
    pools = runtime.pool_set(ctx, properties._pool(ctx))[0]
    runtime.enumerate_values(ctx, outer, properties._pool(ctx), 4)
    assert (inner, 0) not in pools and (inner, 3) in pools
    calls = []
    real = properties.enumerate_values
    monkeypatch.setattr(properties, "enumerate_values", lambda *a: calls.append(a) or real(*a))
    swept = [(render_value(v), row) for _, v, row in _cases(ctx, [inner], 3)]
    assert len(calls) == 1
    expected = [render_value(v) for _, v, _ in _cases(lists, [inner], 3)]
    assert [text for text, _ in swept] == expected
    table = properties.Folds(ctx).table
    assert [render_value(table[row][1]) for _, row in swept] == expected


@pytest.mark.parametrize(
    "bad, shown",
    [
        (VCon("cc", (VBase(1), VCon("leaf"))), "leaf"),
        # Matches cc's shape but not its name: the tail is not taken.
        (VCon("cc", (VBase(1), VCon("nil", (VBase(2), VCon("nil"))))), "nil 2 nil"),
    ],
    ids=["foreign-tail", "nil-with-arguments"],
)
def test_the_list_oracle_refuses_a_non_list_value(monkeypatch, lists, bad, shown):
    real = properties._own_values

    def with_bad(ctx, max_size):
        idx, _, rows, size = next(real(ctx, max_size))
        yield idx, (bad,), rows[:1], size

    monkeypatch.setattr(properties, "_own_values", with_bad)
    # the oracle's raise is the first algebra's counterexample, on the bad value
    r = check_spine_fold_agreement(Folds(lists), 2)
    assert (r.cases, r.distinct) == (1, 1)
    ce = r.counterexample
    assert (ce.value, ce.algebra) == (render_value(bad), "sum")
    assert ce.rhs == f"raised AssertionError: not a list value: {shown}"


def test_the_list_oracle_folds_a_long_list(monkeypatch, lists):
    # The oracle walks the spine in a loop, so a list far deeper than the
    # recursion limit folds; its derived side reads a real row.
    long = VCon("nil")
    for _ in range(5000):
        long = VCon("cc", (VBase(2), long))
    real = properties._own_values
    monkeypatch.setattr(
        properties, "_own_values",
        lambda ctx, max_size: (
            (idx, (long,) * len(values), rows, size)
            for idx, values, rows, size in real(ctx, max_size)
        ),
    )
    r = check_spine_fold_agreement(Folds(lists), 1)
    assert r.counterexample.lhs == "0"
    assert r.counterexample.rhs == "10000"


@pytest.mark.parametrize("src", [BUSH, LIST, BOBDYLAN], ids=["bush", "list", "bobdylan"])
def test_distinct_by_identity_is_distinct_by_value(monkeypatch, src):
    # _sweep counts each label's distinct value ids; recount the cases of
    # the same chunk stream by (value, label) equality, and check that every
    # case value is an interned one.
    (ctx,) = analyze(parse_program(src))
    real = properties._sweep
    recounts = {}

    def recounting(name, chunks, *args, **kwargs):
        values = []

        def tee():
            for chunk in chunks:
                _, chunk_values, columns = chunk
                values.extend(chunk_values)
                recounts[name].update(
                    (v, label) for v in chunk_values for label, _, _ in columns
                )
                yield chunk

        recounts[name] = set()
        result = real(name, tee(), *args, **kwargs)
        interned = {id(v) for v in ctx.interned.values()}
        assert all(id(v) in interned for v in values), name
        return result

    monkeypatch.setattr(properties, "_sweep", recounting)
    report = run_suite(ctx, 5)
    assert report.ok
    assert set(recounts) == {r.name for r in report.results}
    for r in report.results:
        assert r.distinct == len(recounts[r.name]), r.name


def test_result_lookup_by_name(bush_report):
    assert bush_report.result("map-identity").name == "map-identity"
    with pytest.raises(KeyError):
        bush_report.result("no-such-property")


def test_max_size_must_be_positive(bush):
    with pytest.raises(ValueError):
        run_suite(bush, 0)


def test_counterexample_lines_are_labelled():
    ce = Counterexample(
        "map-identity", "BushC varA", "[ 1 ]", "identity", "[ 2 ]", "[ 1 ]"
    )
    text = "\n".join(ce.lines())
    assert "counterexample for map-identity" in text
    assert "value:   [ 1 ]" in text
    assert "lhs:     [ 2 ]" in text


# ---------------------------------------------------------------------------
# The failure path, exercised by sabotaging one evaluator


def test_broken_evaluator_yields_a_replayable_counterexample(bush, monkeypatch):
    monkeypatch.setattr(properties, "prepare_ps_to_p", _BILLION)
    r = check_equivalence(Folds(bush), 4)
    assert not r.ok
    ce = r.counterexample
    assert ce.prop == "nfold-vs-nfold-prime"
    assert ce.rhs == str(10**9)
    # the reported literal parses back to a usable value
    v = parse_value_literal(ce.value, bush.program, bush.decls["Bush"])
    assert isinstance(v, (VBase, VCon))


def test_broken_map_is_caught(bush, monkeypatch):
    # map-identity folds map_algebra's identity map with prepare_nfold.
    real = properties.prepare_nfold
    monkeypatch.setattr(
        properties,
        "prepare_nfold",
        lambda ctx, alg, table: _row_fold_of(lambda row: VCon("leaf")),
    )
    r = check_map_identity(Folds(bush), 4)
    assert not r.ok
    assert r.counterexample.lhs == "leaf"
    monkeypatch.setattr(properties, "prepare_nfold", real)
    assert check_map_identity(Folds(bush), 4).ok


def test_failure_stops_the_sweep_early(bush, monkeypatch):
    monkeypatch.setattr(properties, "prepare_ps_to_p", _BILLION)
    r = check_equivalence(Folds(bush), 7)
    assert r.cases == 1


def test_an_unapplied_lift_agrees_with_nothing(bush, monkeypatch):
    # A PS node is a function of a level and a continuation: a PS-to-P that
    # hands back the lifted value without applying it returns a function,
    # which is reported, not compared structurally and not raised.
    real = properties.prepare_ps_to_p
    monkeypatch.setattr(properties, "prepare_ps_to_p", lambda ctx, alg: (
        lambda ps_to_p: lambda depth, lifted: lifted if depth else ps_to_p(depth, lifted)
    )(real(ctx, alg)))
    r = check_equivalence(Folds(bush), 4)
    assert (r.cases, r.counterexample) == (13, Counterexample(
        "nfold-vs-nfold-prime", "BushC varA", "leaf", "sum", "0", "<function>"
    ))
    node = runtime.PS()
    assert not properties._agree([node], [node])


def test_passing_suites_render_nothing(bush, lists, bobdylan, monkeypatch):
    calls = []
    real = properties.render_value

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(properties, "render_value", counted)
    for ctx, size in ((bush, 6), (lists, 4), (bobdylan, 3)):
        assert run_suite(ctx, size).ok
    assert calls == []


def test_passing_suites_render_no_index(bush, lists, bobdylan, monkeypatch):
    # An index is rendered only for a counterexample (see the SABOTAGE rows).
    import nestfold.analysis as analysis

    calls = []
    for module in (properties, analysis):
        real = module.render_index
        monkeypatch.setattr(
            module, "render_index", lambda *a, real=real, **k: calls.append(a) or real(*a, **k)
        )
    for ctx, size in ((bush, 6), (lists, 4), (bobdylan, 3)):
        assert run_suite(ctx, size).ok
    assert calls == []


@pytest.mark.parametrize(
    "side, shown",
    [
        (VCon("cons", (VCon("cons", (3, VCon("leaf"))), 4)), "cons (cons 3 leaf) 4"),
        (VCon("cons", (RFun(abs), VCon("leaf"))), "cons <function> leaf"),
        (7, "7"),
        (RFun(abs), "<function>"),
    ],
    ids=["naturals-in-slots", "function-in-a-slot", "a-natural", "a-function"],
)
def test_a_counterexample_side_renders_whatever_its_slots_hold(side, shown):
    assert render_value(side) == shown


# ---------------------------------------------------------------------------
# Cross-checks against hand-held expectations


def test_spine_fold_matches_a_worked_example(lists, bush_report):
    r = check_spine_fold_agreement(Folds(lists), 4)
    assert r.ok
    # size <= 4 means lists of length <= 3: 1 + 3 + 9 + 27 values
    assert r.cases == 40 * 2


def test_reports_are_frozen_dataclasses(bush_report):
    with pytest.raises(AttributeError):
        bush_report.results[0].cases = 0


# ---------------------------------------------------------------------------
# Every property's failure path, each made to fail by one sabotaged name


def _leaf_instead(real):
    """Lift the empty bush wherever the value argument was a bush."""

    def prepare(ctx):
        at = real(ctx)

        def leaf_at(idx):
            depth, lift = at(idx)
            return depth, lambda v, limit: lift(VCon("leaf") if isinstance(v, VCon) else v, limit)

        return leaf_at

    return prepare


def _zero_bases(real):
    """A map algebra that sends every base value to 0, whatever it was asked
    to do."""
    return lambda ctx, fs: real(ctx, {k: (lambda w: VBase(0)) for k in fs})


def _corrupt_inner_map(real):
    """An outer map that reads each base value of the inner map off by one."""

    def prepare(ctx, inner, n, table):
        def off_by_one(row):
            out = inner(row)
            return VBase(out.payload + 1) if isinstance(out, VBase) else out

        return real(ctx, off_by_one, n, table)

    return prepare


def _refold_last_argument(real):
    """A row fold that runs the method of a node's last argument row once
    more when that row is a node."""

    def prepare(ctx, alg, table):
        fold = real(ctx, alg, table)

        def fake(row):
            out = fold(row)
            args = table[row][2]
            if args and table[args[-1]][2] is not None:
                i, v, sub = table[args[-1]]
                alg.methods[v.ctor](i.args, tuple(map(fold, sub)))
            return out

        return _row_fold_of(fake)

    return prepare


SABOTAGE = [
    pytest.param(
        "bush", "check_equivalence", 5, "prepare_lift", _leaf_instead,
        18, Counterexample(
            "nfold-vs-nfold-prime", "BushC varA", "cons 0 leaf", "depth", "1", "0"
        ),
        id="nfold-vs-nfold-prime",
    ),
    pytest.param(
        "bobdylan", "check_map_identity", 4, "map_algebra", _zero_bases,
        2, Counterexample("map-identity", "varA", "1", "identity", "0", "1"),
        id="map-identity",
    ),
    pytest.param(
        "bush", "check_map_composition", 5, "prepare_map_over", _corrupt_inner_map,
        1, Counterexample("map-composition", "varA split 0+0", "0", "add1", "1", "2"),
        id="map-composition",
    ),
    pytest.param(
        "bush", "check_hfold_conformance", 5, "eval_hfold_direct",
        lambda real: lambda ctx, halg, v, limit=None: real(ctx, halg, VCon("leaf"), limit),
        5, Counterexample(
            "hfold-conformance", "BushC varA", "cons 0 leaf", "rebuild",
            "cons 0 leaf", "leaf",
        ),
        id="hfold-conformance",
    ),
    pytest.param(
        "bush", "check_hfold_leaf", 5, "eval_hfold_via_nfold",
        lambda real: lambda ctx, halg, decl, v: real(
            ctx, halg, decl, VCon("cons", (VBase(1), VCon("leaf")))
        ),
        1, Counterexample(
            "hfold-leaf-equation", "BushC varA", "leaf", "sum-naive", "1", "0"
        ),
        id="hfold-leaf-equation",
    ),
    pytest.param(
        "bush", "check_hmap_agreement", 5, "eval_hmap_direct",
        lambda real: lambda ctx, f, v, limit=None: real(ctx, lambda x: x, v, limit),
        3, Counterexample(
            "hmap-agreement", "BushC varA", "cons 0 leaf", "add1",
            "cons 1 leaf", "cons 0 leaf",
        ),
        id="hmap-agreement",
    ),
    pytest.param(
        "bush", "check_hmap_cons", 5, "prepare_map",
        lambda real: lambda ctx, fs, table: _row_fold_of(lambda row: table[row][1]),
        3, Counterexample(
            "hmap-cons-equation", "BushC varA", "cons 0 leaf", "add1",
            "cons 0 leaf", "cons 1 leaf",
        ),
        id="hmap-cons-equation",
    ),
    pytest.param(
        "bobdylan", "check_ind_agreement", 4, "prepare_ind",
        lambda real: lambda ctx, alg, table: _row_fold_of(lambda row: 0),
        3, Counterexample("ind-agreement", "varA", "0", "trace", "0", "@varA 0"),
        id="ind-agreement",
    ),
    pytest.param(
        "lists", "check_spine_fold_agreement", 4, "prepare_nfold",
        lambda real: lambda ctx, alg, table: _row_fold_of(lambda row: 0),
        4, Counterexample(
            "spine-fold-agreement", "ListC varA", "cc 0 nil", "length", "0", "1"
        ),
        id="spine-fold-agreement",
    ),
    pytest.param(
        "lists", "check_call_counter", 4, "_values",
        lambda real: lambda *args: (
            (idx, values, rows, -1) for idx, values, rows, _ in real(*args)
        ),
        1, Counterexample(
            "call-counter-bound", "varA", "0", "nfold", "0 calls", "size bound -1"
        ),
        id="call-counter-bound",
    ),
    pytest.param(
        "lists", "check_call_counter", 4, "prepare_nfold", _refold_last_argument,
        13, Counterexample(
            "call-counter-bound", "ListC varA", "cc 0 nil", "nfold", "3 calls", "size bound 2"
        ),
        id="call-counter-bound-over-recursion",
    ),
]


@pytest.mark.parametrize(
    "group, check, size, name, sabotage, cases, expected", SABOTAGE
)
def test_every_property_reports_its_first_failure(
    request, monkeypatch, group, check, size, name, sabotage, cases, expected
):
    ctx = request.getfixturevalue(group)
    monkeypatch.setattr(properties, name, sabotage(getattr(properties, name)))
    r = getattr(properties, check)(Folds(ctx), size)
    assert (r.name, r.cases, r.counterexample) == (expected.prop, cases, expected)


# ---------------------------------------------------------------------------
# Prepared folds


@pytest.mark.parametrize("group, sizes", [("lists", (4, 6)), ("bush", (6, 8))])
def test_the_suite_checks_each_algebra_once_per_property(request, monkeypatch, group, sizes):
    # The fold store prepares each fold once per suite, at its first use,
    # so the algebras checked do not depend on how many cases the sweeps have.
    ctx = request.getfixturevalue(group)
    real = runtime.check_algebra
    checked = []
    monkeypatch.setattr(
        runtime, "check_algebra", lambda ctx, alg: checked.append(alg.name) or real(ctx, alg)
    )
    runs = []
    for size in sizes:
        checked.clear()
        report = run_suite(ctx, size)
        assert report.ok
        runs.append((list(checked), report.total_cases))
    (small, small_cases), (large, large_cases) = runs
    assert small == large
    assert 0 < len(small) < small_cases < large_cases


def test_a_finished_suite_leaves_its_context_to_reference_counting():
    # The context holds every pool and interned value; were it kept in a
    # reference cycle, it would outlive its command until the cyclic
    # collector ran.
    (ctx,) = analyze(parse_program(LIST))
    watch = weakref.ref(ctx)
    gc.disable()
    try:
        assert run_suite(ctx, 4).ok
        del ctx
        assert watch() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The roster: which properties each shape of group runs

_EVERY = ["map-identity", "ind-agreement", "call-counter-bound"]
_NAT = ["map-identity", "map-composition", "ind-agreement", "call-counter-bound"]
_LIST = [
    "map-identity", "map-composition", "ind-agreement", "spine-fold-agreement",
    "call-counter-bound",
]
_BUSH = [
    "nfold-vs-nfold-prime", "map-identity", "map-composition", "hfold-conformance",
    "hfold-leaf-equation", "hmap-agreement", "hmap-cons-equation", "ind-agreement",
    "call-counter-bound",
]

#: The property names run_suite reports, per group of at most 3 parameters
#: (wider index universes take too long to sweep; see ROADMAP item 3).
ROSTERS = {
    **{which: _BUSH for which in BUSHES},
    "lists": _LIST,
    "t-s": _LIST,
    "swapped-bush": _NAT,
    "tree": _NAT,
    "two-param-list": [
        "map-identity", "ind-agreement", "spine-fold-agreement", "call-counter-bound"
    ],
    **{which: _EVERY for which in ["bobdylan", "two-params", "three-params", "no-params",
                                   "XYW", "XY-x0-x1-y"]},
}


@pytest.mark.parametrize("which", ROSTERS)
def test_suite_roster(which):
    (ctx,) = analyze(parse_program({**SOURCES, **SHAPES}[which]))
    assert [r.name for r in run_suite(ctx, 2).results] == ROSTERS[which]


def test_the_roster_covers_every_narrow_group():
    narrow = {
        which for which, src in {**SOURCES, **SHAPES}.items()
        if analyze(parse_program(src))[0].base_var_count <= 3
    }
    assert ROSTERS.keys() == narrow


# ---------------------------------------------------------------------------
# The call counter's row counts


def _flat(chunks):
    """The (place, value, label, lhs, rhs) cases of a chunk stream whose
    columns are whole."""
    return [
        (place, v, label, lhs[j], rhs[j])
        for place, values, columns in chunks
        for j, v in enumerate(values)
        for label, (lhs, _), (rhs, _) in columns
    ]


def _counted_cases(monkeypatch, ctx, size):
    """The (index, value, label, count, bound) cases call-counter-bound compares."""
    with monkeypatch.context() as patch:
        patch.setattr(properties, "_sweep", lambda name, chunks, ctx, **kw: _flat(chunks))
        return properties.check_call_counter(Folds(ctx), size)


#: Every narrow group (see ROSTERS) with the size its counts are checked at.
_COUNTED = {
    "lists": 5, "bush": 6, "bobdylan": 3,
    **{which: 3 for which in PROBES if which in ROSTERS},
}


@pytest.mark.parametrize("which", _COUNTED)
def test_a_row_count_is_what_a_fold_of_the_value_alone_counts(monkeypatch, which):
    (ctx,) = analyze(parse_program(SOURCES[which]))
    cases = _counted_cases(monkeypatch, ctx, _COUNTED[which])
    calls = [0]
    total = runtime.catalogue(ctx)["sum"]
    algs = {
        "nfold": _counted(total, calls),
        "ind": _counted(properties._ignore_values(total), calls),
    }
    # eval_map builds its algebra through map_algebra: count that one
    real = runtime.map_algebra
    monkeypatch.setattr(runtime, "map_algebra", lambda c, fs: _counted(real(c, fs), calls))
    identity = {k: (lambda v: v) for k in range(ctx.base_var_count)}
    folds = {
        "nfold": lambda idx, v: runtime.eval_nfold(ctx, algs["nfold"], idx, v),
        "nmap": lambda idx, v: runtime.eval_map(ctx, identity, idx, v),
        "ind": lambda idx, v: runtime.eval_ind(ctx, algs["ind"], idx, v),
    }
    assert {label for _, _, label, _, _ in cases} == folds.keys()
    for idx, v, label, count, bound in cases:
        calls[0] = 0
        folds[label](idx, v)
        assert (count, count <= bound) == (calls[0], True), (label, render_value(v))


@pytest.mark.parametrize("which", ["lists", "bush", "bobdylan"])
def test_a_refolded_last_argument_exceeds_the_bound(request, monkeypatch, which):
    # Over-recursion, a node's last argument folded once more, must show in
    # the row counts, not be hidden by counting each row once.
    ctx = request.getfixturevalue(which)
    size = _COUNTED[which]
    monkeypatch.setattr(
        properties, "prepare_nfold", _refold_last_argument(properties.prepare_nfold)
    )
    over = [label for _, _, label, count, bound in _counted_cases(monkeypatch, ctx, size)
            if count > bound]
    assert over and set(over) <= {"nfold", "nmap"}


# ---------------------------------------------------------------------------
# One fold store per suite

#: Every sample and narrow PROBES group (see ROSTERS), at a size in 3..4.
_STORED = {
    "lists": 4, "bush": 4, "bobdylan": 4,
    **{which: 3 for which in PROBES if which in ROSTERS},
}

#: The prepare_* function each kind of store key is prepared by.
_PREPARED_BY = {
    "nfold": "prepare_nfold", "hfold": "prepare_nfold", "map": "prepare_map",
    "ind": "prepare_ind", "over": "prepare_map_over",
}

#: The two halves of nfold', which nfold-vs-nfold-prime prepares outside the store.
_NFOLD_PRIME = ("prepare_lift", "prepare_ps_to_p")


def _prepared_by(key):
    # The identity map is counted, so it is nfold at its map algebra.
    return "prepare_nfold" if key == ("map", "identity") else _PREPARED_BY[key[0]]

#: The check_* function of each property.
_CHECK_OF = {
    "nfold-vs-nfold-prime": "check_equivalence",
    "map-identity": "check_map_identity",
    "map-composition": "check_map_composition",
    "hfold-conformance": "check_hfold_conformance",
    "hfold-leaf-equation": "check_hfold_leaf",
    "hmap-agreement": "check_hmap_agreement",
    "hmap-cons-equation": "check_hmap_cons",
    "ind-agreement": "check_ind_agreement",
    "spine-fold-agreement": "check_spine_fold_agreement",
    "call-counter-bound": "check_call_counter",
}


@pytest.fixture(scope="module", params=_STORED)
def watched_suite(request):
    """One suite on a fresh context, with what it prepared: each prepare_*
    call by name (and its algebra's name, for PS-to-P), each catalogue built,
    each key its fold store filled in, and the RowFold.fill calls made
    inside call-counter-bound."""
    (ctx,) = analyze(parse_program(SOURCES[request.param]))
    prepared, catalogues, keys, fills = [], [], [], []

    class Recording(properties.Folds):
        def __setitem__(self, key, fold):
            keys.append(key)
            super().__setitem__(key, fold)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(properties, "Folds", Recording)
        for name in {*_PREPARED_BY.values(), *_NFOLD_PRIME}:
            real = getattr(properties, name)
            patch.setattr(properties, name, lambda *a, name=name, real=real: (
                prepared.append((name, a[1].name if name == "prepare_ps_to_p" else None))
                or real(*a)
            ))
        for name in ("catalogue", "halg_catalogue"):
            real = getattr(properties, name)
            patch.setattr(properties, name, lambda ctx, name=name, real=real: (
                catalogues.append(name) or real(ctx)
            ))
        real_counter, real_fill = properties.check_call_counter, runtime.RowFold.fill

        def counter(folds, max_size):
            with pytest.MonkeyPatch.context() as inside:
                inside.setattr(runtime.RowFold, "fill", lambda *a: fills.append(a) or real_fill(*a))
                return real_counter(folds, max_size)

        patch.setattr(properties, "check_call_counter", counter)
        report = run_suite(ctx, _STORED[request.param])
    return ctx, report, prepared, catalogues, keys, fills


def test_a_suite_prepares_each_fold_once(watched_suite):
    ctx, report, prepared, catalogues, keys, fills = watched_suite
    assert report.ok
    # Each key is filled in once, by one prepare_* call, and no fold is
    # prepared outside the store.
    assert len(keys) == len(set(keys))
    assert Counter(name for name, _ in prepared if name not in _NFOLD_PRIME) == Counter(
        map(_prepared_by, keys)
    )
    # nfold' is prepared by nfold-vs-nfold-prime alone: its lift, which takes
    # no algebra, once, and its PS-to-P once per algebra.
    lifts = [name for name, _ in prepared if name == "prepare_lift"]
    primes = [alg for name, alg in prepared if name == "prepare_ps_to_p"]
    bushy = "nfold-vs-nfold-prime" in [r.name for r in report.results]
    assert len(lifts) == bushy
    assert sorted(primes) == (sorted(runtime.catalogue(ctx)) if bushy else [])
    # Each catalogue is built once, with the store, and every check reads it there.
    assert sorted(catalogues) == ["catalogue", "halg_catalogue"]
    # call-counter-bound counts the folds the other properties filled.
    assert {("nfold", "sum"), ("ind", "sum"), ("map", "identity")} <= set(keys)
    assert fills == []


def test_the_suite_lifts_each_swept_value_once(bush, monkeypatch):
    # The lift takes no algebra, so nfold-vs-nfold-prime lifts a value once
    # and peels it at every algebra.
    real, lifted = properties.prepare_lift, []

    def counted(ctx):
        at = real(ctx)

        def counted_at(idx):
            depth, lift = at(idx)
            return depth, lambda v, limit: lifted.append((idx, id(v))) or lift(v, limit)

        return counted_at

    monkeypatch.setattr(properties, "prepare_lift", counted)
    r = run_suite(bush, 8).result("nfold-vs-nfold-prime")
    algs = len(runtime.catalogue(bush))
    # one lift per (index, value) case, and the cases and distinct counts of bush@8
    assert (len(lifted), len(set(lifted))) == (131, 131)
    assert (r.cases, r.distinct) == (131 * algs, 125 * algs)


def test_a_raising_lift_ends_every_algebras_column_at_its_value(bush, monkeypatch):
    # With a guard of 0 the first lift below the base level raises; every
    # algebra's column ends there with that one exception, and the first
    # algebra's case at that value is the counterexample, its rhs the raise.
    columns = []
    real_sweep = properties._sweep

    def watched(name, chunks, ctx, **kw):
        def seen():
            for place, values, cols in chunks:
                columns.append((place, len(values), [(label, rhs) for label, _, rhs in cols]))
                yield place, values, cols

        return real_sweep(name, seen(), ctx, **kw)

    monkeypatch.setattr(properties, "_sweep", watched)
    monkeypatch.setattr(properties, "guard", lambda size, idx_depth=0: 0)
    r = check_equivalence(Folds(bush), 5)
    place, n, rhs = columns[-1]
    assert (place, n) == (bush.level(1), 1)
    ((_, (_, raised)), *_) = rhs
    assert isinstance(raised, GuardExceeded)
    assert [(label, results, error) for label, (results, error) in rhs] == [
        (label, [], raised) for label in runtime.catalogue(bush)
    ]
    # the chunks before it, at the base level, are whole
    assert all(len(col[0]) == m for _, m, cols in columns[:-1] for _, col in cols)
    assert str(raised).startswith("direct-recursion depth exceeded 0;")
    base = sum(m for _, m, _ in columns[:-1]) * len(rhs)
    assert (r.cases, r.distinct) == (base + 1, base + 1)
    ce = r.counterexample
    assert (ce.index, ce.value, ce.algebra, ce.lhs) == ("BushC varA", "leaf", "sum", "0")
    assert ce.rhs == f"raised GuardExceeded: {raised}"


def test_a_check_alone_reports_what_it_reports_in_the_suite(watched_suite):
    ctx, report, *_ = watched_suite
    for r in report.results:
        assert getattr(properties, _CHECK_OF[r.name])(Folds(ctx), report.max_size) == r


def test_an_over_recursing_fold_fails_only_the_call_counter_in_the_suite(lists, monkeypatch):
    (row,) = [p for p in SABOTAGE if p.id == "call-counter-bound-over-recursion"]
    _, _, size, name, sabotage, cases, expected = row.values
    monkeypatch.setattr(properties, name, sabotage(getattr(properties, name)))
    report = run_suite(lists, size)
    assert [(r.name, r.cases, r.counterexample) for r in report.results if not r.ok] == [
        ("call-counter-bound", cases, expected)
    ]


def test_a_finished_suite_frees_its_fold_store_by_reference_counting(bush, monkeypatch):
    # The store and every fold's results live until run_suite returns at the
    # latest, and a fold that ind-agreement and the properties after it do
    # not read is freed before it.  A VCon takes no weak reference, so the
    # function of a cps-sum result is watched, and the store itself.
    watch, freed_before_ind = [], []
    conformance, counter = properties.check_hfold_conformance, properties.check_call_counter
    ind = properties.check_ind_agreement

    def watching_conformance(folds, max_size):
        result = conformance(folds, max_size)
        cps = next(r for r in folds["hfold", "cps-sum"].results if isinstance(r, RFun))
        watch.append(weakref.ref(cps.fn))
        return result

    def watching_counter(folds, max_size):
        watch.append(weakref.ref(folds))
        return counter(folds, max_size)

    def watching_ind(folds, max_size):
        freed_before_ind.append(watch[0]() is None)
        return ind(folds, max_size)

    monkeypatch.setattr(properties, "check_hfold_conformance", watching_conformance)
    monkeypatch.setattr(properties, "check_ind_agreement", watching_ind)
    monkeypatch.setattr(properties, "check_call_counter", watching_counter)
    gc.collect()
    gc.disable()
    try:
        assert run_suite(bush, 4).ok
        assert freed_before_ind == [True]
        assert len(watch) == 2 and [w() for w in watch] == [None, None]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The chunk store: the family's chunks, enumerated once per fold store

#: Groups whose suites the chunk store is checked on, at their size.
_CHUNKED = {"lists": 4, "bush": 5, "bobdylan": 4, "two-params": 3, "XYW": 3}


def _family(ctx):
    return list(map(ctx.canonical, properties._suite_indices(ctx)))


@pytest.mark.parametrize("which", _CHUNKED)
def test_a_suite_enumerates_each_family_index_at_most_once(monkeypatch, which):
    # The store enumerates the family once for every check, and an index
    # that no value within the bound fits is never enumerated.
    (ctx,) = analyze(parse_program(SOURCES[which]))
    size, calls, real = _CHUNKED[which], [], properties.enumerate_values
    monkeypatch.setattr(
        properties, "enumerate_values",
        lambda ctx, idx, *a: calls.append(idx) or real(ctx, idx, *a),
    )
    assert run_suite(ctx, size).ok
    family, counts = _family(ctx), Counter(calls)
    unfit = {idx for idx in family if ctx.least_size(idx, size) > size}
    assert all(counts[idx] <= 1 for idx in family)
    assert not unfit & counts.keys()
    if which == "bobdylan":  # 22 of the 74 indices at depth <= 2 hold a value
        assert (len(family), len(family) - len(unfit)) == (74, 22)


def _every_index_chunks(ctx, max_size):
    """The family's chunks as built when every family index is enumerated,
    whether any value fits it or not."""
    pool = properties._pool(ctx)
    pools = runtime.pool_set(ctx, pool)[0]
    for idx in _family(ctx):
        runtime.enumerate_values(ctx, idx, pool, max_size)
    return [
        (idx, *pools[idx, size], size)
        for idx in _family(ctx)
        for size in range(max_size + 1)
        if pools[idx, size][0]
    ]


@pytest.mark.parametrize("which", _CHUNKED)
def test_the_chunk_store_builds_what_enumerating_every_index_builds(which):
    # Skipping the indices no value fits leaves the chunk stream, the row
    # table and the intern table as they are, order included.
    size = _CHUNKED[which]
    (skipping,), (every,) = (analyze(parse_program(SOURCES[which])) for _ in range(2))
    folds = Folds(skipping)
    chunks = folds.chunks(size)
    assert folds.chunks(size) is chunks
    assert chunks == _every_index_chunks(every, size)
    assert folds.table == runtime.pool_set(every, properties._pool(every))[1]
    assert list(skipping.interned.values()) == list(every.interned.values())


def test_no_check_enumerates_the_family_itself():
    # The store enumerates the family's chunks (Folds.chunks), and every
    # check reads them there.  Only map-composition calls _values, on a
    # list of levels, the deepest of which lies outside the family.
    tree = ast.parse(Path(properties.__file__).read_text())
    users = defaultdict(set)
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                users[node.id].add(getattr(top, "name", None))
    assert users["_values"] == {"Folds", "check_map_composition"}
    assert users["_suite_indices"] == {"Folds"}
    assert users["enumerate_indices"] == {"_suite_indices"}
    (composition,) = [
        top for top in tree.body if getattr(top, "name", None) == "check_map_composition"
    ]
    calls = [
        node for node in ast.walk(composition)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_values"
    ]
    assert calls and all(isinstance(call.args[1], ast.List) for call in calls)


# ---------------------------------------------------------------------------
# The chunk sweep against a per-case loop


#: The one function result the generated columns hold, on both sides.
_FUN = RFun(abs)


@st.composite
def _sweep_plans(draw):
    """Chunk sizes, labels and, per (label, side), a column plan: read off a
    row fold or mapped over the values, its result at each position, and
    the positions (rows) where it raises.  The rhs differs from the lhs at
    a few chosen positions, and both sides hold _FUN at a few others."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    total = sum(sizes)
    positions = st.integers(0, total - 1)
    plans = {}
    for label in ["a", "b", "c"][: draw(st.integers(1, 3))]:
        lhs = draw(st.lists(st.integers(0, 2), min_size=total, max_size=total))
        for k in draw(st.sets(positions, max_size=1)):
            lhs[k] = _FUN
        rhs = list(lhs)
        for k in draw(st.sets(positions, max_size=2)):
            rhs[k] = 3
        for side, results in (("lhs", lhs), ("rhs", rhs)):
            kind = draw(st.sampled_from(["rows", "values"]))
            plans[label, side] = kind, results, draw(st.sets(positions, max_size=2))
    return sizes, plans, draw(st.booleans())


def _raised_at(label, side, k):
    return EvalError(f"{label} {side} raised at {k}")


def _raise_at(label, side, k):
    raise _raised_at(label, side, k)


def _chunk_stream(sizes, plans, values):
    """The chunks _sweep reads: each row-fold column a slice of one RowFold
    over every position, each value column its oracle mapped over values."""
    folds = {}
    for (label, side), (kind, results, raises) in plans.items():
        if kind == "rows":
            def fill(rs, stop, label=label, side=side, results=results, raises=raises):
                for r in range(len(rs), stop):
                    if r in raises:
                        _raise_at(label, side, r)
                    rs.append(results[r])

            folds[label, side] = runtime.RowFold(fill)
    labels = list(dict.fromkeys(label for label, _ in plans))
    start = 0
    for c, size in enumerate(sizes):
        rows = range(start, start + size)
        start += size
        columns = []
        for label in labels:
            pair = []
            for side in ("lhs", "rhs"):
                kind, results, raises = plans[label, side]
                if kind == "rows":
                    pair.append(properties._rows(folds[label, side], rows))
                else:
                    oracle = lambda v, label=label, side=side, results=results, raises=raises: (
                        _raise_at(label, side, v.payload) if v.payload in raises
                        else results[v.payload]
                    )
                    pair.append(properties._map(oracle, values[rows.start : rows.stop]))
            columns.append((label, *pair))
        yield c, tuple(values[rows.start : rows.stop]), columns


def _per_case(sizes, plans, values):
    """The same cases one at a time, each side its result or the exception it
    raises: a row fold at position k raises at the first raising row up to
    k, a value oracle at k raises if k does."""

    def side_at(label, side, k):
        kind, results, raises = plans[label, side]
        below = [r for r in raises if r <= k] if kind == "rows" else [k] if k in raises else []
        return _raised_at(label, side, min(below)) if below else results[k]

    labels = list(dict.fromkeys(label for label, _ in plans))
    start = 0
    for c, size in enumerate(sizes):
        for k in range(start, start + size):
            for label in labels:
                yield c, values[k], label, side_at(label, "lhs", k), side_at(label, "rhs", k)
        start += size


def _reference_sweep(cases, agree):
    """The per-case loop: count each case, stop at the first that raises on
    a side or disagrees."""
    count, seen = 0, defaultdict(set)
    shown = lambda side: (
        f"raised {type(side).__name__}: {side}"
        if isinstance(side, Exception) else render_value(side)
    )
    for place, value, label, lhs, rhs in cases:
        count += 1
        seen[label].add(id(value))
        if isinstance(lhs, Exception) or isinstance(rhs, Exception) or not agree(lhs, rhs):
            sides = shown(lhs), shown(rhs)
            ce = Counterexample("p", f"chunk {place}", render_value(value), label, *sides)
            return PropertyResult("p", count, sum(map(len, seen.values())), ce)
    return PropertyResult("p", count, sum(map(len, seen.values())))


@given(_sweep_plans())
def test_the_chunk_sweep_is_the_per_case_sweep(plan):
    # A raise at a later case cannot hide an earlier counterexample, nor the
    # reverse, whether a column is read off a row fold or mapped over values;
    # a raise is its case's counterexample.
    sizes, plans, bounded = plan
    values = [VBase(k) for k in range(sum(sizes))]
    if bounded:
        one = lambda lhs, rhs: lhs is not _FUN and rhs is not _FUN and lhs <= rhs
        agree = lambda lhs, rhs: all(map(one, lhs, rhs))
        kw = {"agree": agree}
    else:
        one = lambda lhs, rhs: not (isinstance(lhs, RFun) or isinstance(rhs, RFun)) and lhs == rhs
        kw = {}
    got = properties._sweep(
        "p", _chunk_stream(sizes, plans, values), None,
        where=lambda place, ctx: f"chunk {place}", **kw,
    )
    assert got == _reference_sweep(_per_case(sizes, plans, values), one)


def test_a_function_result_agrees_with_nothing_not_even_itself(monkeypatch, lists):
    # A list comparison takes one object for equal to itself; the sweep must not.
    shared = _row_fold_of(lambda row: _FUN)
    for name in ("prepare_ind", "prepare_nfold"):
        monkeypatch.setattr(properties, name, lambda ctx, alg, table: shared)
    ce = check_ind_agreement(Folds(lists), 3).counterexample
    assert (ce.lhs, ce.rhs, ce.value) == ("<function>", "<function>", "0")
