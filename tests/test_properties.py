"""Property-suite tests.

The exact case counts pinned here come from hand arithmetic over the
enumerator's size metric (constructor nodes only, base pool {0,1,2}):
lists of length <= 6 over a 3-element pool number 3^0+...+3^6 = 1093, and
the bush sweep at size <= 7 across index depths 0..3 yields 74 values.
"""

import gc
import weakref

import pytest

from nestfold.analysis import analyze
from nestfold.parser import VBase, VCon, parse_program, parse_value_literal, render_value
from nestfold.properties import (
    Counterexample,
    PropertyResult,
    SuiteReport,
    check_equivalence,
    check_map_identity,
    check_spine_fold_agreement,
    run_suite,
)
import nestfold.properties as properties
import nestfold.runtime as runtime
from nestfold.runtime import RFun

from test_derivation import BUSHES, SHAPES, SOURCES
from test_parser import BOBDYLAN, BUSH, LIST


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
    r = check_equivalence(bush, 8)
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


@pytest.mark.parametrize("src", [BUSH, LIST, BOBDYLAN], ids=["bush", "list", "bobdylan"])
def test_distinct_by_identity_is_distinct_by_value(monkeypatch, src):
    # _sweep counts (id(value), label) pairs; recount the same case stream by
    # value equality, and check that every case value is an interned one.
    (ctx,) = analyze(parse_program(src))
    real = properties._sweep
    recounts = {}

    def recounting(name, cases, *args, **kwargs):
        values = []

        def tee():
            for case in cases:
                values.append(case[1])
                recounts[name].add((case[1], case[2]))
                yield case

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
    monkeypatch.setattr(
        properties, "prepare_nfold_prime", lambda ctx, alg: lambda idx, v: 10**9
    )
    r = check_equivalence(bush, 4)
    assert not r.ok
    ce = r.counterexample
    assert ce.prop == "nfold-vs-nfold-prime"
    assert ce.rhs == str(10**9)
    # the reported literal parses back to a usable value
    v = parse_value_literal(ce.value, bush.program, bush.decls["Bush"])
    assert isinstance(v, (VBase, VCon))


def test_broken_map_is_caught(bush, monkeypatch):
    real = properties.prepare_map
    monkeypatch.setattr(
        properties,
        "prepare_map",
        lambda ctx, fs, memo=None: lambda idx, v: VCon("leaf"),
    )
    r = check_map_identity(bush, 4)
    assert not r.ok
    assert r.counterexample.lhs == "leaf"
    monkeypatch.setattr(properties, "prepare_map", real)
    assert check_map_identity(bush, 4).ok


def test_failure_stops_the_sweep_early(bush, monkeypatch):
    monkeypatch.setattr(
        properties, "prepare_nfold_prime", lambda ctx, alg: lambda idx, v: 10**9
    )
    r = check_equivalence(bush, 7)
    assert r.cases == 1


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
    r = check_spine_fold_agreement(lists, 4)
    assert r.ok
    # size <= 4 means lists of length <= 3: 1 + 3 + 9 + 27 values
    assert r.cases == 40 * 2


def test_reports_are_frozen_dataclasses(bush_report):
    with pytest.raises(AttributeError):
        bush_report.results[0].cases = 0


# ---------------------------------------------------------------------------
# Every property's failure path, each made to fail by one sabotaged name


def _leaf_instead(real):
    """Evaluate the empty bush wherever the value argument was a bush."""

    def prepare(ctx, alg):
        fold = real(ctx, alg)
        return lambda idx, v: fold(idx, VCon("leaf") if isinstance(v, VCon) else v)

    return prepare


def _zero_bases(real):
    """A map that sends every base value to 0, whatever it was asked to do."""
    return lambda ctx, fs, memo=None: real(ctx, {k: (lambda w: VBase(0)) for k in fs}, memo)


def _corrupt_inner_map(real):
    """A map that is right at the top level and off by one when nested."""
    depth = [0]

    def prepare(ctx, fs, memo=None):
        fold = real(ctx, fs, memo)

        def fake(idx, v):
            depth[0] += 1
            try:
                out = fold(idx, v)
            finally:
                depth[0] -= 1
            if depth[0] > 0 and isinstance(out, VBase):
                return VBase(out.payload + 1)
            return out

        return fake

    return prepare


def _refold_last_argument(real):
    """A fold that folds a node's last argument once more when it is a node."""

    def prepare(ctx, alg, memo=None):
        fold = real(ctx, alg, memo)

        def fake(idx, v):
            out = fold(idx, v)
            if isinstance(v, VCon) and v.args and isinstance(v.args[-1], VCon):
                fold(ctx.ctors_at(idx, v.ctor)[-1], v.args[-1])
            return out

        return fake

    return prepare


SABOTAGE = [
    pytest.param(
        "bush", "check_equivalence", (5,), "prepare_nfold_prime", _leaf_instead,
        18, Counterexample(
            "nfold-vs-nfold-prime", "BushC varA", "cons 0 leaf", "depth", "1", "0"
        ),
        id="nfold-vs-nfold-prime",
    ),
    pytest.param(
        "bobdylan", "check_map_identity", (4,), "prepare_map", _zero_bases,
        2, Counterexample("map-identity", "varA", "1", "identity", "0", "1"),
        id="map-identity",
    ),
    pytest.param(
        "bush", "check_map_composition", (5,), "prepare_map", _corrupt_inner_map,
        1, Counterexample("map-composition", "varA split 0+0", "0", "add1", "1", "2"),
        id="map-composition",
    ),
    pytest.param(
        "bush", "check_hfold_conformance", (5,), "eval_hfold_direct",
        lambda real: lambda ctx, halg, v: real(ctx, halg, VCon("leaf")),
        5, Counterexample(
            "hfold-conformance", "BushC varA", "cons 0 leaf", "rebuild",
            "cons 0 leaf", "leaf",
        ),
        id="hfold-conformance",
    ),
    pytest.param(
        "bush", "check_hfold_leaf", (), "eval_hfold_via_nfold",
        lambda real: lambda ctx, halg, decl, v: real(
            ctx, halg, decl, VCon("cons", (VBase(1), VCon("leaf")))
        ),
        1, Counterexample(
            "hfold-leaf-equation", "BushC varA", "leaf", "sum-naive", "1", "0"
        ),
        id="hfold-leaf-equation",
    ),
    pytest.param(
        "bush", "check_hmap_agreement", (5,), "eval_hmap_direct",
        lambda real: lambda ctx, f, v: real(ctx, lambda x: x, v),
        3, Counterexample(
            "hmap-agreement", "BushC varA", "cons 0 leaf", "add1",
            "cons 1 leaf", "cons 0 leaf",
        ),
        id="hmap-agreement",
    ),
    pytest.param(
        "bush", "check_hmap_cons", (5,), "prepare_map",
        lambda real: lambda ctx, fs, memo=None: lambda idx, v: v,
        3, Counterexample(
            "hmap-cons-equation", "BushC varA", "cons 0 leaf", "add1",
            "cons 0 leaf", "cons 1 leaf",
        ),
        id="hmap-cons-equation",
    ),
    pytest.param(
        "bobdylan", "check_ind_agreement", (4,), "prepare_ind",
        lambda real: lambda ctx, alg, memo=None: lambda idx, v: 0,
        3, Counterexample("ind-agreement", "varA", "0", "trace", "0", "@varA 0"),
        id="ind-agreement",
    ),
    pytest.param(
        "lists", "check_spine_fold_agreement", (4,), "prepare_nfold",
        lambda real: lambda ctx, alg, memo=None: lambda idx, v: 0,
        4, Counterexample(
            "spine-fold-agreement", "ListC varA", "cc 0 nil", "length", "0", "1"
        ),
        id="spine-fold-agreement",
    ),
    pytest.param(
        "lists", "check_call_counter", (4,), "value_size",
        lambda real: lambda v: -1,
        1, Counterexample(
            "call-counter-bound", "varA", "0", "nfold", "0 calls", "size bound -1"
        ),
        id="call-counter-bound",
    ),
    pytest.param(
        "lists", "check_call_counter", (4,), "prepare_nfold", _refold_last_argument,
        13, Counterexample(
            "call-counter-bound", "ListC varA", "cc 0 nil", "nfold", "3 calls", "size bound 2"
        ),
        id="call-counter-bound-over-recursion",
    ),
]


@pytest.mark.parametrize(
    "group, check, args, name, sabotage, cases, expected", SABOTAGE
)
def test_every_property_reports_its_first_failure(
    request, monkeypatch, group, check, args, name, sabotage, cases, expected
):
    ctx = request.getfixturevalue(group)
    monkeypatch.setattr(properties, name, sabotage(getattr(properties, name)))
    r = getattr(properties, check)(ctx, *args)
    assert (r.name, r.cases, r.counterexample) == (expected.prop, cases, expected)


# ---------------------------------------------------------------------------
# Prepared folds


@pytest.mark.parametrize("group, sizes", [("lists", (4, 6)), ("bush", (6, 8))])
def test_the_suite_checks_each_algebra_once_per_property(request, monkeypatch, group, sizes):
    # Every property prepares its folds before its sweep, so the algebras
    # checked do not depend on how many cases the sweep has.
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
# The call counter's replay memo


class _HitCountingMemo(properties._ReplayMemo):
    hits = 0

    def get(self, key):
        r = super().get(key)
        self.hits += r is not None
        return r


@pytest.mark.parametrize("refold", [False, True], ids=["fold", "refold-last-argument"])
@pytest.mark.parametrize("group, size", [("lists", 5), ("bush", 6), ("bobdylan", 3)])
def test_the_replay_memo_counts_what_a_fold_without_one_counts(request, group, size, refold):
    # Over-recursion (a node's last argument folded once more) must be
    # replayed, not hidden, and the memo must hit to be worth having.
    ctx = request.getfixturevalue(group)
    calls = [0]
    over_bound = 0
    for label, prepare, alg in properties._counted_runs(ctx, calls):
        if refold:
            prepare = _refold_last_argument(prepare)
        memo = _HitCountingMemo(calls)
        folds = (prepare(ctx, alg), prepare(ctx, alg, memo))
        for idx, v in properties._values(ctx, properties._suite_indices(ctx), size):
            counts = []
            for fold in folds:
                calls[0] = 0
                fold(idx, v)
                counts.append(calls[0])
            assert counts[0] == counts[1], (label, render_value(v))
            assert memo.starts == []
            over_bound += counts[0] > properties.value_size(v)
        assert memo.hits > 0, label
    assert (over_bound > 0) == refold


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
        if analyze(parse_program(src))[0].spec.base_var_count <= 3
    }
    assert ROSTERS.keys() == narrow
