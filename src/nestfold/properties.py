"""Exhaustive checks that the derived evaluators agree with their oracles.

Every property sweeps enumerate_values over a fixed family of indices, so a
report is reproducible from the declaration file and the size bound alone —
nothing here is randomized.  A property stops at its first failing case and
reports it as a replayable counterexample.

Every property prepares its folds (runtime.prepare_*) before its sweep, once
per algebra or map function and its memo, so no case checks or builds an
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .analysis import (
    GroupContext,
    IndexExpr,
    IndexTypeSpec,
    enumerate_indices,
    render_index,
)
from .parser import VBase, VCon, Value, render_value, value_size
from .runtime import (
    Algebra,
    Fold,
    RFun,
    catalogue,
    enumerate_values,
    eval_hfold_direct,
    eval_hfold_via_nfold,
    eval_hmap_direct,
    halg_catalogue,
    map_algebra,
    nat_of,
    prepare_hfold,
    prepare_ind,
    prepare_map,
    prepare_nfold,
    prepare_nfold_prime,
)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class Counterexample:
    """First failing case of a property, replayable through cmd_eval."""

    prop: str
    index: str
    value: str  # re-parseable literal
    algebra: str
    lhs: str
    rhs: str

    def lines(self) -> list[str]:
        return [
            f"counterexample for {self.prop}:",
            f"  index:   {self.index}",
            f"  value:   {self.value}",
            f"  algebra: {self.algebra}",
            f"  lhs:     {self.lhs}",
            f"  rhs:     {self.rhs}",
        ]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    cases: int  # comparisons performed
    distinct: int  # distinct (value, label) pairs exercised
    counterexample: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class SuiteReport:
    group: str
    max_size: int
    results: tuple[PropertyResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def total_cases(self) -> int:
        return sum(r.cases for r in self.results)

    def result(self, name: str) -> PropertyResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Shared machinery


#: Base values every index variable ranges over during enumeration.
BASE_POOL = (0, 1, 2)

#: Pointwise functions the map laws are instantiated at.
MAP_FNS: tuple[tuple[str, Callable[[Value], Value]], ...] = (
    ("add1", lambda v: VBase(v.payload + 1)),
    ("double", lambda v: VBase(2 * v.payload)),
)


def _suite_indices(ctx: GroupContext) -> list[IndexExpr]:
    """The index family: depths up to 3 when the index universe is a copy of
    the naturals, up to 2 otherwise (multi-variable index universes grow too
    quickly for an exhaustive deeper sweep)."""
    if ctx.nat_index_eligible:
        return [ctx.level(d) for d in range(4)]
    return enumerate_indices(ctx.spec, 2)


def _values(ctx: GroupContext, indices: Iterable[IndexExpr], max_size: int):
    """Yield (idx, value) for every value at every index."""
    pool = {
        k: tuple(VBase(n) for n in BASE_POOL) for k in range(ctx.spec.base_var_count)
    }
    for idx in map(ctx.canonical, indices):
        for v in enumerate_values(ctx, idx, pool, max_size):
            yield idx, v


def _own_values(ctx: GroupContext, max_size: int):
    """_values at the single declaration applied to its own parameter."""
    return _values(ctx, [ctx.own_index(ctx.group.decls[0])], max_size)


def _agree(lhs: object, rhs: object) -> bool:
    """Naturals, trees and values agree when equal; functions never do."""
    if isinstance(lhs, RFun) or isinstance(rhs, RFun):
        return False
    return lhs == rhs


def _sweep(
    name: str,
    cases: Iterable[tuple[object, Value, str, object, object]],
    spec: IndexTypeSpec,
    agree: Callable[[object, object], bool] = _agree,
    show: Callable[[object, object], tuple[str, str]] = (
        lambda lhs, rhs: (render_value(lhs), render_value(rhs))
    ),
    where: Callable[[object, IndexTypeSpec], str] = render_index,
) -> PropertyResult:
    """Count the (place, value, label, lhs, rhs) cases up to the first disagreement.

    Only that case is rendered, its place by where (an index by default);
    passing cases are told apart by identity.
    Every case value comes from enumerate_values (the pools outlive the
    sweep), and two enumerated values are equal exactly when they are one
    object, so counting ids counts distinct values.
    """
    count = 0
    seen: set[tuple[int, str]] = set()
    for place, value, label, lhs, rhs in cases:
        count += 1
        seen.add((id(value), label))
        if not agree(lhs, rhs):
            ce = Counterexample(
                name, where(place, spec), render_value(value), label, *show(lhs, rhs)
            )
            return PropertyResult(name, count, len(seen), ce)
    return PropertyResult(name, count, len(seen))


def _mapper(fold: Fold, idx: IndexExpr) -> Callable[[Value], Value]:
    """The prepared map fold at idx, as a base function."""
    return lambda v: fold(idx, v)


def _ignore_values(alg: Algebra) -> Algebra:
    """alg as an induction algebra whose methods drop the sub-values."""
    return Algebra(
        alg.name,
        bases=alg.bases,
        methods={
            name: (lambda m: lambda iargs, vals, rs: m(iargs, rs))(m)
            for name, m in alg.methods.items()
        },
    )


def _counted(alg: Algebra, calls: list[int]) -> Algebra:
    """alg with every method adding one to calls[0] each time it runs."""

    def count(m):
        def counted(*args):
            calls[0] += 1
            return m(*args)

        return counted

    return Algebra(
        alg.name, alg.bases, {name: count(m) for name, m in alg.methods.items()}
    )


class _ReplayMemo(dict):
    """A fold memo that replays the method calls of each memoized sub-fold.

    An entry holds the sub-fold's result and the calls it added to calls[0];
    a hit adds them again, so a deterministic fold counts through this memo
    exactly what it counts without one.  A miss pushes the count the
    sub-fold starts from, and storing its result pops it.  A fold that
    raises leaves its start counts behind: clear starts whenever calls[0] is
    reset."""

    def __init__(self, calls: list[int]):
        super().__init__()
        self.calls = calls
        self.starts: list[int] = []

    def get(self, key):
        entry = dict.get(self, key)
        if entry is None:
            self.starts.append(self.calls[0])
            return None
        r, n = entry
        self.calls[0] += n
        return r

    def __setitem__(self, key, r):
        dict.__setitem__(self, key, (r, self.calls[0] - self.starts.pop()))


# ---------------------------------------------------------------------------
# The properties


def check_equivalence(ctx: GroupContext, max_size: int) -> PropertyResult:
    """nfold and the function-space route agree on every case."""
    folds = [
        (alg.name, prepare_nfold(ctx, alg, {}), prepare_nfold_prime(ctx, alg))
        for alg in catalogue(ctx).values()
    ]
    return _sweep("nfold-vs-nfold-prime", (
        (idx, v, name, nfold(idx, v), nfold_prime(idx, v))
        for idx, v in _values(ctx, _suite_indices(ctx), max_size)
        for name, nfold, nfold_prime in folds
    ), ctx.spec)


def check_map_identity(ctx: GroupContext, max_size: int) -> PropertyResult:
    """Mapping the identity over every slot returns the value unchanged."""
    fs = {k: (lambda v: v) for k in range(ctx.spec.base_var_count)}
    identity = prepare_map(ctx, fs, {})
    return _sweep("map-identity", (
        (idx, v, "identity", identity(idx, v), v)
        for idx, v in _values(ctx, _suite_indices(ctx), max_size)
    ), ctx.spec)


def check_map_composition(ctx: GroupContext, max_size: int) -> PropertyResult:
    """Mapping once at depth m+n equals mapping at m with an inner depth-n map.

    The map of f is prepared once, with one memo, and its inner maps are
    that map at depth n.  The outer map's base is the inner map, so it is
    prepared once per (f, split), with its own memo."""
    at = ctx.level
    maps = [(fname, prepare_map(ctx, {0: f}, {})) for fname, f in MAP_FNS]

    def cases():
        for m in range(5):
            for n in range(5 - m):
                outer = [
                    (fname, fold, prepare_map(ctx, {0: _mapper(fold, at(n))}, {}))
                    for fname, fold in maps
                ]
                place = (at(m + n), m, n)
                for whole, v in _values(ctx, [at(m + n)], max_size):
                    for fname, fold, outer_fold in outer:
                        yield place, v, fname, fold(whole, v), outer_fold(at(m), v)

    def split(place, spec: IndexTypeSpec) -> str:
        whole, m, n = place
        return f"{render_index(whole, spec)} split {m}+{n}"

    return _sweep("map-composition", cases(), ctx.spec, where=split)


def check_hfold_conformance(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The fold-backed higher-order fold matches the literal recursion."""
    decl = ctx.group.decls[0]
    halgs = [(halg, prepare_hfold(ctx, halg, decl, {})) for halg in halg_catalogue(ctx).values()]
    return _sweep("hfold-conformance", (
        (idx, v, halg.name, halg.finish(hfold(v)), halg.finish(eval_hfold_direct(ctx, halg, v)))
        for idx, v in _own_values(ctx, max_size)
        for halg, hfold in halgs
    ), ctx.spec)


def check_hfold_leaf(ctx: GroupContext) -> PropertyResult:
    """On the nullary constructor the higher-order fold is its nil method."""
    decl = ctx.group.decls[0]
    nil, _ = ctx.bush_shape
    idx, v = next(case for case in _own_values(ctx, 1) if case[1].ctor == nil)
    return _sweep("hfold-leaf-equation", (
        (idx, v, halg.name,
         halg.finish(eval_hfold_via_nfold(ctx, halg, decl, v)),
         halg.finish(halg.methods[nil]()))
        for halg in halg_catalogue(ctx).values()
    ), ctx.spec)


def check_hmap_agreement(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The one-layer map derived from the fold matches the direct recursion."""
    maps = [(fname, f, prepare_map(ctx, {0: f}, {})) for fname, f in MAP_FNS]
    return _sweep("hmap-agreement", (
        (idx, v, fname, hmap(idx, v), eval_hmap_direct(ctx, f, v))
        for idx, v in _own_values(ctx, max_size)
        for fname, f, hmap in maps
    ), ctx.spec)


def check_hmap_cons(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The one-layer map satisfies its defining equation on both constructors.

    hmap f has one memo, shared by both sides; hmap (hmap f) has its own."""
    nil, cons = ctx.bush_shape
    idx = ctx.own_index(ctx.group.decls[0])
    maps = []
    for fname, f in MAP_FNS:
        hmap = prepare_map(ctx, {0: f}, {})
        maps.append((fname, f, hmap, prepare_map(ctx, {0: _mapper(hmap, idx)}, {})))

    def unfolded(f, hmap_hmap, v: Value) -> Value:
        if isinstance(v, VCon) and v.ctor == cons:
            x, xs = v.args
            return VCon(cons, (f(x), hmap_hmap(idx, xs)))
        return v

    return _sweep("hmap-cons-equation", (
        (idx, v, fname, hmap(idx, v), unfolded(f, hmap_hmap, v))
        for idx, v in _own_values(ctx, max_size)
        for fname, f, hmap, hmap_hmap in maps
    ), ctx.spec)


def check_ind_agreement(ctx: GroupContext, max_size: int) -> PropertyResult:
    """Induction with value-ignoring methods computes exactly the fold."""
    folds = [
        (alg.name, prepare_ind(ctx, _ignore_values(alg), {}), prepare_nfold(ctx, alg, {}))
        for alg in catalogue(ctx).values()
    ]
    return _sweep("ind-agreement", (
        (idx, v, name, ind(idx, v), nfold(idx, v))
        for idx, v in _values(ctx, _suite_indices(ctx), max_size)
        for name, ind, nfold in folds
    ), ctx.spec)


def check_spine_fold_agreement(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The derived fold on an ordinary list type matches a hand-written fold."""
    nil, cons = ctx.list_shape

    def fold_list(base, step, v: Value):
        match v:
            case VCon(c, ()) if c == nil:
                return base
            case VCon(c, (x, xs)) if c == cons:
                return step(x.payload, fold_list(base, step, xs))
        raise AssertionError(f"not a list value: {render_value(v)}")

    oracles = {
        "sum": (0, lambda x, r: x + r),
        "length": (0, lambda x, r: 1 + r),
    }
    algs = catalogue(ctx)
    folds = [
        (name, prepare_nfold(ctx, algs[name], {}), base, step)
        for name, (base, step) in oracles.items()
    ]
    return _sweep("spine-fold-agreement", (
        (idx, v, name, nat_of(nfold(idx, v)), fold_list(base, step, v))
        for idx, v in _own_values(ctx, max_size)
        for name, nfold, base, step in folds
    ), ctx.spec)


def _counted_runs(ctx: GroupContext, calls: list[int]):
    """The (label, preparation, algebra) of each evaluator
    call-counter-bound counts; every algebra adds its method calls to
    calls[0]."""
    sum_alg = catalogue(ctx)["sum"]
    fs = {k: (lambda v: v) for k in range(ctx.spec.base_var_count)}
    return (
        ("nfold", prepare_nfold, _counted(sum_alg, calls)),
        ("nmap", prepare_nfold, _counted(map_algebra(ctx, fs), calls)),
        ("ind", prepare_ind, _counted(_ignore_values(sum_alg), calls)),
    )


def check_call_counter(ctx: GroupContext, max_size: int) -> PropertyResult:
    """Every evaluator makes at most size(v) recursive calls on values.

    A fold calls one method per constructor node it descends into, so each
    evaluator folds a counted copy of its algebra, and the count of method
    calls is its count of recursive calls.  Each evaluator has one
    _ReplayMemo, so a sub-value shared by many values is folded once and
    its calls are counted at every occurrence, as if folded again."""
    calls = [0]
    runs = []
    for label, prepare, alg in _counted_runs(ctx, calls):
        memo = _ReplayMemo(calls)
        runs.append((label, prepare(ctx, alg, memo), memo))

    def cases():
        for idx, v in _values(ctx, _suite_indices(ctx), max_size):
            bound = value_size(v)
            for label, fold, memo in runs:
                calls[0] = 0
                memo.starts.clear()
                fold(idx, v)
                yield idx, v, label, calls[0], bound

    return _sweep(
        "call-counter-bound",
        cases(),
        ctx.spec,
        agree=lambda calls, bound: calls <= bound,
        show=lambda calls, bound: (f"{calls} calls", f"size bound {bound}"),
    )


# ---------------------------------------------------------------------------
# The suite


def run_suite(ctx: GroupContext, max_size: int) -> SuiteReport:
    """Run every property applicable to the group, deterministically."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1")

    results: list[PropertyResult] = []
    bushy = ctx.bush_shape is not None
    if bushy:
        results.append(check_equivalence(ctx, max_size))
    results.append(check_map_identity(ctx, max_size))
    if ctx.nat_index_eligible:
        results.append(check_map_composition(ctx, max_size))
    if bushy:
        results.append(check_hfold_conformance(ctx, max_size))
        results.append(check_hfold_leaf(ctx))
        results.append(check_hmap_agreement(ctx, max_size))
        results.append(check_hmap_cons(ctx, max_size))
    results.append(check_ind_agreement(ctx, max_size))
    if ctx.list_shape is not None:
        results.append(check_spine_fold_agreement(ctx, max_size))
    results.append(check_call_counter(ctx, max_size))
    return SuiteReport(ctx.name, max_size, tuple(results))
