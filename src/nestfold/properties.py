"""Exhaustive checks that the derived evaluators agree with their oracles.

Every property sweeps enumerate_values over a fixed family of indices, so a
report is reproducible from the declaration file and the size bound alone —
nothing here is randomized.  A property stops at its first failing case and
reports it as a replayable counterexample.

A case carries its value's row in the row table of the suite's base pool.
Every property prepares its folds (runtime.prepare_*) on that table before
its sweep, once per algebra or map function, so no case checks or builds an
algebra and a case reads each fold's result at its row.  Every property runs
on rows: call-counter-bound counts the method calls of the row folds it
shares with the others.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from itertools import repeat

from .analysis import (
    GroupContext,
    IndexExpr,
    enumerate_indices,
    render_index,
)
from .diagnostics import Record, _set
from .runtime import (
    Algebra,
    RFun,
    catalogue,
    enumerate_values,
    eval_hfold_direct,
    eval_hfold_via_nfold,
    eval_hmap_direct,
    halg_catalogue,
    hfold_algebra,
    map_algebra,
    nat_of,
    pool_set,
    prepare_ind,
    prepare_map,
    prepare_map_over,
    prepare_nfold,
    prepare_nfold_prime,
)
from .values import VBase, VCon, Value, render_value, value_size


# ---------------------------------------------------------------------------
# Reports


class Counterexample(Record):
    """First failing case of a property, replayable through cmd_eval."""

    __slots__ = __match_args__ = ("prop", "index", "value", "algebra", "lhs", "rhs")

    def __init__(
        self, prop: str, index: str, value: str, algebra: str, lhs: str, rhs: str
    ):
        _set(self, "prop", prop)
        _set(self, "index", index)
        _set(self, "value", value)  # re-parseable literal
        _set(self, "algebra", algebra)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    def lines(self) -> list[str]:
        return [
            f"counterexample for {self.prop}:",
            f"  index:   {self.index}",
            f"  value:   {self.value}",
            f"  algebra: {self.algebra}",
            f"  lhs:     {self.lhs}",
            f"  rhs:     {self.rhs}",
        ]


class PropertyResult(Record):
    __slots__ = __match_args__ = ("name", "cases", "distinct", "counterexample")

    def __init__(
        self,
        name: str,
        cases: int,
        distinct: int,
        counterexample: Counterexample | None = None,
    ):
        _set(self, "name", name)
        _set(self, "cases", cases)  # comparisons performed
        _set(self, "distinct", distinct)  # distinct (value, label) pairs exercised
        _set(self, "counterexample", counterexample)

    @property
    def ok(self) -> bool:
        return self.counterexample is None


class SuiteReport(Record):
    __slots__ = __match_args__ = ("group", "max_size", "results")

    def __init__(self, group: str, max_size: int, results: tuple[PropertyResult, ...]):
        _set(self, "group", group)
        _set(self, "max_size", max_size)
        _set(self, "results", results)

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
    """The index family: every index of depth up to 3 when the index universe
    is a copy of the naturals (the levels 0..3), up to 2 otherwise
    (multi-variable index universes grow too quickly for an exhaustive
    deeper sweep)."""
    return enumerate_indices(ctx, 3 if ctx.nat_index_eligible else 2)


def _pool(ctx: GroupContext) -> dict[int, tuple[Value, ...]]:
    return {k: tuple(VBase(n) for n in BASE_POOL) for k in range(ctx.base_var_count)}


def _table(ctx: GroupContext) -> list:
    """The row table of the suite's base pool."""
    return pool_set(ctx, _pool(ctx))[1]


def _values(ctx: GroupContext, indices: Iterable[IndexExpr], max_size: int):
    """Yield (idx, value, row in _table(ctx)) for every value at every index."""
    pool = _pool(ctx)
    pools = pool_set(ctx, pool)[0]
    sizes = range(max_size + 1)
    for idx in map(ctx.canonical, indices):
        # A pool built as a constructor argument can stand without the
        # smaller pools of its index, so every size is looked up.
        if not all((idx, size) in pools for size in sizes):
            enumerate_values(ctx, idx, pool, max_size)
        for size in sizes:
            values, rows = pools[idx, size]
            if values:
                yield from zip(repeat(idx), values, rows)


def _own_values(ctx: GroupContext, max_size: int):
    """_values at the single declaration applied to its own parameter."""
    return _values(ctx, [ctx.own_index(ctx.group.decls[0])], max_size)


def _agree(lhs: object, rhs: object) -> bool:
    """Naturals, trees and values agree when equal; functions never do."""
    if isinstance(lhs, RFun) or isinstance(rhs, RFun):
        return False
    return lhs is rhs or lhs == rhs


def _sweep(
    name: str,
    cases: Iterable[tuple[object, Value, str, object, object]],
    ctx: GroupContext,
    agree: Callable[[object, object], bool] = _agree,
    show: Callable[[object, object], tuple[str, str]] = (
        lambda lhs, rhs: (render_value(lhs), render_value(rhs))
    ),
    where: Callable[[object, GroupContext], str] = render_index,
) -> PropertyResult:
    """Count the (place, value, label, lhs, rhs) cases up to the first disagreement.

    Only that case is rendered, its place by where (an index by default);
    passing cases are told apart by identity.
    Every case value comes from enumerate_values (the pools outlive the
    sweep), and two enumerated values are equal exactly when they are one
    object, so counting ids counts distinct values: one set of ids per label.
    """
    count, ce = 0, None
    seen: defaultdict[str, set[int]] = defaultdict(set)
    for place, value, label, lhs, rhs in cases:
        count += 1
        seen[label].add(id(value))
        if not agree(lhs, rhs):
            ce = Counterexample(
                name, where(place, ctx), render_value(value), label, *show(lhs, rhs)
            )
            break
    return PropertyResult(name, count, sum(map(len, seen.values())), ce)


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


# ---------------------------------------------------------------------------
# The properties


def check_equivalence(ctx: GroupContext, max_size: int) -> PropertyResult:
    """nfold and the function-space route agree on every case."""
    table = _table(ctx)
    folds = [
        (alg.name, prepare_nfold(ctx, alg, table), prepare_nfold_prime(ctx, alg))
        for alg in catalogue(ctx).values()
    ]
    return _sweep("nfold-vs-nfold-prime", (
        (idx, v, name, nfold(r), nfold_prime(idx, v))
        for idx, v, r in _values(ctx, _suite_indices(ctx), max_size)
        for name, nfold, nfold_prime in folds
    ), ctx)


def check_map_identity(ctx: GroupContext, max_size: int) -> PropertyResult:
    """Mapping the identity over every slot returns the value unchanged."""
    fs = {k: (lambda v: v) for k in range(ctx.base_var_count)}
    identity = prepare_map(ctx, fs, _table(ctx))
    return _sweep("map-identity", (
        (idx, v, "identity", identity(r), v)
        for idx, v, r in _values(ctx, _suite_indices(ctx), max_size)
    ), ctx)


def check_map_composition(ctx: GroupContext, max_size: int) -> PropertyResult:
    """Mapping once at depth m+n equals mapping at m with an inner depth-n map:
    the map of f, whose rows at level n the outer map, one per (f, n), reads."""
    at, table = ctx.level, _table(ctx)
    maps = [(fname, prepare_map(ctx, {0: f}, table)) for fname, f in MAP_FNS]
    outers = [
        [(fname, fold, prepare_map_over(ctx, fold, n, table)) for fname, fold in maps]
        for n in range(5)
    ]

    def cases():
        for m in range(5):
            for n in range(5 - m):
                place = (at(m + n), m, n)
                for _, v, r in _values(ctx, [at(m + n)], max_size):
                    for fname, fold, outer in outers[n]:
                        yield place, v, fname, fold(r), outer(r)

    def split(place, ctx: GroupContext) -> str:
        whole, m, n = place
        return f"{render_index(whole, ctx)} split {m}+{n}"

    return _sweep("map-composition", cases(), ctx, where=split)


def check_hfold_conformance(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The fold-backed higher-order fold matches the literal recursion."""
    table = _table(ctx)
    halgs = [
        (halg, prepare_nfold(ctx, hfold_algebra(ctx, halg), table))
        for halg in halg_catalogue(ctx).values()
    ]
    return _sweep("hfold-conformance", (
        (idx, v, halg.name, halg.finish(hfold(r)), halg.finish(eval_hfold_direct(ctx, halg, v)))
        for idx, v, r in _own_values(ctx, max_size)
        for halg, hfold in halgs
    ), ctx)


def check_hfold_leaf(ctx: GroupContext) -> PropertyResult:
    """On the nullary constructor the higher-order fold is its nil method."""
    decl = ctx.group.decls[0]
    nil, _ = ctx.bush_shape
    idx, v, _ = next(case for case in _own_values(ctx, 1) if case[1].ctor == nil)
    return _sweep("hfold-leaf-equation", (
        (idx, v, halg.name,
         halg.finish(eval_hfold_via_nfold(ctx, halg, decl, v)),
         halg.finish(halg.methods[nil]()))
        for halg in halg_catalogue(ctx).values()
    ), ctx)


def check_hmap_agreement(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The one-layer map derived from the fold matches the direct recursion."""
    table = _table(ctx)
    maps = [(fname, f, prepare_map(ctx, {0: f}, table)) for fname, f in MAP_FNS]
    return _sweep("hmap-agreement", (
        (idx, v, fname, hmap(r), eval_hmap_direct(ctx, f, v))
        for idx, v, r in _own_values(ctx, max_size)
        for fname, f, hmap in maps
    ), ctx)


def check_hmap_cons(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The one-layer map satisfies its defining equation on both constructors;
    hmap (hmap f) is the map at level 1 whose base is hmap f at level 1."""
    nil, cons = ctx.bush_shape
    table = _table(ctx)
    maps = []
    for fname, f in MAP_FNS:
        hmap = prepare_map(ctx, {0: f}, table)
        maps.append((fname, f, hmap, prepare_map_over(ctx, hmap, 1, table)))

    def unfolded(f, hmap_hmap, v: Value, r: int) -> Value:
        if isinstance(v, VCon) and v.ctor == cons:
            x, _ = v.args
            return VCon(cons, (f(x), hmap_hmap(table[r][2][1])))
        return v

    return _sweep("hmap-cons-equation", (
        (idx, v, fname, hmap(r), unfolded(f, hmap_hmap, v, r))
        for idx, v, r in _own_values(ctx, max_size)
        for fname, f, hmap, hmap_hmap in maps
    ), ctx)


def check_ind_agreement(ctx: GroupContext, max_size: int) -> PropertyResult:
    """Induction with value-ignoring methods computes exactly the fold."""
    table = _table(ctx)
    folds = [
        (alg.name, prepare_ind(ctx, _ignore_values(alg), table), prepare_nfold(ctx, alg, table))
        for alg in catalogue(ctx).values()
    ]
    return _sweep("ind-agreement", (
        (idx, v, name, ind(r), nfold(r))
        for idx, v, r in _values(ctx, _suite_indices(ctx), max_size)
        for name, ind, nfold in folds
    ), ctx)


def check_spine_fold_agreement(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The derived fold on an ordinary list type matches a hand-written fold."""
    nil, cons = ctx.list_shape

    def fold_list(base, step, v: Value):
        """Walk the spine, then apply step to its payloads right to left."""
        payloads = []
        while v.__class__ is VCon and v.ctor == cons and len(v.args) == 2:
            x, v = v.args
            payloads.append(x.payload)
        if not (v.__class__ is VCon and v.ctor == nil and not v.args):
            raise AssertionError(f"not a list value: {render_value(v)}")
        for x in reversed(payloads):
            base = step(x, base)
        return base

    oracles = {
        "sum": (0, lambda x, r: x + r),
        "length": (0, lambda x, r: 1 + r),
    }
    algs, table = catalogue(ctx), _table(ctx)
    folds = [
        (name, prepare_nfold(ctx, algs[name], table), base, step)
        for name, (base, step) in oracles.items()
    ]
    return _sweep("spine-fold-agreement", (
        (idx, v, name, nat_of(nfold(r)), fold_list(base, step, v))
        for idx, v, r in _own_values(ctx, max_size)
        for name, nfold, base, step in folds
    ), ctx)


def _counted_runs(ctx: GroupContext, calls: list[int]):
    """The (label, prepare, algebra) of each evaluator call-counter-bound
    counts; every algebra adds its method calls to calls[0]."""
    sum_alg = catalogue(ctx)["sum"]
    fs = {k: (lambda v: v) for k in range(ctx.base_var_count)}
    return (
        ("nfold", prepare_nfold, _counted(sum_alg, calls)),
        ("nmap", prepare_nfold, _counted(map_algebra(ctx, fs), calls)),
        ("ind", prepare_ind, _counted(_ignore_values(sum_alg), calls)),
    )


def check_call_counter(ctx: GroupContext, max_size: int) -> PropertyResult:
    """Every evaluator makes at most size(v) recursive calls on values.

    A fold calls one method per constructor node it descends into, so each
    evaluator folds a counted copy of its algebra, and the count of method
    calls is its count of recursive calls.  Each evaluator is a row fold,
    filled one row at a time in row order, so the calls fold(row) makes are
    that row's own.  A fold of one value folds each argument afresh, so a
    row's count adds its argument rows' counts to its own calls."""
    calls, table = [0], _table(ctx)
    runs = [
        (label, prepare(ctx, alg, table), [])
        for label, prepare, alg in _counted_runs(ctx, calls)
    ]

    def cases():
        for idx, v, row in _values(ctx, _suite_indices(ctx), max_size):
            bound = value_size(v)
            for label, fold, counts in runs:
                for r in range(len(counts), row + 1):
                    calls[0] = 0
                    fold(r)
                    counts.append(calls[0] + sum([counts[a] for a in table[r][2] or ()]))
                yield idx, v, label, counts[row], bound

    return _sweep(
        "call-counter-bound",
        cases(),
        ctx,
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
