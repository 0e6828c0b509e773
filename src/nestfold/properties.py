"""Exhaustive checks that the derived evaluators agree with their oracles.

Every property sweeps enumerate_values over a fixed family of indices, so a
report is reproducible from the declaration file and the size bound alone —
nothing here is randomized.  A property stops at its first failing case, one
whose sides disagree or one of whose sides raises, and reports it as a
replayable counterexample, so one raising oracle fails only its property.

Each property is a check(folds, max_size) over the fold store (Folds) it is
handed; run_suite builds one store per suite and walks one roster of checks.
A property sweeps chunks, not cases: a chunk is one non-empty (index, size)
pool, and the property hands _sweep one pair of columns per label, its two
sides' results over the chunk's values.  The store enumerates the index
family's chunks once, skipping every index that no value within the bound
fits; a check over the family reads that list, a check at the group's own
index filters it, and only map-composition enumerates more, its levels.  A
side on rows is a slice of a row fold read off the store; a per-value oracle
(the direct hfold and hmap, the list oracle, unfolded, finish) is mapped
over the values.  nfold' is mapped in two steps: its lift, which takes no
algebra, over a chunk's values once, and each algebra's PS-to-P over the
lifted column.
call-counter-bound counts the method calls of the row folds it shares with
the others, which count their calls per row, and bounds them by the chunk's
size.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import partial
from operator import le

from .analysis import GroupContext, IndexExpr, enumerate_indices, render_index
from .diagnostics import Record
from .runtime import (
    Algebra,
    PS,
    RFun,
    RowFold,
    catalogue,
    enumerate_values,
    eval_hfold_direct,
    eval_hfold_via_nfold,
    eval_hmap_direct,
    guard,
    halg_catalogue,
    hfold_algebra,
    map_algebra,
    nat_of,
    pool_set,
    prepare_ind,
    prepare_lift,
    prepare_map,
    prepare_map_over,
    prepare_nfold,
    prepare_ps_to_p,
)
from .values import VBase, VCon, Value, render_value


# ---------------------------------------------------------------------------
# Reports


class Counterexample(Record):
    """First failing case of a property, replayable through cmd_eval: value
    is the failing value as a re-parseable literal, lhs and rhs the two
    sides' results on it, or the exception a side raised."""

    __slots__ = __match_args__ = ("prop", "index", "value", "algebra", "lhs", "rhs")

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
    """One property's outcome: cases counts the comparisons performed,
    distinct the distinct (value, label) pairs exercised, and counterexample
    is the first failure, or None."""

    __slots__ = __match_args__ = ("name", "cases", "distinct", "counterexample")
    _defaults = (None,)

    @property
    def ok(self) -> bool:
        return self.counterexample is None


class SuiteReport(Record):
    __slots__ = __match_args__ = ("group", "max_size", "results")

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


def _values(ctx: GroupContext, indices: Iterable[IndexExpr], max_size: int):
    """Yield the chunk (idx, values, rows, size) of every non-empty (index,
    size) pool, rows being the range of the values' rows in the row table.
    An index whose least size exceeds max_size holds no such pool, and is
    skipped before anything is built for it."""
    pool = _pool(ctx)
    pools = pool_set(ctx, pool)[0]
    sizes = range(max_size + 1)
    for idx in map(ctx.canonical, indices):
        if ctx.least_size(idx, max_size) > max_size:
            continue
        # A pool built as a constructor argument can stand without the
        # smaller pools of its index, so every size is looked up.
        if not all((idx, size) in pools for size in sizes):
            enumerate_values(ctx, idx, pool, max_size)
        for size in sizes:
            values, rows = pools[idx, size]
            if values:
                yield idx, values, rows, size


def _own_values(folds: Folds, max_size: int):
    """The store's chunks at the first declaration applied to its own
    parameters."""
    own = folds.ctx.own_index(folds.ctx.group.decls[0])
    return (chunk for chunk in folds.chunks(max_size) if chunk[0] is own)


Column = tuple[list, Exception | None]  # results over a chunk, and what ended them short


def _rows(fold: RowFold, rows: range) -> Column:
    """A row fold's column over a chunk's rows."""
    return fold.fill(rows.stop)[rows.start : rows.stop], fold.error


def _map(f: Callable, xs: Iterable, error: Exception | None = None) -> Column:
    """The column of f over xs: f's results in order, and the exception that
    ends them short, which is f's first raise or else error (xs may itself
    be a column short by error)."""
    out: list = []
    try:
        out.extend(map(f, xs))
    except Exception as e:
        return out, e
    return out, error


def _agree(lhs: list, rhs: list) -> bool:
    """Naturals, trees and values agree when equal; functions (an RFun, or a
    PS node unapplied) never do, not even one function with itself.
    Compares two columns pairwise."""
    kinds = {*map(type, lhs), *map(type, rhs)}
    return not any(issubclass(k, (RFun, PS)) for k in kinds) and lhs == rhs


def _shown(col: Column, j: int, render: Callable[[object], str]) -> str:
    """A column's result j by render, or the exception that ended it short."""
    results, error = col
    return render(results[j]) if j < len(results) else f"raised {type(error).__name__}: {error}"


def _sweep(
    name: str,
    chunks: Iterable[tuple[object, tuple[Value, ...], list]],
    ctx: GroupContext,
    agree: Callable[[list, list], bool] = _agree,
    show: tuple[Callable[[object], str], Callable[[object], str]] = (render_value, render_value),
    where: Callable[[object, GroupContext], str] = render_index,
) -> PropertyResult:
    """Count the cases of the (place, values, [(label, lhs, rhs)]) chunks,
    value-major, up to the first failing case.

    A chunk whose columns are whole and agree counts at once.  Otherwise
    its cases are walked in order, and the first case that a column ends
    short of, or whose pair agree refuses, is the counterexample (its place
    rendered by where, each side by show, a missing result as the
    exception that ended its column), so a raise at a later case cannot
    hide an earlier counterexample, nor the reverse.  Enumerated values are
    equal exactly when they are one object (the pools outlive the sweep):
    one set of value ids per label counts the distinct cases."""
    count, seen = 0, {}
    for place, values, cols in chunks:
        n = len(values)
        try:
            whole = all(len(xs) == n == len(ys) and agree(xs, ys) for _, (xs, _), (ys, _) in cols)
        except Exception:  # the walk meets it again, at its case
            whole = False
        if whole:
            count += n * len(cols)
            for label, _, _ in cols:
                seen.setdefault(label, set()).update(map(id, values))
            continue
        for j, v in enumerate(values):
            for label, lhs, rhs in cols:
                count += 1
                seen.setdefault(label, set()).add(id(v))
                (xs, _), (ys, _) = lhs, rhs
                if j >= len(xs) or j >= len(ys) or not agree(xs[j : j + 1], ys[j : j + 1]):
                    shown = _shown(lhs, j, show[0]), _shown(rhs, j, show[1])
                    ce = Counterexample(name, where(place, ctx), render_value(v), label, *shown)
                    return PropertyResult(name, count, sum(map(len, seen.values())), ce)
    return PropertyResult(name, count, sum(map(len, seen.values())))


def _ignore_values(alg: Algebra) -> Algebra:
    """alg as an induction algebra whose methods drop the sub-values."""
    drop = lambda m: lambda iargs, vals, rs: m(iargs, rs)
    return Algebra(alg.name, alg.bases, {name: drop(m) for name, m in alg.methods.items()})


def _counted(alg: Algebra, own: list[int], results: list) -> Algebra:
    """alg with every method first adding one to own[r], r = len(results[0])
    being the length of its fold's results at the call: the row it fills."""

    def count(m):
        def counted(*args):
            r = len(results[0])
            if r >= len(own):
                own.extend([0] * (r + 1 - len(own)))
            own[r] += 1
            return m(*args)
        return counted

    return Algebra(alg.name, alg.bases, {name: count(m) for name, m in alg.methods.items()})


#: The folds call-counter-bound counts, by store key, and their labels.
_COUNTED = {("nfold", "sum"): "nfold", ("map", "identity"): "nmap", ("ind", "sum"): "ind"}


class Folds(dict):
    """The row folds of one suite by key, each prepared on first use, so
    each is filled once however many checks read it: ("nfold", alg) and
    ("ind", alg) at a catalogue algebra (algs), ("map", fname) at identity
    or a MAP_FNS function, ("over", fname, n) the map whose base is ("map",
    fname) at level n, and ("hfold", halg) at a halgs algebra.  A _COUNTED
    key folds its algebra _counted: own[key] counts its calls at each row.

    chunks(max_size) is the list of the index family's chunks (_values over
    _suite_indices), enumerated once per bound for every check that sweeps
    the family; an index that no value of at most max_size nodes fits has
    none, and nothing is built for it."""

    def __init__(self, ctx: GroupContext):
        self.ctx, self.table, self.own = ctx, pool_set(ctx, _pool(ctx))[1], {}
        self.algs, self.halgs = catalogue(ctx), halg_catalogue(ctx)
        self._chunks: dict[int, list] = {}

    def chunks(self, max_size: int) -> list:
        got = self._chunks.get(max_size)
        if got is None:
            got = self._chunks[max_size] = list(
                _values(self.ctx, _suite_indices(self.ctx), max_size)
            )
        return got

    def __missing__(self, key: tuple) -> RowFold:
        ctx, table, (kind, name, *n) = self.ctx, self.table, key
        if kind == "over":
            fold = prepare_map_over(ctx, self["map", name], *n, table)
        elif kind == "map" and name != "identity":
            fold = prepare_map(ctx, {0: dict(MAP_FNS)[name]}, table)
        else:
            if kind == "map":  # the identity, counted
                alg = map_algebra(ctx, {k: (lambda v: v) for k in range(ctx.base_var_count)})
            elif kind == "hfold":
                alg = hfold_algebra(ctx, self.halgs[name])
            else:
                alg = self.algs[name] if kind == "nfold" else _ignore_values(self.algs[name])
            results: list = []  # the fold's, once it is prepared
            if key in _COUNTED:
                alg = _counted(alg, self.own.setdefault(key, []), results)
            fold = (prepare_ind if kind == "ind" else prepare_nfold)(ctx, alg, table)
            results.append(fold.results)
        self[key] = fold
        return fold


# ---------------------------------------------------------------------------
# The properties


def check_equivalence(folds: Folds, max_size: int) -> PropertyResult:
    """nfold and the function-space route agree on every case.  The lift
    takes no algebra, so each chunk's values are lifted once, into one
    column, and every algebra's PS-to-P peels that column."""
    ctx, lift_at = folds.ctx, prepare_lift(folds.ctx)
    peels = {name: prepare_ps_to_p(ctx, alg) for name, alg in folds.algs.items()}
    return _sweep("nfold-vs-nfold-prime", (
        (idx, values, [
            (name, _rows(folds["nfold", name], rows), _map(partial(peel, depth), *lifted))
            for name, peel in peels.items()
        ])
        for idx, values, rows, size in folds.chunks(max_size)
        for depth, lift in [lift_at(idx)]
        for lifted in [_map(partial(lift, limit=guard(size, depth)), values)]
    ), ctx)


def check_map_identity(folds: Folds, max_size: int) -> PropertyResult:
    """Mapping the identity over every slot returns the value unchanged."""
    ctx, identity = folds.ctx, folds["map", "identity"]
    return _sweep("map-identity", (
        (idx, values, [("identity", _rows(identity, rows), (list(values), None))])
        for idx, values, rows, _ in folds.chunks(max_size)
    ), ctx)


def check_map_composition(folds: Folds, max_size: int) -> PropertyResult:
    """Mapping once at depth m+n equals mapping at m with an inner depth-n map:
    the map of f, whose rows at level n the outer map, one per (f, n), reads."""
    ctx, at = folds.ctx, folds.ctx.level

    def chunks():
        for m in range(5):
            for n in range(5 - m):
                for _, values, rows, _ in _values(ctx, [at(m + n)], max_size):
                    yield (at(m + n), m, n), values, [
                        (fname, _rows(folds["map", fname], rows),
                         _rows(folds["over", fname, n], rows))
                        for fname, _ in MAP_FNS
                    ]

    return _sweep("map-composition", chunks(), ctx, where=lambda place, ctx: (
        f"{render_index(place[0], ctx)} split {place[1]}+{place[2]}"
    ))


def check_hfold_conformance(folds: Folds, max_size: int) -> PropertyResult:
    """The fold-backed higher-order fold matches the literal recursion."""
    ctx = folds.ctx
    return _sweep("hfold-conformance", (
        (idx, values, [
            (halg.name, _map(halg.finish, *_rows(folds["hfold", halg.name], rows)), _map(
                halg.finish, map(partial(eval_hfold_direct, ctx, halg, limit=guard(size)), values)
            ))
            for halg in folds.halgs.values()
        ])
        for idx, values, rows, size in _own_values(folds, max_size)
    ), ctx)


def check_hfold_leaf(folds: Folds, max_size: int) -> PropertyResult:
    """On the nullary constructor the higher-order fold is its nil method."""
    ctx, (nil, _) = folds.ctx, folds.ctx.bush_shape
    own = _own_values(folds, max_size)
    idx, v = next((i, v) for i, vs, _, _ in own for v in vs if v.ctor == nil)
    return _sweep("hfold-leaf-equation", [(idx, (v,), [
        (halg.name,
         _map(halg.finish, map(partial(eval_hfold_via_nfold, ctx, halg, ctx.group.decls[0]), [v])),
         _map(lambda _, halg=halg: halg.finish(halg.methods[nil]()), [v]))
        for halg in folds.halgs.values()
    ])], ctx)


def check_hmap_agreement(folds: Folds, max_size: int) -> PropertyResult:
    """The one-layer map derived from the fold matches the direct recursion."""
    ctx = folds.ctx
    return _sweep("hmap-agreement", (
        (idx, values, [
            (fname, _rows(folds["map", fname], rows),
             _map(partial(eval_hmap_direct, ctx, f, limit=guard(size)), values))
            for fname, f in MAP_FNS
        ])
        for idx, values, rows, size in _own_values(folds, max_size)
    ), ctx)


def check_hmap_cons(folds: Folds, max_size: int) -> PropertyResult:
    """The one-layer map satisfies its defining equation on both constructors;
    hmap (hmap f) is the map at level 1 whose base is hmap f at level 1."""
    ctx, table, cons = folds.ctx, folds.table, folds.ctx.bush_shape[1]

    def unfolded(f, hmap_hmap: RowFold, case: tuple[Value, int]) -> Value:
        v, r = case
        if isinstance(v, VCon) and v.ctor == cons:
            x, _ = v.args
            return VCon(cons, (f(x), hmap_hmap(table[r][2][1])))
        return v

    return _sweep("hmap-cons-equation", (
        (idx, values, [
            (fname, _rows(folds["map", fname], rows),
             _map(partial(unfolded, f, folds["over", fname, 1]), zip(values, rows)))
            for fname, f in MAP_FNS
        ])
        for idx, values, rows, _ in _own_values(folds, max_size)
    ), ctx)


def check_ind_agreement(folds: Folds, max_size: int) -> PropertyResult:
    """Induction with value-ignoring methods computes exactly the fold."""
    ctx = folds.ctx
    runs = [(name, folds["ind", name], folds["nfold", name]) for name in folds.algs]
    return _sweep("ind-agreement", (
        (idx, values, [(name, _rows(ind, rows), _rows(nfold, rows)) for name, ind, nfold in runs])
        for idx, values, rows, _ in folds.chunks(max_size)
    ), ctx)


def check_spine_fold_agreement(folds: Folds, max_size: int) -> PropertyResult:
    """The derived fold on an ordinary list type matches a hand-written fold."""
    ctx, (nil, cons) = folds.ctx, folds.ctx.list_shape

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

    oracles = {"sum": (0, lambda x, r: x + r), "length": (0, lambda x, r: 1 + r)}
    return _sweep("spine-fold-agreement", (
        (idx, values, [
            (name, _map(nat_of, *_rows(folds["nfold", name], rows)),
             _map(partial(fold_list, *oracle), values))
            for name, oracle in oracles.items()
        ])
        for idx, values, rows, _ in _own_values(folds, max_size)
    ), ctx)


def check_call_counter(folds: Folds, max_size: int) -> PropertyResult:
    """Every evaluator makes at most size(v) recursive calls on values.

    A fold calls one method per constructor node it descends into.  The
    store's _COUNTED folds, which the other properties read and so fill in
    a suite, count those calls per row.  A fold of one value folds each
    argument afresh, so a row's count is its own calls plus its argument
    rows' counts.  Every value of a chunk has the chunk's size."""
    ctx, table = folds.ctx, folds.table
    runs = [(label, folds[key], folds.own[key], []) for key, label in _COUNTED.items()]

    def counted(fold: RowFold, own: list[int], counts: list[int], rows: range) -> Column:
        if len(fold.results) < rows.stop:
            fold.fill(rows.stop)
        start, stop, get = len(counts), min(rows.stop, len(fold.results)), counts.__getitem__
        own.extend([0] * (stop - len(own)))  # the rows whose fill made no call
        for r, (_, _, args) in enumerate(table[start:stop], start):
            counts.append(own[r] + sum(map(get, args or ())))
        return counts[rows.start : rows.stop], fold.error

    def chunks():
        for idx, values, rows, size in folds.chunks(max_size):
            bounds = ([size] * len(values), None)
            yield idx, values, [
                (label, counted(fold, own, counts, rows), bounds)
                for label, fold, own, counts in runs
            ]

    return _sweep(
        "call-counter-bound", chunks(), ctx,
        agree=lambda calls, bounds: all(map(le, calls, bounds)),
        show=(lambda calls: f"{calls} calls", lambda bound: f"size bound {bound}"),
    )


# ---------------------------------------------------------------------------
# The suite


def run_suite(ctx: GroupContext, max_size: int) -> SuiteReport:
    """Run, in report order, each property that applies to the group on one store."""
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    folds, bushy = Folds(ctx), ctx.bush_shape is not None
    # Built per call, so each check is looked up by its module name as the suite
    # runs, and a rebinding of properties.check_* (a tracer's span) sees it.
    roster = [check for applies, check in [
        (bushy, check_equivalence),
        (True, check_map_identity),
        (ctx.nat_index_eligible, check_map_composition),
        (bushy, check_hfold_conformance),
        (bushy, check_hfold_leaf),
        (bushy, check_hmap_agreement),
        (bushy, check_hmap_cons),
        (True, check_ind_agreement),
        (ctx.list_shape is not None, check_spine_fold_agreement),
        (True, check_call_counter),
    ] if applies]
    results = []
    for check in roster:
        if check is check_ind_agreement:  # the rest read only nfold, ind and the identity map
            for key in [k for k in folds if k[0] not in ("nfold", "ind") and k not in _COUNTED]:
                del folds[key]
        results.append(check(folds, max_size))
    return SuiteReport(ctx.name, max_size, tuple(results))
