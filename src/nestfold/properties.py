"""Exhaustive checks that the derived evaluators agree with their oracles.

Every property sweeps enumerate_values over a fixed family of indices, so a
report is reproducible from the declaration file and the size bound alone —
nothing here is randomized.  A property stops at its first failing case and
reports it as a replayable counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .analysis import (
    GroupContext,
    IndexExpr,
    bush_shape,
    enumerate_indices,
    group_spine_shape,
    nat_index,
    render_index,
)
from .derivation import nat_index_eligible
from .parser import VBase, VCon, Value, render_value, value_size
from .runtime import (
    Algebra,
    CallCounter,
    DepAlgebra,
    RNat,
    RTree,
    RuntimeResult,
    catalogue,
    enumerate_values,
    eval_hfold_direct,
    eval_hfold_via_nfold,
    eval_hmap_direct,
    eval_ind,
    eval_map,
    eval_nfold,
    eval_nfold_prime,
    halg_catalogue,
    nat_of,
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
    distinct: int  # distinct (value literal, algebra) pairs exercised
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


def _pool(ctx: GroupContext) -> dict[int, tuple[Value, ...]]:
    return {
        k: tuple(VBase(n) for n in BASE_POOL)
        for k in range(ctx.spec.base_var_count)
    }


def _suite_indices(ctx: GroupContext, max_depth: int) -> list[IndexExpr]:
    if nat_index_eligible(ctx):
        (dc,) = ctx.app_ctor.values()
        return [nat_index(dc, d) for d in range(max_depth + 1)]
    return enumerate_indices(ctx.spec, max_depth)


def _result_str(r: RuntimeResult) -> str:
    match r:
        case RNat(n):
            return str(n)
        case RTree(v):
            return render_value(v)
    return "<function>"


def _results_equal(a: RuntimeResult, b: RuntimeResult) -> bool:
    if isinstance(a, RNat) and isinstance(b, RNat):
        return a.n == b.n
    if isinstance(a, RTree) and isinstance(b, RTree):
        return a.value == b.value
    return False


class _Sweep:
    """Case counting plus first-failure capture for one property."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.seen: set[tuple[str, str]] = set()
        self.failure: Counterexample | None = None

    def check(
        self,
        index: str,
        value: Value,
        algebra: str,
        equal: bool,
        lhs: str,
        rhs: str,
    ) -> bool:
        """Record one comparison; returns False once the sweep should stop."""
        self.cases += 1
        literal = render_value(value)
        self.seen.add((literal, algebra))
        if not equal:
            self.failure = Counterexample(
                self.name, index, literal, algebra, lhs, rhs
            )
            return False
        return True

    def result(self) -> PropertyResult:
        return PropertyResult(self.name, self.cases, len(self.seen), self.failure)


def _ignore_values(alg: Algebra) -> DepAlgebra:
    """Lift an Algebra to a DepAlgebra whose methods drop the sub-values."""
    return DepAlgebra(
        bases=alg.bases,
        methods={
            name: (lambda m: lambda iargs, vals, rs: m(iargs, rs))(m)
            for name, m in alg.methods.items()
        },
    )


# ---------------------------------------------------------------------------
# The properties


def check_equivalence(ctx: GroupContext, max_size: int) -> PropertyResult:
    """eval_nfold and the function-space route agree on every case."""
    sweep = _Sweep("nfold-vs-nfold-prime")
    pool = _pool(ctx)
    algs = catalogue(ctx)
    (dc,) = ctx.app_ctor.values()
    for depth in range(4):
        idx = nat_index(dc, depth)
        shown = render_index(idx, ctx.spec)
        for v in enumerate_values(ctx, idx, pool, max_size):
            for alg in algs.values():
                lhs = eval_nfold(ctx, alg, idx, v)
                rhs = eval_nfold_prime(ctx, alg, idx, v)
                if not sweep.check(
                    shown,
                    v,
                    alg.name,
                    _results_equal(lhs, rhs),
                    _result_str(lhs),
                    _result_str(rhs),
                ):
                    return sweep.result()
    return sweep.result()


def check_map_identity(
    ctx: GroupContext, max_size: int, max_depth: int
) -> PropertyResult:
    """Mapping the identity over every slot returns the value unchanged."""
    sweep = _Sweep("map-identity")
    pool = _pool(ctx)
    fs = {k: (lambda v: v) for k in range(ctx.spec.base_var_count)}
    for idx in _suite_indices(ctx, max_depth):
        shown = render_index(idx, ctx.spec)
        for v in enumerate_values(ctx, idx, pool, max_size):
            out = eval_map(ctx, fs, idx, v)
            if not sweep.check(
                shown, v, "identity", out == v, render_value(out), render_value(v)
            ):
                return sweep.result()
    return sweep.result()


def check_map_composition(ctx: GroupContext, max_size: int) -> PropertyResult:
    """Mapping once at depth m+n equals mapping at m with an inner depth-n map."""
    sweep = _Sweep("map-composition")
    pool = _pool(ctx)
    (dc,) = ctx.app_ctor.values()
    for m in range(5):
        for n in range(5 - m):
            whole = nat_index(dc, m + n)
            outer = nat_index(dc, m)
            inner = nat_index(dc, n)
            shown = f"{render_index(whole, ctx.spec)} split {m}+{n}"
            for v in enumerate_values(ctx, whole, pool, max_size):
                for fname, f in MAP_FNS:
                    lhs = eval_map(ctx, {0: f}, whole, v)
                    rhs = eval_map(
                        ctx,
                        {0: lambda w: eval_map(ctx, {0: f}, inner, w)},
                        outer,
                        v,
                    )
                    if not sweep.check(
                        shown,
                        v,
                        fname,
                        lhs == rhs,
                        render_value(lhs),
                        render_value(rhs),
                    ):
                        return sweep.result()
    return sweep.result()


def check_hfold_conformance(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The fold-backed higher-order fold matches the literal recursion."""
    sweep = _Sweep("hfold-conformance")
    decl = ctx.group.decls[0]
    idx = nat_index(ctx.app_ctor[decl], 1)
    shown = render_index(idx, ctx.spec)
    halgs = halg_catalogue(ctx)
    for v in enumerate_values(ctx, idx, _pool(ctx), max_size):
        for halg in halgs.values():
            lhs = halg.finish(eval_hfold_via_nfold(ctx, halg, decl, v))
            rhs = halg.finish(eval_hfold_direct(ctx, halg, v))
            if not sweep.check(
                shown,
                v,
                halg.name,
                _results_equal(lhs, rhs),
                _result_str(lhs),
                _result_str(rhs),
            ):
                return sweep.result()
    return sweep.result()


def check_hfold_leaf(ctx: GroupContext) -> PropertyResult:
    """On the nullary constructor the higher-order fold is its nil method."""
    sweep = _Sweep("hfold-leaf-equation")
    decl = ctx.group.decls[0]
    nil, _ = bush_shape(ctx)
    shown = render_index(nat_index(ctx.app_ctor[decl], 1), ctx.spec)
    v = VCon(nil)
    for halg in halg_catalogue(ctx).values():
        lhs = halg.finish(eval_hfold_via_nfold(ctx, halg, decl, v))
        rhs = halg.finish(halg.methods[nil]())
        if not sweep.check(
            shown,
            v,
            halg.name,
            _results_equal(lhs, rhs),
            _result_str(lhs),
            _result_str(rhs),
        ):
            return sweep.result()
    return sweep.result()


def check_hmap_agreement(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The one-layer map derived from the fold matches the direct recursion."""
    sweep = _Sweep("hmap-agreement")
    (dc,) = ctx.app_ctor.values()
    idx = nat_index(dc, 1)
    shown = render_index(idx, ctx.spec)
    for v in enumerate_values(ctx, idx, _pool(ctx), max_size):
        for fname, f in MAP_FNS:
            lhs = eval_map(ctx, {0: f}, idx, v)
            rhs = eval_hmap_direct(ctx, f, v)
            if not sweep.check(
                shown, v, fname, lhs == rhs, render_value(lhs), render_value(rhs)
            ):
                return sweep.result()
    return sweep.result()


def check_hmap_cons(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The one-layer map satisfies its defining equation on both constructors."""
    sweep = _Sweep("hmap-cons-equation")
    nil, cons = bush_shape(ctx)
    (dc,) = ctx.app_ctor.values()
    idx = nat_index(dc, 1)
    shown = render_index(idx, ctx.spec)
    for v in enumerate_values(ctx, idx, _pool(ctx), max_size):
        for fname, f in MAP_FNS:
            lhs = eval_map(ctx, {0: f}, idx, v)
            if isinstance(v, VCon) and v.ctor == cons:
                x, xs = v.args
                hmap_f = lambda s: eval_map(ctx, {0: f}, idx, s)
                rhs = VCon(cons, (f(x), eval_map(ctx, {0: hmap_f}, idx, xs)))
            else:
                rhs = v
            if not sweep.check(
                shown, v, fname, lhs == rhs, render_value(lhs), render_value(rhs)
            ):
                return sweep.result()
    return sweep.result()


def check_ind_agreement(
    ctx: GroupContext, max_size: int, max_depth: int
) -> PropertyResult:
    """Induction with value-ignoring methods computes exactly the fold."""
    sweep = _Sweep("ind-agreement")
    pool = _pool(ctx)
    algs = catalogue(ctx)
    for idx in _suite_indices(ctx, max_depth):
        shown = render_index(idx, ctx.spec)
        for v in enumerate_values(ctx, idx, pool, max_size):
            for alg in algs.values():
                lhs = eval_ind(ctx, _ignore_values(alg), idx, v)
                rhs = eval_nfold(ctx, alg, idx, v)
                if not sweep.check(
                    shown,
                    v,
                    alg.name,
                    _results_equal(lhs, rhs),
                    _result_str(lhs),
                    _result_str(rhs),
                ):
                    return sweep.result()
    return sweep.result()


def check_spine_fold_agreement(ctx: GroupContext, max_size: int) -> PropertyResult:
    """The derived fold on an ordinary list type matches a hand-written fold."""
    sweep = _Sweep("spine-fold-agreement")
    nil, cons = group_spine_shape(ctx)

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
    (dc,) = ctx.app_ctor.values()
    idx = nat_index(dc, 1)
    shown = render_index(idx, ctx.spec)
    algs = catalogue(ctx)
    for v in enumerate_values(ctx, idx, _pool(ctx), max_size):
        for name, (base, step) in oracles.items():
            lhs = nat_of(eval_nfold(ctx, algs[name], idx, v))
            rhs = fold_list(base, step, v)
            if not sweep.check(shown, v, name, lhs == rhs, str(lhs), str(rhs)):
                return sweep.result()
    return sweep.result()


def check_call_counter(
    ctx: GroupContext, max_size: int, max_depth: int
) -> PropertyResult:
    """Every evaluator makes at most size(v) recursive calls on values."""
    sweep = _Sweep("call-counter-bound")
    pool = _pool(ctx)
    algs = catalogue(ctx)
    fs = {k: (lambda v: v) for k in range(ctx.spec.base_var_count)}
    for idx in _suite_indices(ctx, max_depth):
        shown = render_index(idx, ctx.spec)
        for v in enumerate_values(ctx, idx, pool, max_size):
            bound = value_size(v)
            runs = (
                ("nfold", lambda c: eval_nfold(ctx, algs["sum"], idx, v, c)),
                ("nmap", lambda c: eval_map(ctx, fs, idx, v, c)),
                (
                    "ind",
                    lambda c: eval_ind(ctx, _ignore_values(algs["sum"]), idx, v, c),
                ),
            )
            for label, run in runs:
                counter = CallCounter()
                run(counter)
                if not sweep.check(
                    shown,
                    v,
                    label,
                    counter.calls <= bound,
                    f"{counter.calls} calls",
                    f"size bound {bound}",
                ):
                    return sweep.result()
    return sweep.result()


# ---------------------------------------------------------------------------
# The suite


def run_suite(
    ctx: GroupContext, max_size: int, max_depth: int | None = None
) -> SuiteReport:
    """Run every property applicable to the group, deterministically.

    max_depth bounds the index family; it defaults to 3 for groups whose
    index universe is a copy of the naturals and 2 otherwise (multi-variable
    index universes grow too quickly for an exhaustive deeper sweep).
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    if max_depth is None:
        max_depth = 3 if nat_index_eligible(ctx) else 2

    results: list[PropertyResult] = []
    bushy = bush_shape(ctx) is not None
    if bushy:
        results.append(check_equivalence(ctx, max_size))
    results.append(check_map_identity(ctx, max_size, max_depth))
    if nat_index_eligible(ctx):
        results.append(check_map_composition(ctx, max_size))
    if bushy:
        results.append(check_hfold_conformance(ctx, max_size))
        results.append(check_hfold_leaf(ctx))
        results.append(check_hmap_agreement(ctx, max_size))
        results.append(check_hmap_cons(ctx, max_size))
    results.append(check_ind_agreement(ctx, max_size, max_depth))
    if not ctx.group.nested and group_spine_shape(ctx) is not None:
        results.append(check_spine_fold_agreement(ctx, max_size))
    results.append(check_call_counter(ctx, max_size, max_depth))
    return SuiteReport(ctx.name, max_size, tuple(results))
