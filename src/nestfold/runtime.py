"""Execute derived folds on concrete values.

Typing, nfold, ind and enumeration place constructor arguments at their
indices by one rule, GroupContext.ctors_at, which substitutes each (index,
constructor) pair once, when it is first met.  Enumeration keeps its
exact-size pools on the GroupContext, so each (index, size) pool of a base
pool is built once per context.  Before it places an index it consults
GroupContext.least_size, a lower bound on the size of any value there,
computed from the constructor templates: an index, a constructor or an
argument whose bound exceeds the size left is skipped unplaced.  A lower
bound only ever skips pools that are empty, so the values and their order
are what the full product over every split gives.

A fold result (RuntimeResult) has one representation per carrier: a
natural is a Python int, a value tree is the Value itself, and a function is
an RFun.  Functions are only ever observed by application — equality checks
must drive them to a first-order result first.

`nestfold eval` places each node of its value (a values.Value, as
values.parse_value_literal reads it) once.  typecheck_value is one
explicit-stack walk: it types every node and lists every (index, node) pair,
base positions included, on a tape in left-to-right post-order.  It pairs a
node's arguments with their indices by position, last first, and a node
whose arity is not its constructor's (one built by hand: the reader refuses
such a literal) is one diagnostic in the reader's words, with nothing below
it placed.  fold_tape folds the tape in one loop over a result stack.
Neither recurses, so a literal as deep as a long list evaluates under the
default recursion limit.

The suite folds the pool, not each value.  Each (index, value) pair that
enumerate_values builds is a row of its base pool's row table (pool_set):
(index, node, the rows of its arguments), or (index, base value, None), in
build order, so a row's arguments come first.  prepare_nfold, prepare_ind,
prepare_map and prepare_map_over check or build their algebra once and
return a row fold: one loop that fills a result list in row order, up to
the highest row asked for, so a shared sub-value is folded once and a
case's result is one list read.  Map results are interned too, so equal
ones are one object.  Nothing a row fold builds refers back to it, so
dropping it frees its results by reference counting alone.  eval_nfold,
eval_ind, eval_map and eval_hfold_via_nfold fold one value by plain
recursion: the reference the row folds are checked against.

The two *direct* evaluators (eval_hfold_direct, eval_hmap_direct) transcribe
the non-structural recursions verbatim and serve as oracles for the derived
routes.  Each recursion exists once (_hfold, _hybrid_map) and works on hybrid
trees: a payload slot holds either a value or a carrier result, and wrap
turns either into a result.  A natural base value VBase(n) in a slot reads
as the natural n; every other slot content is its own result.  No shipped
algebra puts a VBase tree result into a hybrid slot, so the reading is
unambiguous.  Both carry a depth guard so that an implementation bug shows
up as GuardExceeded instead of a hang; default_guard, sized from the value
(and the index depth, for nfold'), is the one budget of every guarded walk.

nfold' runs as the PS bridge derives it: PS-to-P . liftNTimes hmap fold-PS,
where fold-PS is the one direct hfold at the PS carrier and liftNTimes hmap
is the one direct hmap.

nfold' and the direct evaluators are not memoized: they are the independent
references the derived routes are checked against, so they pay per node,
and they keep that cost small without changing what they compute or in
which order.  Each recursion reads a node's class, constructor and arity
once and compares its depth with the guard inline; an RFun is a plain
slotted object; the bush shape is read from GroupContext.bush_shape, worked
out once per context.  prepare_nfold_prime builds fold-PS's methods once,
and they build each level's method-argument tuple once.  lift and PS-to-P
are module-level functions, so a case leaves no reference cycle behind.
"""

from __future__ import annotations

from itertools import product
from collections.abc import Callable

from .analysis import (
    GroupContext,
    IApp,
    IndexExpr,
    IVar,
    index_depth,
)
from .diagnostics import Diagnostic, EvalError, GuardExceeded, Record, _set
from .parser import NAT_MAX
from .values import Atom, Value, VBase, VCon, render_value, value_size


# ---------------------------------------------------------------------------
# Results and naturals


class RFun:
    """A function result.  A plain slotted class, not a Record: the PS
    carrier builds several per node with one plain assignment each, and a
    function result is never compared."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __eq__(self, other):
        raise EvalError("function results are only compared after application")

    __hash__ = None

    def __str__(self) -> str:
        return "<function>"


RuntimeResult = int | Value | RFun


def nat_add(m: int, n: int) -> int:
    s = m + n
    if s > NAT_MAX:
        raise EvalError(f"natural overflow: {m} + {n} exceeds 64 bits")
    return s


def nat_succ(n: int) -> int:
    return nat_add(n, 1)


def wrap(x: Value | RuntimeResult) -> RuntimeResult:
    """A natural payload reads as a natural; everything else is itself."""
    if isinstance(x, VBase) and isinstance(x.payload, int):
        return x.payload
    return x


def as_value(r: RuntimeResult) -> Value:
    if isinstance(r, int):
        return VBase(r)
    if isinstance(r, RFun):
        raise EvalError("a function result has no value form; apply it first")
    return r


def apply_result(f: RuntimeResult, x: RuntimeResult) -> RuntimeResult:
    if not isinstance(f, RFun):
        raise EvalError("applied a non-function result")
    return f.fn(x)


def nat_of(r: RuntimeResult) -> int:
    if not isinstance(r, int):
        raise EvalError("expected a natural-valued result")
    return r


# ---------------------------------------------------------------------------
# Algebras


class Algebra(Record):
    """Methods receive (index arguments, folded argument results).  The
    methods of an induction algebra (eval_ind) also receive the examined
    sub-values, between the two.  Algebras compare by name."""

    __slots__ = __match_args__ = ("name", "bases", "methods")
    _compared = ("name",)

    def __init__(
        self,
        name: str,
        bases: dict[int, Callable[[Value], RuntimeResult]],
        methods: dict[str, Callable[..., RuntimeResult]],
    ):
        _set(self, "name", name)
        _set(self, "bases", bases)
        _set(self, "methods", methods)


class HAlgebra(Record):
    """A higher-order fold algebra plus finish, which makes its results
    first-order for comparisons (identity except for function carriers).
    Algebras compare by name."""

    __slots__ = __match_args__ = ("name", "methods", "finish")
    _compared = ("name",)

    def __init__(
        self,
        name: str,
        methods: dict[str, Callable],
        finish: Callable[[RuntimeResult], RuntimeResult],
    ):
        _set(self, "name", name)
        _set(self, "methods", methods)
        _set(self, "finish", finish)


def check_algebra(ctx: GroupContext, alg: Algebra) -> None:
    missing = [k for k in range(ctx.base_var_count) if k not in alg.bases]
    if missing:
        raise EvalError(f"algebra is missing base functions for slots {missing}")
    for _, c in ctx.ctors():
        if c.name not in alg.methods:
            raise EvalError(f"algebra is missing a method for constructor {c.name}")


# ---------------------------------------------------------------------------
# Value typing


#: A value's placement: every (index, node) pair of it, base positions
#: included, in left-to-right post-order.
Tape = list[tuple[IndexExpr, Value]]

#: Marks a node's second visit on typecheck_value's stack.
_PLACED = object()


def typecheck_value(
    ctx: GroupContext, idx: IndexExpr, universes: dict[int, str], v: Value
) -> tuple[list[Diagnostic], Tape]:
    """Check that v inhabits the interpretation of idx, and place its nodes.

    One explicit-stack walk.  A node is typed on its first visit, so the
    diagnostics come in left-to-right pre-order; it joins the tape on its
    second visit, after every node below it.  Nothing below an ill-typed
    node is placed, so the tape is whole only when there are no
    diagnostics."""
    out: list[Diagnostic] = []
    tape: Tape = []
    place = tape.append
    stack: list = [(idx, v)]
    pop, push = stack.pop, stack.append
    ctors_at = ctx.ctors_at

    def report(msg: str, at: Value) -> None:
        line, col = at.pos if at.pos else (None, None)
        out.append(Diagnostic(msg, line, col))

    while stack:
        entry = pop()
        i, w = entry
        if w is _PLACED:
            place(i)
        elif i.__class__ is IVar:
            nat = universes.get(i.k, "nat") == "nat"
            if w.__class__ is VBase and isinstance(w.payload, int) == nat:
                place(entry)
            else:
                found = w.payload if w.__class__ is VBase else f"constructor {w.ctor!r}"
                report(f"expected {'a natural' if nat else 'an atom'}, found {found}", w)
        elif w.__class__ is VCon:
            at = ctors_at(i, w.ctor)
            if at is None:
                report(f"expected a {ctx.decl_of_app[i.ctor]} constructor, found {w.ctor!r}", w)
            else:
                args = w.args
                k = len(args)
                if len(at) != k:
                    report(f"{w.ctor} takes {len(at)} argument(s), got {k}", w)
                    continue
                push((entry, _PLACED))
                while k:
                    k -= 1
                    push((at[k], args[k]))
        else:
            report(
                f"expected a {ctx.decl_of_app[i.ctor]} constructor, found base value {w.payload}", w
            )
    return out, tape


def fold_tape(ctx: GroupContext, alg: Algebra, tape: Tape) -> RuntimeResult:
    """nfold over a whole tape (see typecheck_value): one loop over a result
    stack.  A base position pushes its base function's result; a constructor
    node pops its arguments' results and pushes its method's.  Bases and
    methods run in the order eval_nfold runs them, so the first error is
    the same."""
    check_algebra(ctx, alg)
    bases, methods = alg.bases, alg.methods
    rs: list[RuntimeResult] = []
    push = rs.append
    for i, w in tape:
        if i.__class__ is IVar:
            push(bases[i.k](w))
        else:
            k = len(rs) - len(w.args)
            args = tuple(rs[k:])
            del rs[k:]
            push(methods[w.ctor](i.args, args))
    (r,) = rs
    return r


# ---------------------------------------------------------------------------
# The dependently typed fold and its relatives


#: A fold on one value at a time: (index, value) -> result.
Fold = Callable[[IndexExpr, Value], RuntimeResult]

#: A fold on a row table (see Row): row number -> result.
RowFold = Callable[[int], RuntimeResult]


def prepare_nfold(ctx: GroupContext, alg: Algebra, table: list[Row]) -> RowFold:
    """nfold at alg on the rows of table, its algebra checked once."""
    check_algebra(ctx, alg)
    return _row_fold(table, alg, False)


def prepare_ind(ctx: GroupContext, alg: Algebra, table: list[Row]) -> RowFold:
    """Induction at alg on the rows of table, its algebra checked once."""
    check_algebra(ctx, alg)
    return _row_fold(table, alg, True)


def _row_fold(table: list[Row], alg: Algebra, ind: bool) -> RowFold:
    """Asked for a row, fill the results of every row up to it, in row order."""
    bases, methods = alg.bases, alg.methods
    rs: list[RuntimeResult] = []
    push, get = rs.append, rs.__getitem__

    def fold(row: int) -> RuntimeResult:
        if row >= len(rs):
            for i, v, args in table[len(rs) : row + 1]:
                if args is None:
                    push(bases[i.k](v))
                elif ind:
                    push(methods[v.ctor](i.args, v.args, tuple(map(get, args))))
                else:
                    push(methods[v.ctor](i.args, tuple(map(get, args))))
        return rs[row]

    return fold


def eval_nfold(ctx: GroupContext, alg: Algebra, idx: IndexExpr, v: Value) -> RuntimeResult:
    check_algebra(ctx, alg)
    return _walk(ctx, alg, idx, v, False)


def eval_ind(ctx: GroupContext, alg: Algebra, idx: IndexExpr, v: Value) -> RuntimeResult:
    """Induction: nfold whose methods also receive the examined sub-values."""
    check_algebra(ctx, alg)
    return _walk(ctx, alg, idx, v, True)


def _walk(ctx, alg, idx, v, ind):
    """nfold, or induction when ind, at alg on v: one recursion per node."""
    if isinstance(idx, IVar):
        return alg.bases[idx.k](v)
    at = ctx.ctors_at(idx, v.ctor) if isinstance(v, VCon) else None
    if at is None:
        decl = ctx.decl_of_app[idx.ctor]
        raise EvalError(f"value {render_value(v)} does not inhabit a {decl} index")
    rs = tuple([_walk(ctx, alg, t, sub, ind) for t, sub in zip(at, v.args)])
    return alg.methods[v.ctor](idx.args, v.args, rs) if ind else alg.methods[v.ctor](idx.args, rs)


def map_algebra(ctx: GroupContext, fs: dict[int, Callable[[Value], Value]]) -> Algebra:
    """The derived map of fs as a fold: its methods rebuild their constructor.
    What it builds is interned (see enumerate_values), the base values fs
    returns too, so two equal results built from interned parts are one
    object."""
    interned = ctx.interned
    bases = {k: (lambda f: lambda v: _intern(interned, f(v)))(f) for k, f in fs.items()}
    methods = {
        c.name: (lambda name: lambda iargs, rs: _intern(interned, VCon(name, rs)))(c.name)
        for _, c in ctx.ctors()
    }
    return Algebra("map", bases, methods)


def eval_map(
    ctx: GroupContext, fs: dict[int, Callable[[Value], Value]], idx: IndexExpr, v: Value
) -> Value:
    """The derived map: nfold at map_algebra(ctx, fs)."""
    return eval_nfold(ctx, map_algebra(ctx, fs), idx, v)


def prepare_map(
    ctx: GroupContext, fs: dict[int, Callable[[Value], Value]], table: list[Row]
) -> RowFold:
    """The derived map of fs on the rows of table."""
    return prepare_nfold(ctx, map_algebra(ctx, fs), table)


def prepare_map_over(ctx: GroupContext, inner: RowFold, n: int, table: list[Row]) -> RowFold:
    """The map at any level m whose base is the row fold inner at level n, on
    rows at level m + n, where indices are levels: a row at level n reads
    inner, a row above rebuilds its node as prepare_map does.  A node's
    arguments sit at most one level below it, so rows below n get None."""
    at_n, below, interned = ctx.level(n), {ctx.level(j) for j in range(n)}, ctx.interned
    rs: list[Value | None] = []
    push, get = rs.append, rs.__getitem__

    def fold(row: int) -> Value:
        for r in range(len(rs), row + 1):
            i, v, args = table[r]
            if i is at_n or i in below:
                push(inner(r) if i is at_n else None)
            else:
                push(_intern(interned, VCon(v.ctor, tuple(map(get, args)))))
        return rs[row]

    return fold


def _intern(interned: dict, w: Value) -> Value:
    """The one object of w in interned (see enumerate_values); the arguments
    of a node must be their own already."""
    key = (type(w.payload), w.payload) if w.__class__ is VBase else (w.ctor, *map(id, w.args))
    return interned.setdefault(key, w)


# ---------------------------------------------------------------------------
# Higher-order folds: the derived route and the direct oracles


def default_guard(v: Value, idx_depth: int = 0) -> int:
    return 10 * (value_size(v) + idx_depth) + 100


def _bush(ctx: GroupContext, what: str) -> tuple[str, str]:
    shape = ctx.bush_shape
    if shape is None:
        raise EvalError(f"{what} needs a bush-shaped declaration")
    return shape


def hfold_algebra(ctx: GroupContext, halg: HAlgebra) -> Algebra:
    """hfold as an nfold algebra: identity bases, halg's methods on results."""
    return Algebra(
        f"hfold-{halg.name}",
        bases={k: wrap for k in range(ctx.base_var_count)},
        methods={
            c.name: (lambda m: lambda iargs, rs: m(*rs))(halg.methods[c.name])
            for _, c in ctx.ctors()
        },
    )


def eval_hfold_via_nfold(
    ctx: GroupContext, halg: HAlgebra, decl_name: str, v: Value
) -> RuntimeResult:
    """hfold as nfold at the declaration's own index with identity bases."""
    return eval_nfold(ctx, hfold_algebra(ctx, halg), ctx.own_index(decl_name), v)


def eval_hfold_direct(ctx: GroupContext, halg: HAlgebra, v: Value) -> RuntimeResult:
    """The introduction's non-structural recursion, transcribed literally."""
    nil, cons = _bush(ctx, "the direct higher-order fold")
    return _hfold(halg.methods[nil], halg.methods[cons], v, nil, cons, 0, default_guard(v))


def _hfold(leaf, node, t, nil, cons, depth, limit):
    """hfold l n (cons x xs) = n x (hfold l n (hmap (hfold l n) xs)).

    A payload slot of t holds a value or, once mapped, a carrier result;
    wrap tells the two apart by type.  Each node is read once: its class,
    its constructor and its arity, in that order."""
    if depth > limit:
        raise _runaway(limit)
    if t.__class__ is VCon:
        c, args = t.ctor, t.args
        if not args and c == nil:
            return leaf()
        if len(args) == 2 and c == cons:
            x, xs = args
            depth += 1
            fold = lambda s: _hfold(leaf, node, s, nil, cons, depth, limit)
            mapped = _hybrid_map(fold, xs, nil, cons, depth, limit)
            return node(wrap(x), _hfold(leaf, node, mapped, nil, cons, depth, limit))
    raise EvalError(f"direct fold met a foreign node {t!r}")


def _hybrid_map(f, t, nil, cons, depth, limit):
    """hmap f (cons x xs) = cons (f x) (hmap (hmap f) xs), read as _hfold reads."""
    if depth > limit:
        raise _runaway(limit)
    if t.__class__ is VCon:
        c, args = t.ctor, t.args
        if not args and c == nil:
            return t
        if len(args) == 2 and c == cons:
            x, xs = args
            depth += 1
            inner = lambda s: _hybrid_map(f, s, nil, cons, depth, limit)
            return VCon(cons, (f(x), _hybrid_map(inner, xs, nil, cons, depth, limit)))
    raise EvalError(f"direct map met a foreign node {t!r}")


def _runaway(limit: int) -> GuardExceeded:
    return GuardExceeded(
        f"direct-recursion depth exceeded {limit}; this is a bug in the "
        "evaluator, not in the input"
    )


def eval_hmap_direct(ctx: GroupContext, f: Callable[[Value], Value], v: Value) -> Value:
    """First-order direct map: hmap f (cons x xs) = cons (f x) (hmap (hmap f) xs)."""
    nil, cons = _bush(ctx, "the direct map")
    return _hybrid_map(f, v, nil, cons, 0, default_guard(v))


# ---------------------------------------------------------------------------
# nfold' — the round trip through the function-space carrier


def prepare_nfold_prime(ctx: GroupContext, alg: Algebra) -> Fold:
    """nfold' at alg (see eval_nfold_prime), its algebra checked and its
    fold-PS methods built once."""
    check_algebra(ctx, alg)
    nil, cons = _bush(ctx, "the function-space route")
    leaf, node = _ps_methods(ctx, alg, nil, cons)
    return lambda idx, v: _nfold_prime(ctx, alg, leaf, node, nil, cons, idx, v)


def eval_nfold_prime(
    ctx: GroupContext, alg: Algebra, idx: IndexExpr, v: Value
) -> RuntimeResult:
    """nfold' = PS-to-P . liftNTimes hmap fold-PS, as the PS bridge derives it.

    fold-PS is the direct hfold at the PS carrier: a function taking a level
    number and a continuation for the level below.  Lifting maps fold-PS
    through every level of the value, and PS-to-P peels the levels off.
    """
    return prepare_nfold_prime(ctx, alg)(idx, v)


def _nfold_prime(ctx, alg, leaf, node, nil, cons, idx, v):
    depth = index_depth(idx)
    if idx != ctx.level(depth):
        raise EvalError("index must be an iterated application over the base slot")
    limit = default_guard(v, depth)
    return _ps_to_p(alg, depth, _lift(leaf, node, nil, cons, depth, v, limit))


def _ps_methods(ctx: GroupContext, alg: Algebra, nil: str, cons: str):
    """fold-PS's leaf and node methods at alg: results at the PS carrier."""
    levels: dict[int, tuple[IndexExpr]] = {}

    def level(n: RuntimeResult) -> tuple[IndexExpr]:
        """The index arguments of a method at level n, built once per level."""
        k = nat_of(n)
        args = levels.get(k)
        if args is None:
            args = levels[k] = (ctx.level(k),)
        return args

    def leaf() -> RuntimeResult:
        # λ i tr → leaf' i
        return RFun(lambda n: RFun(lambda tr: alg.methods[nil](level(n), ())))

    def node(x: RuntimeResult, xs: RuntimeResult) -> RuntimeResult:
        # λ x xs i tr → cons' i (tr x) (xs (succ i) (λ f → f i tr))
        def at_level(n):
            def with_continuation(tr):
                r1 = apply_result(tr, x)
                deeper = apply_result(
                    apply_result(xs, nat_succ(nat_of(n))),
                    RFun(lambda f: apply_result(apply_result(f, n), tr)),
                )
                return alg.methods[cons](level(n), (r1, deeper))

            return RFun(with_continuation)

        return RFun(at_level)

    return leaf, node


def _lift(leaf, node, nil, cons, d, t, limit):
    """liftNTimes hmap fold-PS at d levels: every entry of t lifted at
    d - 1 levels, then t folded at the PS carrier."""
    if d == 0:
        return t
    lift = lambda s: _lift(leaf, node, nil, cons, d - 1, s, limit)
    return _hfold(leaf, node, _hybrid_map(lift, t, nil, cons, 1, limit), nil, cons, 0, limit)


def _ps_to_p(alg, m, x) -> RuntimeResult:
    """PS-to-P: peel m levels off a PS-carrier result x."""
    if m == 0:
        return alg.bases[0](as_value(x))
    return apply_result(apply_result(x, m - 1), RFun(lambda r: _ps_to_p(alg, m - 1, r)))


# ---------------------------------------------------------------------------
# Exhaustive enumeration


#: One row per (index, value) pair enumerated over one base pool:
#: (index, node, the rows of its arguments), or (index, base value, None).
Row = tuple[IndexExpr, Value, tuple[int, ...] | None]


def enumerate_values(
    ctx: GroupContext,
    idx: IndexExpr,
    pool: dict[int, tuple[Value, ...]],
    max_size: int,
) -> list[Value]:
    """Every value of idx with at most max_size constructor nodes,
    sizes ascending, then constructor order, then argument order.  The
    exact-size pools are kept on ctx, one set per base pool (pool_set); a
    pool, once built, appends a row per value to the set's row table, after
    its arguments' rows, and keeps the range of rows it appended.

    Every value is built through ctx.interned (hash-consing): a base value
    is keyed by its payload's type and the payload, a constructor node by
    its name and its arguments' ids.  So two enumerated values of one
    context are equal exactly when they are one object, across every index
    and base pool, and the table keeps each of them alive with the context.

    An (index, size) pool is empty at once when the index's least size
    (ctx.least_at, from its arguments' ctx.least_size) exceeds the size.  A
    constructor is skipped before its arguments are placed when their least
    sizes cannot fit, and a split of the size over the arguments is dropped
    at the first argument whose size is below its least size or whose pool
    is empty.  The bound is a lower bound, so each skip removes only an
    empty product: the values, their order and their interning are those of
    the full product, also when a base pool is empty."""
    memo, table = pool_set(ctx, pool)
    interned = ctx.interned
    least_size, least_at = ctx.least_size, ctx.least_at

    def exact(i: IndexExpr, size: int) -> tuple[tuple[Value, ...], range]:
        key = (i, size)
        if key in memo:
            return memo[key]
        out: list[Value] = []
        rows: list[Row] = []
        if i.__class__ is IVar:
            if size == 0:
                out.extend(_intern(interned, b) for b in pool[i.k])
                rows.extend((i, b, None) for b in out)
        else:
            slots = tuple(least_size(a, size - 1) for a in i.args)
            if least_at(i.ctor, slots, size) <= size:
                add = rows.append
                for c in ctx.decls[ctx.decl_of_app[i.ctor]].ctors:
                    name = c.name
                    bounds = [least_size(t, size - 1, slots) for t in ctx.arg_templates[name]]
                    if sum(bounds) >= size:
                        continue
                    at = ctx.ctors_at(i, name)
                    for split in _splits(size - 1, len(at)):
                        pools, ranges = [], []
                        for t, s, b in zip(at, split, bounds):
                            p, r = exact(t, s) if s >= b else ((), ())
                            if not p:
                                break
                            pools.append(p)
                            ranges.append(r)
                        else:
                            for combo, args in zip(product(*pools), product(*ranges)):
                                node = (name, *map(id, combo))
                                v = interned.get(node)
                                if v is None:
                                    v = interned[node] = VCon(name, combo)
                                out.append(v)
                                add((i, v, args))
        start = len(table)
        table.extend(rows)
        memo[key] = entry = (tuple(out), range(start, len(table)))
        return entry

    # Argument indices come canonical from ctx.ctors_at; so does idx, and
    # so every row's index is its canonical object.
    idx = ctx.canonical(idx)
    values = [v for s in range(max_size + 1) for v in exact(idx, s)[0]]
    # exact refers to itself; unbinding it lets reference counting free the
    # closure, and its hold on ctx, without waiting for the cyclic collector.
    del exact
    return values


def pool_set(ctx: GroupContext, pool: dict[int, tuple[Value, ...]]) -> tuple[dict, list[Row]]:
    """The pools enumerate_values has built over pool, by (index, size), each
    its values and the range of their rows, and the pools' row table."""
    return ctx.pools.setdefault(tuple(sorted(pool.items())), ({}, []))


def _splits(total: int, parts: int):
    """Compositions of `total` into `parts` ordered slots, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _splits(total - first, parts - 1):
            yield (first, *rest)


# ---------------------------------------------------------------------------
# The algebra catalogue


def _encode_index(e: IndexExpr, ctx: GroupContext) -> Value:
    match e:
        case IVar(k):
            return VBase(Atom(ctx.var_ctors[k]))
        case IApp(c, args):
            return VCon("@" + c, tuple(_encode_index(a, ctx) for a in args))
    raise AssertionError


def catalogue(ctx: GroupContext) -> dict[str, Algebra]:
    """The fixed algebras the property suite runs every theorem against.

    The natural-valued methods of sum, depth and length run once per row of
    every fold at them, so each computes in a plain loop over its results
    while every one is an int (not a bool) and no step passes NAT_MAX.  On
    anything else it hands its results to the checked path (nat_of, nat_add,
    nat_succ), which refuses them with the same error at the same operand:
    the fast path accepts nothing the checked one refuses and returns what
    it returns."""
    algs: dict[str, Algebra] = {}
    every_var = range(ctx.base_var_count)

    def nat_base(v: Value) -> RuntimeResult:
        if not (isinstance(v, VBase) and isinstance(v.payload, int)):
            raise EvalError(f"sum needs a natural at a base slot, found {render_value(v)}")
        return v.payload

    algs["sum"] = Algebra(
        "sum",
        bases={k: nat_base for k in every_var},
        methods={c.name: _sum_method for _, c in ctx.ctors()},
    )

    algs["depth"] = Algebra(
        "depth",
        bases={k: (lambda v: 0) for k in every_var},
        methods={c.name: _depth_method for _, c in ctx.ctors()},
    )

    # Every node at one index shares its index-argument tuple, so each tuple
    # is encoded once per catalogue, not once per node.
    encoded: dict[tuple[IndexExpr, ...], tuple[Value, ...]] = {}

    def encode(iargs: tuple[IndexExpr, ...]) -> tuple[Value, ...]:
        enc = encoded.get(iargs)
        if enc is None:
            enc = encoded[iargs] = tuple(_encode_index(i, ctx) for i in iargs)
        return enc

    algs["trace"] = Algebra(
        "trace",
        bases={
            k: (lambda k: lambda v: VCon("@" + ctx.var_ctors[k], (v,)))(k)
            for k in every_var
        },
        methods={
            c.name: (lambda tag: lambda iargs, rs: VCon(tag, encode(iargs) + rs))(
                "@" + c.name
            )
            for _, c in ctx.ctors()
        },
    )

    spine = ctx.spine_shape
    if spine is not None:
        nil, two = spine
        algs["length"] = Algebra(
            "length",
            bases={k: (lambda v: 0) for k in every_var},
            methods={
                nil: lambda iargs, rs: 0,
                two: _length_method,
            },
        )
    return algs


def _sum_method(iargs, rs) -> int:
    total = 0
    for r in rs:
        if r.__class__ is not int:
            break
        total += r
        if total > NAT_MAX:
            break
    else:
        return total
    total = 0
    for r in rs:
        total = nat_add(total, nat_of(r))
    return total


def _depth_method(iargs, rs) -> int:
    if not rs:
        return 0
    top = rs[0]
    for r in rs:
        if r.__class__ is not int:
            break
        if r > top:
            top = r
    else:
        if top < NAT_MAX:
            return top + 1
    return nat_succ(max(nat_of(r) for r in rs))


def _length_method(iargs, rs) -> int:
    n = rs[1]
    if n.__class__ is int and n < NAT_MAX:
        return n + 1
    return nat_succ(nat_of(n))


def halg_catalogue(ctx: GroupContext) -> dict[str, HAlgebra]:
    """Higher-order algebras for the conformance checks (bush shape only)."""
    shape = ctx.bush_shape
    if shape is None:
        return {}
    nil, cons = shape
    out: dict[str, HAlgebra] = {}

    out["sum-naive"] = HAlgebra(
        "sum-naive",
        methods={
            nil: lambda: 0,
            cons: lambda x, r: nat_add(nat_of(x), nat_of(r)),
        },
        finish=lambda r: r,
    )

    out["rebuild"] = HAlgebra(
        "rebuild",
        methods={
            nil: lambda: VCon(nil),
            cons: lambda x, r: VCon(cons, (as_value(x), r)),
        },
        finish=lambda r: r,
    )

    def cps_cons(x, xs):
        return RFun(
            lambda k: nat_add(
                nat_of(apply_result(k, x)),
                nat_of(apply_result(xs, RFun(lambda r: apply_result(r, k)))),
            )
        )

    out["cps-sum"] = HAlgebra(
        "cps-sum",
        methods={nil: lambda: RFun(lambda k: 0), cons: cps_cons},
        finish=lambda r: apply_result(r, RFun(lambda x: x)),
    )
    return out
