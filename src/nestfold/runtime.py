"""Execute derived folds on concrete values.

Typing, nfold, ind and enumeration place constructor arguments at their
indices by one rule, GroupContext.ctors_at, which substitutes each (index,
constructor) pair once, when it is first met.  A fold result
(RuntimeResult) has one representation per carrier: a natural is a Python
int, a value tree is the Value itself, and a function is an RFun or, at
fold-PS's carrier, a PS node; each is only ever observed by application.

`nestfold eval` places each node of its value once: typecheck_value types
the value in one explicit-stack walk and lists its (index, node) pairs on a
tape in left-to-right post-order, and fold_tape folds the tape in one loop.
Neither recurses, so a literal as deep as a long list evaluates under the
default recursion limit.

The suite folds the pool, not each value.  Each (index, value) pair that
enumerate_values builds is a row of its base pool's row table (pool_set),
in build order, so a row's arguments come first.  prepare_nfold,
prepare_ind, prepare_map and prepare_map_over check or build their algebra
once and return a RowFold, a result list that one loop fills in row order:
a shared sub-value is folded once, the results over a pool are one slice,
and the first row that raises ends the filling and keeps its exception.
Map results are interned, so equal ones are one object.  Nothing a row fold
builds refers back to it, so dropping it frees its results by reference
counting alone.  eval_nfold, eval_ind, eval_map and eval_hfold_via_nfold
fold one value by plain recursion: the reference the row folds are checked
against.

The direct evaluators (eval_hfold_direct, eval_hmap_direct) and nfold'
(PS-to-P . liftNTimes hmap fold-PS, as the PS bridge derives it)
transcribe the non-structural recursions verbatim.  They are the oracles of
the derived routes, so they are not memoized and pay per node, reading a
node's class, constructor and arity once.  Each recursion exists once
(_hfold, _hybrid_map), over hybrid trees whose payload slots hold a value
or a carrier result: wrap reads a natural VBase(n) as n and anything else
as itself.  Both are first-order: the function hmap maps is a Python
function or a frame, (g, d) for hmap g and (l, n, d) for hfold l n, made at
depth d, so neither builds a closure per node.  The PS carrier is
defunctionalised too: fold-PS builds first-order PS nodes, which one
interpreter, _run_ps, applies at a level, a plain int, and a continuation
frame, so the lift (prepare_lift) takes no algebra; PS-to-P does.  _lift,
_ps_to_p and _run_ps are module-level functions, so an evaluation leaves no
reference cycle behind.  A depth guard turns an evaluator bug into
GuardExceeded instead of a hang; its budget is guard(size, index depth),
the size measured by default_guard for a value evaluated alone and known
from the enumeration in the suite.
"""

from __future__ import annotations

from functools import partial
from itertools import product
from collections.abc import Callable

from .analysis import GroupContext, IndexExpr, IVar, fold_index, index_depth
from .diagnostics import Diagnostic, EvalError, GuardExceeded, Record
from .parser import NAT_MAX
from .values import Atom, Value, VBase, VCon, render_value, value_size


# ---------------------------------------------------------------------------
# Results and naturals


class RFun:
    """A function result, such as cps-sum's.  A plain slotted class, not a
    Record: it is built with one plain assignment, and a function result is
    never compared."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __eq__(self, other):
        raise EvalError("function results are only compared after application")

    __hash__ = None

    def __str__(self) -> str:
        return "<function>"


class PS:
    """A fold-PS result, cons x xs or (xs None) leaf: a function of a level and
    a continuation that only _run_ps applies, never compared, like an RFun."""

    __slots__ = ("x", "xs")

    def __init__(self, x=None, xs=None):
        self.x, self.xs = x, xs

    __eq__, __hash__, __str__ = RFun.__eq__, None, RFun.__str__


RuntimeResult = int | Value | RFun | PS


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
    if isinstance(r, (RFun, PS)):
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


class HAlgebra(Record):
    """A higher-order fold algebra plus finish, which makes its results
    first-order for comparisons (identity except for function carriers).
    Algebras compare by name."""

    __slots__ = __match_args__ = ("name", "methods", "finish")
    _compared = ("name",)


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


class RowFold:
    """A fold on the rows of a row table (see Row): fill(stop) extends the
    list results, in row order, through row stop - 1 with fill_rows.  The
    first row whose base or method raises ends the filling for good: results
    stop below it, and error keeps its exception (None until then)."""

    __slots__ = ("results", "error", "_fill_rows")

    def __init__(self, fill_rows: Callable[[list, int], None]):
        self.results, self.error, self._fill_rows = [], None, fill_rows

    def fill(self, stop: int) -> list[RuntimeResult]:
        rs = self.results
        if len(rs) < stop and self.error is None:
            try:
                self._fill_rows(rs, stop)
            except Exception as e:
                self.error = e
        return rs

    def __call__(self, row: int) -> RuntimeResult:
        """The result at row, or the error that ended the filling below it."""
        rs = self.fill(row + 1)
        if row < len(rs):
            return rs[row]
        raise self.error


def prepare_nfold(ctx: GroupContext, alg: Algebra, table: list[Row]) -> RowFold:
    """nfold at alg on the rows of table, its algebra checked once."""
    check_algebra(ctx, alg)
    return _row_fold(table, alg, False)


def prepare_ind(ctx: GroupContext, alg: Algebra, table: list[Row]) -> RowFold:
    """Induction at alg on the rows of table, its algebra checked once."""
    check_algebra(ctx, alg)
    return _row_fold(table, alg, True)


def _row_fold(table: list[Row], alg: Algebra, ind: bool) -> RowFold:
    """nfold, or induction when ind, filling one row after another."""
    bases, methods = alg.bases, alg.methods

    def fill_rows(rs: list, stop: int) -> None:
        push, get = rs.append, rs.__getitem__
        for i, v, args in table[len(rs) : stop]:
            if args is None:
                push(bases[i.k](v))
            elif ind:
                push(methods[v.ctor](i.args, v.args, tuple(map(get, args))))
            else:
                push(methods[v.ctor](i.args, tuple(map(get, args))))

    return RowFold(fill_rows)


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


def eval_map(ctx: GroupContext, fs: dict[int, Callable], idx: IndexExpr, v: Value) -> Value:
    """The derived map: nfold at map_algebra(ctx, fs)."""
    return eval_nfold(ctx, map_algebra(ctx, fs), idx, v)


def prepare_map(ctx: GroupContext, fs: dict[int, Callable], table: list[Row]) -> RowFold:
    """The derived map of fs on the rows of table."""
    return prepare_nfold(ctx, map_algebra(ctx, fs), table)


def prepare_map_over(ctx: GroupContext, inner: RowFold, n: int, table: list[Row]) -> RowFold:
    """The map at any level m whose base is the row fold inner at level n, on
    rows at level m + n, where indices are levels: a row at level n reads
    inner, a row above rebuilds its node as prepare_map does.  A node's
    arguments sit at most one level below it, so rows below n get None."""
    at_n, below, interned = ctx.level(n), {ctx.level(j) for j in range(n)}, ctx.interned

    def fill_rows(rs: list, stop: int) -> None:
        push, get = rs.append, rs.__getitem__
        for r in range(len(rs), stop):
            i, v, args = table[r]
            if i is at_n or i in below:
                push(inner(r) if i is at_n else None)
            else:
                push(_intern(interned, VCon(v.ctor, tuple(map(get, args)))))

    return RowFold(fill_rows)


def _intern(interned: dict, w: Value) -> Value:
    """The one object of w in interned (see enumerate_values); the arguments
    of a node must be their own already."""
    key = (type(w.payload), w.payload) if w.__class__ is VBase else (w.ctor, *map(id, w.args))
    return interned.setdefault(key, w)


# ---------------------------------------------------------------------------
# Higher-order folds: the derived route and the direct oracles


def guard(size: int, idx_depth: int = 0) -> int:
    """The depth budget of a guarded walk over a value of size constructor
    nodes at an index idx_depth deep."""
    return 10 * (size + idx_depth) + 100


def default_guard(v: Value, idx_depth: int = 0) -> int:
    return guard(value_size(v), idx_depth)


def _bush(ctx: GroupContext, what: str) -> tuple[str, str]:
    shape = ctx.bush_shape
    if shape is None:
        raise EvalError(f"{what} needs a bush-shaped declaration")
    return shape


def hfold_algebra(ctx: GroupContext, halg: HAlgebra) -> Algebra:
    """hfold as an nfold algebra: identity bases, halg's methods on results."""
    spread = lambda m: lambda iargs, rs: m(*rs)
    methods = {c.name: spread(halg.methods[c.name]) for _, c in ctx.ctors()}
    return Algebra(f"hfold-{halg.name}", {k: wrap for k in range(ctx.base_var_count)}, methods)


def eval_hfold_via_nfold(
    ctx: GroupContext, halg: HAlgebra, decl_name: str, v: Value
) -> RuntimeResult:
    """hfold as nfold at the declaration's own index with identity bases."""
    return eval_nfold(ctx, hfold_algebra(ctx, halg), ctx.own_index(decl_name), v)


def eval_hfold_direct(ctx: GroupContext, halg: HAlgebra, v: Value, limit: int | None = None):
    """The introduction's non-structural recursion, transcribed literally,
    within a depth guard of limit (by default, default_guard(v))."""
    nil, cons = _bush(ctx, "the direct higher-order fold")
    limit = default_guard(v) if limit is None else limit
    return _hfold(halg.methods[nil], halg.methods[cons], v, nil, cons, 0, limit)


def _hfold(leaf, node, t, nil, cons, depth, limit):
    """hfold l n (cons x xs) = n x (hfold l n (hmap (hfold l n) xs)).

    A payload slot of t holds a value or, once mapped, a carrier result;
    wrap tells the two apart by type.  Each node is read once: its class,
    its constructor and its arity, in that order.  hfold l n is handed to
    hmap as the frame (l, n, depth) (see _hybrid_map)."""
    if depth > limit:
        raise _runaway(limit)
    if t.__class__ is VCon:
        c, args = t.ctor, t.args
        if not args and c == nil:
            return leaf()
        if len(args) == 2 and c == cons:
            x, xs = args
            depth += 1
            mapped = _hybrid_map((leaf, node, depth), xs, nil, cons, depth, limit)
            return node(wrap(x), _hfold(leaf, node, mapped, nil, cons, depth, limit))
    raise EvalError(f"direct fold met a foreign node {t!r}")


def _hybrid_map(f, t, nil, cons, depth, limit):
    """hmap f (cons x xs) = cons (f x) (hmap (hmap f) xs), read as _hfold reads.

    The payload function f is first-order data: a Python function, a frame
    (g, d) for hmap g, or a frame (l, n, d) for hfold l n, d being the depth
    at which the frame was made, where each recursion starts when applied."""
    if depth > limit:
        raise _runaway(limit)
    if t.__class__ is VCon:
        c, args = t.ctor, t.args
        if not args and c == nil:
            return t
        if len(args) == 2 and c == cons:
            x, xs = args
            if f.__class__ is not tuple:
                y = f(x)
            elif len(f) == 2:
                y = _hybrid_map(f[0], x, nil, cons, f[1], limit)
            else:
                y = _hfold(f[0], f[1], x, nil, cons, f[2], limit)
            depth += 1
            return VCon(cons, (y, _hybrid_map((f, depth), xs, nil, cons, depth, limit)))
    raise EvalError(f"direct map met a foreign node {t!r}")


def _runaway(limit: int) -> GuardExceeded:
    return GuardExceeded(
        f"direct-recursion depth exceeded {limit}; this is a bug in the "
        "evaluator, not in the input"
    )


def eval_hmap_direct(ctx: GroupContext, f: Callable, v: Value, limit: int | None = None) -> Value:
    """First-order direct map: hmap f (cons x xs) = cons (f x) (hmap (hmap f) xs),
    within a depth guard of limit (by default, default_guard(v))."""
    nil, cons = _bush(ctx, "the direct map")
    limit = default_guard(v) if limit is None else limit
    return _hybrid_map(f, v, nil, cons, 0, limit)


# ---------------------------------------------------------------------------
# nfold' — the round trip through the function-space carrier


def prepare_lift(ctx: GroupContext):
    """liftNTimes hmap fold-PS, the part of nfold' that takes no algebra.
    Given a level index, it returns the index's depth d and the lift
    (value, guard limit) -> the value lifted d levels."""
    nil, cons = _bush(ctx, "the function-space route")

    def at(idx: IndexExpr):
        depth = index_depth(idx)
        if idx != ctx.level(depth):
            raise EvalError("index must be an iterated application over the base slot")
        return depth, partial(_lift, nil, cons, depth)

    return at


def prepare_ps_to_p(ctx: GroupContext, alg: Algebra):
    """PS-to-P at alg, its algebra checked once: (m, lifted) -> the result of
    peeling m levels off a value lifted m levels (see prepare_lift)."""
    check_algebra(ctx, alg)
    nil, cons = _bush(ctx, "the function-space route")
    # a method's index arguments at each level, filled as the peels climb
    levels: list[tuple[IndexExpr]] = []
    return partial(_ps_to_p, (alg.methods[nil], alg.methods[cons], alg.bases[0], levels, ctx.level))


def eval_nfold_prime(ctx: GroupContext, alg: Algebra, idx: IndexExpr, v: Value) -> RuntimeResult:
    """nfold' = PS-to-P . liftNTimes hmap fold-PS, as the PS bridge derives it:
    fold-PS is the direct hfold at the PS carrier (a function of a level and
    a continuation for the level below), lifting maps it through every level
    of v, and PS-to-P, the one step that takes alg, peels the levels off."""
    ps_to_p = prepare_ps_to_p(ctx, alg)
    depth, lift = prepare_lift(ctx)(idx)
    return ps_to_p(depth, lift(v, default_guard(v, depth)))


def _lift(nil, cons, d, t, limit):
    """liftNTimes hmap fold-PS at d levels: every entry of t lifted at
    d - 1 levels, then t folded at the PS carrier into PS nodes."""
    if d == 0:
        return t
    lift = lambda s: _lift(nil, cons, d - 1, s, limit)
    return _hfold(PS, PS, _hybrid_map(lift, t, nil, cons, 1, limit), nil, cons, 0, limit)


def _ps_to_p(methods: tuple, m: int, x) -> RuntimeResult:
    """PS-to-P at methods, a (leaf method, cons method, base function, level
    list, level builder) tuple: peel m levels off a PS-carrier result x."""
    if m == 0:
        return methods[2](as_value(x))
    return _run_ps(methods, x, m - 1, m - 1)


def _run_ps(methods: tuple, p: PS, n: int, tr) -> RuntimeResult:
    """Apply p at level n to the continuation tr, by fold-PS's clauses:
    leaf n tr = l n, and cons x xs n tr = c n (tr x) (xs (succ n) (λ f → f n tr)).
    A continuation is a frame: a down frame (n, tr) is λ f → f n tr, and a
    natural m is PS-to-P's peel of m levels.  A level is a plain int, whose
    index arguments the level list holds from its first use on."""
    if p.__class__ is not PS:
        raise EvalError("applied a non-function result")
    leaf, cons, _, levels, level = methods
    try:
        at = levels[n]
    except IndexError:
        levels.extend((level(k),) for k in range(len(levels), n + 1))
        at = levels[n]
    except TypeError:  # a level that is not an int, refused as nat_of refuses it
        raise EvalError("expected a natural-valued result") from None
    if p.xs is None:
        return leaf(at, ())
    r1 = _run_ps(methods, p.x, tr[0], tr[1]) if tr.__class__ is tuple else _ps_to_p(methods, tr, p.x)
    # n + 1 cannot pass NAT_MAX: a peel starts at m - 1, m the depth of an
    # index held in memory, and each step up is one more nested call here,
    # so the recursion limit keeps n far below 2**64.
    deeper = _run_ps(methods, p.xs, n + 1, (n, tr))
    return cons(at, (r1, deeper))


# ---------------------------------------------------------------------------
# Exhaustive enumeration


#: One row per (index, value) pair enumerated over one base pool:
#: (index, node, the rows of its arguments), or (index, base value, None).
Row = tuple[IndexExpr, Value, tuple[int, ...] | None]


def enumerate_values(
    ctx: GroupContext, idx: IndexExpr, pool: dict[int, tuple[Value, ...]], max_size: int
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
    return fold_index(e, lambda k: VBase(Atom(ctx.var_ctors[k])), lambda c, a: VCon("@" + c, a))


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

    tag_base = lambda tag: lambda v: VCon(tag, (v,))
    tag_node = lambda tag: lambda iargs, rs: VCon(tag, encode(iargs) + rs)
    algs["trace"] = Algebra(
        "trace",
        bases={k: tag_base("@" + ctx.var_ctors[k]) for k in every_var},
        methods={c.name: tag_node("@" + c.name) for _, c in ctx.ctors()},
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
