"""Program validation, nesting classification, and the index universe.

Each strongly connected component of the type-reference graph becomes a
group, and its GroupContext is the one record of the group and its index
universe: a free term algebra (index_name) with a nullary constructor per
base slot (var_ctors: varA, ...) and one per declaration (app_ctor: BushC,
...) taking an index per parameter.  Every constructor-argument type then
translates to an index expression over it (arg_templates), the data the
derived folds dispatch on.

Validation, classification and the target check read a type through one
walk, _nodes, which lists its nodes from an explicit stack; the grouping
(_sccs) keeps its own stack too.  The index universe is a free term
algebra, and fold_index is its one structural recursion, as
parser.fold_type is a type's: the index translation (type_to_index),
substitution, depth and the printer are each one of these folds at one
algebra.  A fold recurses once per application level, which the reader
bounds (parser.MAX_APPLICATIONS) and well_formed bounds alike for a
hand-built program.
"""

from __future__ import annotations

import itertools

from .diagnostics import AnalysisError, Diagnostic, Record
from .parser import (
    AGDA_KEYWORDS,
    BASE_TYPES,
    MAX_APPLICATIONS,
    Constructor,
    Program,
    TApp,
    TVar,
    TypeDecl,
    TypeExpr,
    fold_type,
    render_app,
    spine_shape,
)


class cached_property:
    """A fact computed on first access and kept in the instance's __dict__,
    where it shadows this non-data descriptor: functools.cached_property,
    without importing functools."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = vars(instance)[self.name] = self.func(instance)
        return value


# IVar and IApp are built, compared and hashed throughout enumeration and
# evaluation: each sets its fields through its slot descriptors and compares
# them itself.


class IVar(Record):
    """The k-th index variable (a base slot)."""

    __slots__ = __match_args__ = ("k",)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is IVar:
            return self.k == other.k
        return NotImplemented

    __hash__ = Record.__hash__


class IApp(Record):
    """An index application constructor, e.g. BushC i or DylanC i j.

    The hash is computed once, at construction, from the arguments' own
    (cached) hashes, so hashing never walks the expression.  It is kept in
    the _hash slot, which is not a positional field."""

    __slots__ = ("ctor", "args", "_hash")
    __match_args__ = ("ctor", "args")

    def __init__(self, ctor: str, args: tuple[IndexExpr, ...] = ()):
        _iapp_ctor(self, ctor)
        _iapp_args(self, args)
        _iapp_hash(self, hash((ctor, args)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is IApp:
            return self.ctor == other.ctor and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


_iapp_ctor, _iapp_args, _iapp_hash = IApp.ctor.__set__, IApp.args.__set__, IApp._hash.__set__

IndexExpr = IVar | IApp


class MutualGroup(Record):
    """A component's declarations, in source order, and whether it is nested."""

    __slots__ = __match_args__ = ("decls", "nested")


class GroupContext(Record):
    """One group and its index universe, each fact computed once, on first
    use; group_context builds it and refuses the groups it cannot index.

    It has a __dict__, for its cached properties; equality and hash are
    over (program, group) alone."""

    __match_args__ = ("program", "group")

    def __init__(self, program: Program, group: MutualGroup):
        vars(self).update(
            program=program,
            group=group,
            _ctors_at={},
            # Each index canonical has been asked about, as its own key.
            _canonical={},
            # The canonical indices of level(0), level(1), ...
            _levels=[],
            # Least sizes per (index constructor, argument least sizes, cap); see least_at.
            _least={},
            # Exact-size value pools per base pool and (index, size); see enumerate_values.
            pools={},
            # The one object of every enumerated value; see enumerate_values.
            interned={},
        )

    @property
    def name(self) -> str:
        return "".join(self.group.decls)

    @property
    def index_name(self) -> str:
        return self.name + "Index"

    @cached_property
    def decls(self) -> dict[str, TypeDecl]:
        return {n: self.program.decl(n) for n in self.group.decls}

    @cached_property
    def base_var_count(self) -> int:
        """The base slots: as many as the widest declaration has parameters."""
        return max(len(d.params) for d in self.decls.values())

    @cached_property
    def slot_letters(self) -> str:
        """One capital per base slot, A first: slot k's index constructor is
        var + slot_letters[k], and derived names follow the letter too."""
        return "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[: self.base_var_count]

    @cached_property
    def var_ctors(self) -> tuple[str, ...]:
        return tuple("var" + c for c in self.slot_letters)

    @cached_property
    def app_ctor(self) -> dict[str, str]:
        """Each declaration's index application constructor."""
        return {n: n + "C" for n in self.group.decls}

    @cached_property
    def decl_of_app(self) -> dict[str, str]:
        return {c: n for n, c in self.app_ctor.items()}

    @cached_property
    def arg_templates(self) -> dict[str, tuple[IndexExpr, ...]]:
        """Each constructor's argument indices over its declaration's slots."""
        return {
            c.name: tuple(type_to_index(t, d.params, self.app_ctor) for t in c.args)
            for d, c in self.ctors()
        }

    def ctors(self) -> list[tuple[TypeDecl, Constructor]]:
        """All (decl, constructor) pairs, declaration order then source order."""
        return [(d, c) for n in self.group.decls for d in [self.decls[n]] for c in d.ctors]

    @cached_property
    def ctor_names(self) -> frozenset[str]:
        """The names of every constructor of the group."""
        return frozenset(c.name for _, c in self.ctors())

    @cached_property
    def nat_index_eligible(self) -> bool:
        """Nat mode collapses the index algebra to depths; that needs one
        declaration with one base slot."""
        return len(self.group.decls) == 1 and self.base_var_count == 1

    @cached_property
    def spine_shape(self) -> tuple[str, str] | None:
        """parser.spine_shape of the only declaration; None for larger groups."""
        if len(self.group.decls) != 1:
            return None
        return spine_shape(self.decls[self.group.decls[0]])

    @cached_property
    def list_shape(self) -> tuple[str, str] | None:
        """(nil ctor, cons ctor) when the group is a single list declaration: a
        spine whose binary constructor takes a base value and the declaration
        at its own index, in that order."""
        shape = self.spine_shape
        if shape is None:
            return None
        own = self.own_index(self.group.decls[0])
        return shape if self.arg_templates[shape[1]] == (IVar(0), own) else None

    @cached_property
    def bush_shape(self) -> tuple[str, str] | None:
        """(nullary ctor, cons ctor) when the group is a single self-nesting
        list-of-bushes declaration: a spine whose cons takes a bush of bushes."""
        shape = self.spine_shape
        if shape is None or self.base_var_count != 1:
            return None
        return shape if self.arg_templates[shape[1]] == (IVar(0), self.level(2)) else None

    def ctors_at(self, idx: IApp, c: str) -> tuple[IndexExpr, ...] | None:
        """The typing rule: the indices of constructor c's arguments at idx,
        or None when c is not a constructor of idx's declaration.  Kept per
        (index, constructor) and substituted on first use.

        The indices handed out are canonical: equal indices are one object,
        and the table is keyed by those objects, so that a fold passing them
        back is found by identity."""
        table = self._ctors_at.get(idx)
        if table is None:
            table = self._ctors_at[self.canonical(idx)] = {}
        at = table.get(c)
        if at is None and self.decls[self.decl_of_app[idx.ctor]].ctor(c) is not None:
            at = table[c] = tuple(
                self.canonical(subst_index(t, idx.args)) for t in self.arg_templates[c]
            )
        return at

    def least_size(self, e: IndexExpr, cap: int, slots: tuple[int, ...] = ()) -> int:
        """The fewest constructor nodes of any value at e, or cap + 1 when
        that is more than cap.  A base slot counts 0; when e is a template,
        slots[k] is instead the least size of what its slot k holds.

        A value at D i... is a D-structure whose slots hold values at i...,
        so its least size depends only on D and the least sizes of i...:
        see least_at.  Nothing here substitutes an index.  It is not a
        fold_index: the cap shrinks at each level, so a node's result is
        not a function of its arguments' results alone."""
        if e.__class__ is IVar:
            return slots[e.k] if slots else 0
        if cap < 1:
            return cap + 1
        xs = tuple(self.least_size(a, cap - 1, slots) for a in e.args)
        return self.least_at(e.ctor, xs, cap)

    def least_at(self, app: str, xs: tuple[int, ...], cap: int) -> int:
        """least_size of index constructor app applied to indices of least
        sizes xs, each clipped at cap (an argument of a value of at most cap
        nodes has fewer).  Computed from arg_templates, and kept per (app,
        xs, cap) once enumeration first asks."""
        key = (app, xs, cap)
        got = self._least.get(key)
        if got is None:
            got = cap + 1
            for c in self.decls[self.decl_of_app[app]].ctors:
                if got == 1:  # every constructor counts 1: none does better
                    break
                total = 1
                for t in self.arg_templates[c.name]:
                    total += self.least_size(t, cap - 1, xs)
                    if total >= got:
                        break
                else:
                    got = total
            self._least[key] = got
        return got

    def canonical(self, idx: IndexExpr) -> IndexExpr:
        """The one object of this context that equals idx."""
        return self._canonical.setdefault(idx, idx)

    def level(self, n: int) -> IndexExpr:
        """The canonical index n levels deep: the index constructor of the
        group's first declaration applied n times to the first base slot.
        Each level is built once per context."""
        levels = self._levels
        if n >= len(levels):
            dc = self.app_ctor[self.group.decls[0]]
            if not levels:
                levels.append(self.canonical(IVar(0)))
            while len(levels) <= n:
                levels.append(self.canonical(IApp(dc, (levels[-1],))))
        return levels[n]

    def own_index(self, name: str) -> IApp:
        """The declaration's own index: name applied to its parameters' slots."""
        params = range(len(self.decls[name].params))
        return self.canonical(IApp(self.app_ctor[name], tuple(IVar(k) for k in params)))


# ---------------------------------------------------------------------------
# Validation

#: The definitions that every derived module has, whatever its group and
#: mode, so that a constructor of the same name would be bound twice.  The
#: module's other fixed names (derivation._FIXED) are defined only for some
#: groups or in one mode, and derive refuses a constructor named like one.
DERIVED_NAMES = frozenset({"nfold", "nmap", "ind"})


def well_formed(program: Program) -> list[Diagnostic]:
    """Check names, arities and the result-shape rule, collecting all errors.

    This is the only validator: parse_program checks syntax alone, and
    analyze, every command's loader, runs this before anything else.
    """
    out: list[Diagnostic] = []

    def report(msg: str, pos: tuple[int, int] | None) -> None:
        line, col = pos if pos else (None, None)
        out.append(Diagnostic(msg, line, col, program.source))

    arity: dict[str, int] = {}
    for d in program.decls:
        if d.name in arity:
            report(f"duplicate declaration name {d.name!r}", d.pos)
        if d.name in BASE_TYPES:
            report(f"declaration name {d.name!r} is reserved for the base universe", d.pos)
        arity[d.name] = len(d.params)

    ctor_owner: dict[str, str] = {}
    for d in program.decls:
        params = list(zip(d.params, d.param_pos or [d.pos] * len(d.params)))
        named = [("declaration", d.name, d.pos), *(("type parameter", *p) for p in params)]
        for role, name, pos in named + [("constructor", c.name, c.pos) for c in d.ctors]:
            if name in AGDA_KEYWORDS:
                report(f"{role} name {name!r} is an Agda keyword", pos)
            elif name == "Set":
                report(f"{role} name 'Set' is reserved for the universe", pos)
            elif name in DERIVED_NAMES and role == "constructor":
                report(f"constructor name {name!r} is reserved for a derived definition", pos)
        seen: dict[str, int] = {}
        for p, pos in params:
            seen[p] = seen.get(p, 0) + 1
            if seen[p] == 2:
                report(f"duplicate type parameter {p!r} in {d.name}", pos)
        if not d.ctors:
            report(f"declaration {d.name} has no constructors", d.pos)
        expected = TApp(d.name, tuple(TVar(p) for p in d.params))
        for c in d.ctors:
            owner = ctor_owner.setdefault(c.name, d.name)
            if c is not d.ctor(c.name):
                report(f"duplicate constructor {c.name!r} in {d.name}", c.pos)
            elif owner != d.name:
                report(f"constructor {c.name!r} already declared by {owner}", c.pos)
            for t in (*c.args, c.result):
                nodes = _nodes(t)
                # a type of at most MAX_APPLICATIONS nodes nests no deeper
                if len(nodes) > MAX_APPLICATIONS and (n := _nesting(t)) > MAX_APPLICATIONS:
                    msg = f"type nests too deeply: {n} applications, at most {MAX_APPLICATIONS}"
                    report(msg, t.pos)
                for x in nodes:
                    if x.__class__ is TVar:
                        if x.name not in d.params:
                            report(f"unknown type parameter {x.name!r}", x.pos)
                    elif x.head not in arity:
                        report(f"unknown type constructor {x.head}", x.pos)
                    elif len(x.args) != arity[x.head]:
                        msg = f"{x.head} expects {arity[x.head]} argument(s), got {len(x.args)}"
                        report(msg, x.pos)
            if c.result != expected:
                report(
                    "constructor result must be the declared head applied to "
                    f"its parameters ({c.name} : ... -> "
                    f"{_render_expected(d)})",
                    c.pos,
                )
    return out


def _nodes(t: TypeExpr) -> list[TypeExpr]:
    """t's nodes in pre-order: each before its arguments, these left to
    right.  The walk that validation, classification and the target check
    share, from an explicit stack, so that it reads a hand-built type of
    any depth before a fold_type recurses through it."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        out.append(t)
        if t.__class__ is TApp:
            todo += reversed(t.args)
    return out


def _nesting(t: TypeExpr) -> int:
    """How many applications nest in t, counted as the reader counts them
    (parser.MAX_APPLICATIONS), from an explicit stack, so that well_formed
    can refuse a hand-built type too deep for the recursive walks after it."""
    deepest, todo = 0, [(t, 0)]
    while todo:
        t, depth = todo.pop()
        if t.__class__ is TApp and t.args:
            depth += 1
            deepest = max(deepest, depth)
            todo += [(a, depth) for a in t.args]
    return deepest


def _render_expected(d: TypeDecl) -> str:
    return " ".join([d.name, *d.params])


# ---------------------------------------------------------------------------
# Classification


def classify(program: Program) -> list[MutualGroup]:
    """SCCs of the reference graph, dependencies first, source order otherwise."""
    order = [d.name for d in program.decls]
    edges: dict[str, list[str]] = {n: [] for n in order}
    for d in program.decls:
        heads = (x.head for c in d.ctors for t in c.args for x in _nodes(t) if x.__class__ is TApp)
        edges[d.name] += dict.fromkeys(h for h in heads if h in edges)

    groups = []
    for comp in _sccs(order, edges):
        members = tuple(sorted(comp, key=order.index))
        # Nested iff some constructor argument applies a member to anything
        # but exactly that member's own parameter list.
        own = {n: tuple(TVar(p) for p in program.decl(n).params) for n in members}
        nested = any(
            x.__class__ is TApp and x.head in own and x.args != own[x.head]
            for n in members
            for c in program.decl(n).ctors
            for t in c.args
            for x in _nodes(t)
        )
        groups.append(MutualGroup(members, nested))
    return groups


def _sccs(names: list[str], edges: dict[str, list[str]]) -> list[list[str]]:
    """Tarjan's algorithm over an explicit stack of (name, its edges not yet
    followed); components come out dependencies-first."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    out: list[list[str]] = []
    for root in names:
        if root in index:
            continue
        todo = [(root, iter(edges[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while todo:
            v, rest = todo[-1]
            for w in rest:
                if w not in index:  # visit w, then come back to v's rest
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    todo.append((w, iter(edges[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:  # v is done
                todo.pop()
                if todo:
                    u = todo[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


# ---------------------------------------------------------------------------
# The index universe


def type_to_index(
    t: TypeExpr, params: tuple[str, ...], members: dict[str, str]
) -> IndexExpr:
    """Translate a constructor-argument type to an index expression.

    `params` is the owning declaration's parameter list (positional), and
    `members` maps each group member to its index application constructor;
    every head of t is one (group_context refuses the other groups).
    """
    return fold_type(t, lambda name: IVar(params.index(name)), lambda h, a: IApp(members[h], a))


def group_context(program: Program, group: MutualGroup) -> GroupContext:
    """The group's context.  Two groups are refused, at a position in the
    program's file: one with more than 26 parameters (varA..varZ), at its
    first declaration, and one whose constructor argument names a
    declaration of another group, at that name."""
    ctx = GroupContext(program, group)

    def refuse(msg: str, pos: tuple[int, int] | None) -> AnalysisError:
        line, col = pos or (None, None)
        return AnalysisError(Diagnostic(msg, line, col, program.source))

    if ctx.base_var_count > 26:
        msg = (
            f"group {'/'.join(group.decls)} needs {ctx.base_var_count} index "
            "variables; only varA..varZ are available"
        )
        raise refuse(msg, ctx.decls[group.decls[0]].pos)
    for _, c in ctx.ctors():
        for x in (x for t in c.args for x in _nodes(t)):
            if x.__class__ is TApp and x.head not in ctx.app_ctor:
                raise refuse("cross-group nesting not supported in v1", x.pos)
    return ctx


def analyze(program: Program) -> list[GroupContext]:
    """Validate a program and split it into per-group contexts: the one
    loader every command uses.  Raises AnalysisError with every well_formed
    diagnostic, or with the refusal that stopped a group's context."""
    diags = well_formed(program)
    if diags:
        raise AnalysisError(*diags)
    return [group_context(program, g) for g in classify(program)]


# ---------------------------------------------------------------------------
# Working with index expressions


def fold_index(e: IndexExpr, var, app):
    """The one structural recursion over an index expression: var(k) at
    IVar(k), and app(ctor, the folded args) at an IApp.  Each function
    below over an index is this fold at one algebra."""
    if e.__class__ is IVar:
        return var(e.k)
    return app(e.ctor, tuple(fold_index(a, var, app) for a in e.args))


def subst_index(e: IndexExpr, iargs: tuple[IndexExpr, ...]) -> IndexExpr:
    return fold_index(e, iargs.__getitem__, IApp)


def index_depth(e: IndexExpr) -> int:
    return fold_index(e, lambda k: 0, lambda _, ds: 1 + max(ds, default=0))


def render_index(e: IndexExpr, ctx: GroupContext) -> str:
    return fold_index(e, ctx.var_ctors.__getitem__, render_app)


def enumerate_indices(ctx: GroupContext, max_depth: int) -> list[IndexExpr]:
    """All index expressions of depth <= max_depth, by depth, then in the
    order of the group's declarations.  Tier d applies each declaration's
    index constructor to every tuple of shallower indices, in product order,
    whose deepest member is at depth d - 1 (a nullary one only at d = 1).
    The depth of each index built is kept, so none is recomputed."""
    out: list[IndexExpr] = [IVar(k) for k in range(ctx.base_var_count)]
    depths = [0] * len(out)
    for d in range(1, max_depth + 1):
        tier = []
        for name in ctx.group.decls:
            app, arity = ctx.app_ctor[name], len(ctx.decls[name].params)
            deepest = (d - 1 in ds for ds in itertools.product(depths, repeat=arity))
            keep = deepest if arity else [d == 1]
            combos = itertools.compress(itertools.product(out, repeat=arity), keep)
            tier.extend(IApp(app, combo) for combo in combos)
        out += tier
        depths += [d] * len(tier)
    return out


def context_to_index(
    t: TApp, group_ctx: GroupContext
) -> tuple[IndexExpr, dict[int, str]]:
    """Translate a target (parser.parse_type_context) to (index, base-universe
    assignment) with type_to_index, its base universes as the parameters.

    Distinct base universes are assigned to index variables in order of
    first appearance; unused variables default to naturals.  A target names
    no more universes than the group has variables: a group whose widest
    declaration has one parameter admits one leaf, and there are two
    universes.
    """
    nodes = _nodes(t)
    foreign = [x.head for x in nodes if x.__class__ is TApp and x.head not in group_ctx.app_ctor]
    if foreign:
        msg = f"type {foreign[0]} does not belong to group {group_ctx.name}"
        raise AnalysisError(Diagnostic(msg))
    kinds = tuple(dict.fromkeys(x.name for x in nodes if x.__class__ is TVar))
    names = kinds + ("Nat",) * (group_ctx.base_var_count - len(kinds))
    universes = {k: BASE_TYPES[name] for k, name in enumerate(names)}
    return type_to_index(t, kinds, group_ctx.app_ctor), universes
