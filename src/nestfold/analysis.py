"""Program validation, nesting classification, and the index universe.

Each strongly connected component of the type-reference graph becomes a
group.  A group gets one index type: a free term algebra with a nullary
variable constructor per base slot (varA, varB, ...) and one application
constructor per declaration (BushC, BobC, ...).  Every constructor-argument
type then translates to an index expression over that algebra, which is the
data the derived folds dispatch on.
"""

from __future__ import annotations

import dataclasses
import itertools
import string
from dataclasses import dataclass, field
from functools import cached_property

from .diagnostics import AnalysisError, Diagnostic
from .parser import (
    BASE_TYPES,
    Constructor,
    Program,
    TApp,
    TVar,
    TypeDecl,
    TypeExpr,
    spine_shape,
)


@dataclass(frozen=True)
class IVar:
    """The k-th index variable (a base slot)."""

    k: int


@dataclass(frozen=True)
class IApp:
    """An index application constructor, e.g. BushC i or DylanC i j.

    The hash is computed once, at construction, from the arguments' own
    (cached) hashes, so hashing never walks the expression."""

    ctor: str
    args: tuple["IndexExpr", ...] = ()
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.ctor, self.args)))

    def __hash__(self) -> int:
        return self._hash


IndexExpr = IVar | IApp


@dataclass(frozen=True)
class IndexTypeSpec:
    name: str
    var_ctors: tuple[str, ...]
    app_ctors: tuple[tuple[str, int], ...]  # (constructor name, arity) per decl

    @property
    def base_var_count(self) -> int:
        return len(self.var_ctors)


@dataclass(frozen=True)
class MutualGroup:
    decls: tuple[str, ...]
    base_var_count: int
    classification: str  # "ordinary" | "nested"

    @property
    def nested(self) -> bool:
        return self.classification == "nested"


@dataclass(frozen=True)
class GroupContext:
    """Everything downstream passes need about one group, precomputed."""

    program: Program
    group: MutualGroup
    spec: IndexTypeSpec
    decls: dict[str, TypeDecl] = field(compare=False)
    app_ctor: dict[str, str] = field(compare=False)  # decl name -> index ctor
    decl_of_app: dict[str, str] = field(compare=False)  # index ctor -> decl name
    arg_templates: dict[str, tuple[IndexExpr, ...]] = field(compare=False)
    _ctors_at: dict[IApp, dict[str, tuple[IndexExpr, ...]]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    #: Each index canonical has been asked about, as its own key.
    _canonical: dict[IndexExpr, IndexExpr] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    #: The canonical indices of level(0), level(1), ...
    _levels: list[IndexExpr] = field(
        default_factory=list, init=False, compare=False, repr=False
    )
    #: Least sizes per (index constructor, argument least sizes, cap); see least_at.
    _least: dict[tuple[str, tuple[int, ...], int], int] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    #: Exact-size value pools per base pool and (index, size); see enumerate_values.
    pools: dict[tuple, dict[tuple[IndexExpr, int], tuple]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    #: The one object of every enumerated value; see enumerate_values.
    interned: dict[tuple, object] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def name(self) -> str:
        return "".join(self.group.decls)

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
        return len(self.group.decls) == 1 and self.group.base_var_count == 1

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
        if shape is None or self.group.base_var_count != 1:
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
        see least_at.  Nothing here substitutes an index."""
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
        for p in sorted({p for p in d.params if d.params.count(p) > 1}):
            report(f"duplicate type parameter {p!r} in {d.name}", d.pos)
        if not d.ctors:
            report(f"declaration {d.name} has no constructors", d.pos)
        expected = TApp(d.name, tuple(TVar(p) for p in d.params))
        for c in d.ctors:
            owner = ctor_owner.setdefault(c.name, d.name)
            if c is not d.ctor(c.name):
                report(f"duplicate constructor {c.name!r} in {d.name}", c.pos)
            elif owner != d.name:
                report(f"constructor {c.name!r} already declared by {owner}", c.pos)
            for t in c.args:
                _check_type(t, d, arity, report)
            _check_type(c.result, d, arity, report)
            if c.result != expected:
                report(
                    "constructor result must be the declared head applied to "
                    f"its parameters ({c.name} : ... -> "
                    f"{_render_expected(d)})",
                    c.pos,
                )
    return out


def _check_type(t: TypeExpr, decl: TypeDecl, arity: dict[str, int], report) -> None:
    """Report t's unknown parameters and heads and its misapplied heads."""
    match t:
        case TVar(name):
            if name not in decl.params:
                report(f"unknown type parameter {name!r}", t.pos)
        case TApp(head, args):
            if head not in arity:
                report(f"unknown type constructor {head}", t.pos)
            elif len(args) != arity[head]:
                report(
                    f"{head} expects {arity[head]} argument(s), got {len(args)}",
                    t.pos,
                )
            for a in args:
                _check_type(a, decl, arity, report)


def _render_expected(d: TypeDecl) -> str:
    return " ".join([d.name, *d.params])


# ---------------------------------------------------------------------------
# Classification


def classify(program: Program) -> list[MutualGroup]:
    """SCCs of the reference graph, dependencies first, source order otherwise."""
    order = [d.name for d in program.decls]
    edges: dict[str, list[str]] = {n: [] for n in order}
    for d in program.decls:
        seen: set[str] = set()
        for c in d.ctors:
            for t in c.args:
                for head in _heads(t):
                    if head in edges and head not in seen:
                        seen.add(head)
                        edges[d.name].append(head)

    groups = []
    for comp in _sccs(order, edges):
        members = tuple(sorted(comp, key=order.index))
        decls = [program.decl(n) for n in members]
        base_vars = max((len(d.params) for d in decls), default=0)
        cls = "nested" if _is_nested(decls, set(members)) else "ordinary"
        groups.append(MutualGroup(members, base_vars, cls))
    return groups


def _heads(t: TypeExpr) -> list[str]:
    match t:
        case TVar():
            return []
        case TApp(head, args):
            return [head] + [h for a in args for h in _heads(a)]
    raise AssertionError


def _vars(t: TypeExpr) -> list[str]:
    """t's type variables, left to right, repeats included."""
    if isinstance(t, TVar):
        return [t.name]
    return [v for a in t.args for v in _vars(a)]


def _is_nested(decls: list[TypeDecl], members: set[str]) -> bool:
    """A group is nested iff some constructor argument applies a member to
    anything but exactly that member's own parameter list."""
    by_name = {d.name: d for d in decls}
    return any(_irregular(t, by_name, members) for d in decls for c in d.ctors for t in c.args)


def _irregular(t: TypeExpr, by_name: dict[str, TypeDecl], members: set[str]) -> bool:
    """t applies a member to anything but its own parameter list."""
    match t:
        case TVar():
            return False
        case TApp(head, args):
            if head in members:
                own = tuple(TVar(p) for p in by_name[head].params)
                if args != own:
                    return True
            return any(_irregular(a, by_name, members) for a in args)
    raise AssertionError


def _sccs(names: list[str], edges: dict[str, list[str]]) -> list[list[str]]:
    """Tarjan's algorithm; components come out dependencies-first."""
    counter = itertools.count()
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    out: list[list[str]] = []

    def visit(v: str) -> None:
        index[v] = low[v] = next(counter)
        stack.append(v)
        on_stack.add(v)
        for w in edges[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(comp)

    for v in names:
        if v not in index:
            visit(v)
    # visit refers to itself; unbinding it lets reference counting free it.
    del visit
    return out


# ---------------------------------------------------------------------------
# The index universe


def index_universe(program: Program, group: MutualGroup) -> IndexTypeSpec:
    """The group's index universe; a group with more than 26 parameters is
    refused at its first declaration."""
    if group.base_var_count > 26:
        msg = (
            f"group {'/'.join(group.decls)} needs {group.base_var_count} index "
            "variables; only varA..varZ are available"
        )
        line, col = program.decl(group.decls[0]).pos or (None, None)
        raise AnalysisError(Diagnostic(msg, line, col, program.source))
    var_ctors = tuple(
        "var" + string.ascii_uppercase[i] for i in range(group.base_var_count)
    )
    app_ctors = []
    for name in group.decls:
        decl = program.decl(name)
        assert decl is not None
        app_ctors.append((name + "C", len(decl.params)))
    return IndexTypeSpec("".join(group.decls) + "Index", var_ctors, tuple(app_ctors))


def type_to_index(
    t: TypeExpr, params: tuple[str, ...], members: dict[str, str]
) -> IndexExpr:
    """Translate a constructor-argument type to an index expression.

    `params` is the owning declaration's parameter list (positional), and
    `members` maps each group member to its index application constructor.
    A head outside the group is refused at its position, with no file.
    """
    match t:
        case TVar(name):
            return IVar(params.index(name))
        case TApp(head, args):
            if head not in members:
                line, col = t.pos or (None, None)
                msg = "cross-group nesting not supported in v1"
                raise AnalysisError(Diagnostic(msg, line, col))
            return IApp(members[head], tuple(type_to_index(a, params, members) for a in args))
    raise AssertionError


def group_context(program: Program, group: MutualGroup) -> GroupContext:
    spec = index_universe(program, group)
    decls = {}
    for n in group.decls:
        d = program.decl(n)
        assert d is not None
        decls[n] = d
    app_ctor = {n: c for n, (c, _) in zip(group.decls, spec.app_ctors)}
    decl_of_app = {v: k for k, v in app_ctor.items()}
    try:
        templates = {
            c.name: tuple(type_to_index(t, d.params, app_ctor) for t in c.args)
            for d in decls.values()
            for c in d.ctors
        }
    except AnalysisError as e:
        (d,) = e.diagnostics
        raise AnalysisError(dataclasses.replace(d, file=program.source)) from None
    return GroupContext(program, group, spec, decls, app_ctor, decl_of_app, templates)


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


def subst_index(e: IndexExpr, iargs: tuple[IndexExpr, ...]) -> IndexExpr:
    match e:
        case IVar(k):
            return iargs[k]
        case IApp(ctor, args):
            return IApp(ctor, tuple(subst_index(a, iargs) for a in args))
    raise AssertionError


def index_depth(e: IndexExpr) -> int:
    match e:
        case IVar():
            return 0
        case IApp(_, args):
            return 1 + max((index_depth(a) for a in args), default=0)
    raise AssertionError


def render_index(e: IndexExpr, spec: IndexTypeSpec, atom: bool = False) -> str:
    match e:
        case IVar(k):
            return spec.var_ctors[k]
        case IApp(ctor, ()):
            return ctor
        case IApp(ctor, args):
            s = " ".join([ctor] + [render_index(a, spec, atom=True) for a in args])
            return f"({s})" if atom else s
    raise AssertionError


def enumerate_indices(spec: IndexTypeSpec, max_depth: int) -> list[IndexExpr]:
    """All index expressions of depth <= max_depth, depth-then-spec order."""
    by_depth: list[list[IndexExpr]] = [[IVar(k) for k in range(spec.base_var_count)]]
    for d in range(1, max_depth + 1):
        shallower = [e for tier in by_depth for e in tier]
        tier = []
        for ctor, arity in spec.app_ctors:
            for combo in itertools.product(shallower, repeat=arity):
                e = IApp(ctor, combo)
                if index_depth(e) == d:
                    tier.append(e)
        by_depth.append(tier)
    return [e for tier in by_depth for e in tier]


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
    foreign = [h for h in _heads(t) if h not in group_ctx.app_ctor]
    if foreign:
        msg = f"type {foreign[0]} does not belong to group {group_ctx.name}"
        raise AnalysisError(Diagnostic(msg))
    kinds = tuple(dict.fromkeys(_vars(t)))
    names = kinds + ("Nat",) * (group_ctx.spec.base_var_count - len(kinds))
    universes = {k: BASE_TYPES[name] for k, name in enumerate(names)}
    return type_to_index(t, kinds, group_ctx.app_ctor), universes
