"""The derived-term language, and every check on a finished term.

Terms (Var, App, Lam, and Pi with its Binder segments), patterns (PVar,
PCon), clauses, data declarations and definitions are language-neutral
trees: they fix every name and every shape, so a printer renders them
without deciding anything.

The checks run on finished definitions, in one scoped walk per definition
and one walk per clause's patterns:

* recursion_witnesses certifies structural recursion: every self-call
  passes a variable bound strictly inside a constructor pattern of the
  called definition, a where definition's included;
* check_module also scope-checks a whole module.  An unbound name, a name
  bound twice at the top level, by one signature's binders or by one
  clause's patterns, a pattern variable named like a constructor, a binder
  or lambda that binds nothing, and an Agda keyword used as a name are each
  an EmitError: Agda would reject or misread them;
* ind_erases_to_nfold checks that the induction principle's signature,
  value arguments erased, is the fold's.
"""

from __future__ import annotations

from collections.abc import Iterable, Set as AbstractSet

from .analysis import GroupContext
from .diagnostics import DerivationError, EmitError, Record
from .parser import AGDA_KEYWORDS

# ---------------------------------------------------------------------------
# Term and pattern language


class Var(Record):
    __slots__ = __match_args__ = ("name",)


class App(Record):
    """Application with a flattened argument spine."""

    __slots__ = __match_args__ = ("fn", "args")


class Lam(Record):
    __slots__ = __match_args__ = ("params", "body")


class Binder(Record):
    """A named function-space segment; type None renders as a bare forall."""

    __slots__ = __match_args__ = ("names", "type", "implicit")
    _defaults = (False,)


class Pi(Record):
    """A function type: binders and anonymous domains, last segment codomain."""

    __slots__ = __match_args__ = ("segments",)


Term = Var | App | Lam | Pi


class PVar(Record):
    __slots__ = __match_args__ = ("name", "implicit")
    _defaults = (False,)


class PCon(Record):
    __slots__ = __match_args__ = ("head", "args")
    _defaults = ((),)


Pattern = PVar | PCon


class Clause(Record):
    __slots__ = __match_args__ = ("patterns", "body", "wheres")
    _defaults = ((),)


class DataDecl(Record):
    __slots__ = __match_args__ = ("params", "ctors", "forward")
    _defaults = (False,)


class DerivedDef(Record):
    """One emitted definition: a data declaration or a signature plus clauses."""

    __slots__ = __match_args__ = ("name", "role", "signature", "clauses", "data")
    _defaults = (None, (), None)


class DerivedGroup(Record):
    __slots__ = __match_args__ = ("name", "defs", "notes")
    _defaults = ((),)


SET = Var("Set")


def _v(name: str, *args: Term) -> Term:
    return App(Var(name), args) if args else Var(name)


def _arrow(tys: list[Term]) -> Term:
    return tys[0] if len(tys) == 1 else Pi(tuple(tys))


def _lam(params: tuple[str, ...], body: Term) -> Term:
    """The lambda over params, or body itself when there are none."""
    return Lam(params, body) if params else body


def _binders(names: tuple[str, ...], type: Term | None, implicit: bool = False) -> tuple[Binder, ...]:
    """The binder of names, or no binder when there are none."""
    return (Binder(names, type, implicit),) if names else ()


# ---------------------------------------------------------------------------
# The scoped walk


def _no_keyword(names: Iterable[str], where: str) -> None:
    if not AGDA_KEYWORDS.isdisjoint(names):
        word = next(n for n in names if n in AGDA_KEYWORDS)
        raise EmitError(f"{where} binds the Agda keyword {word!r}")


def _bind(names: tuple[str, ...], scope: dict[str, int], where: str, what: str) -> dict[str, int]:
    """scope with names bound outside any constructor pattern."""
    if not names:
        raise EmitError(f"{where} has {what} that binds no name")
    _no_keyword(names, where)
    return {**scope, **dict.fromkeys(names, 0)}


class _Walk:
    """One walk over a definition, its where blocks included.  Each where
    definition is walked as a definition of its own, one level deeper: a
    top-level definition is at level 1.  A scope maps each bound name to
    the level of the definition strictly inside whose constructor pattern
    it is bound, or to 0.  `calls` maps the definitions being walked to
    their levels: each call of one is certified by its last argument bound
    at that level, the call's witness.  With known and ctors None, names
    from outside the definition are not checked.  The walks dispatch on a
    node's exact class: they are derive's per-node walks."""

    __slots__ = ("calls", "known", "ctors", "witnesses")

    def __init__(
        self, call: str | None, known: AbstractSet[str] | None, ctors: AbstractSet[str] | None
    ):
        self.calls = {} if call is None else {call: 1}
        self.known = known
        self.ctors = ctors
        self.witnesses: list[str] = []

    def definition(self, d: DerivedDef, scope: dict[str, int], level: int = 1) -> None:
        where = f"definition {d.name!r}"
        seen: set[str] = set()
        for s in d.signature.segments if isinstance(d.signature, Pi) else ():
            for name in s.names if isinstance(s, Binder) else ():
                if name in seen:
                    raise EmitError(f"{where} binds {name!r} twice in its signature")
                seen.add(name)
        self.term(d.signature, scope, where)
        for cl in d.clauses:
            binds: dict[str, int] = {}
            self.patterns(cl.patterns, level, 0, binds, where)
            helpers = dict.fromkeys([w.name for w in cl.wheres], 0)
            _no_keyword({**binds, **helpers}, where)
            inner = {**scope, **binds}
            self.term(cl.body, {**inner, **helpers}, where)
            # like a top-level definition, a where definition sees itself
            # and the ones before it
            calls = self.calls
            for w in cl.wheres:
                inner = {**inner, w.name: 0}
                self.calls = {**calls, w.name: level + 1}
                self.definition(w, inner, level + 1)
            self.calls = calls

    def patterns(
        self, ps: tuple[Pattern, ...], level: int, mark: int, binds: dict[str, int], where: str
    ) -> None:
        """Add to binds each variable of ps, marked with level when a
        constructor pattern of the definition at level encloses it; a clause
        binds each once."""
        for p in ps:
            if p.__class__ is PCon:
                if self.ctors is not None and p.head not in self.ctors:
                    raise EmitError(f"unknown constructor {p.head!r} in a pattern of {where}")
                self.patterns(p.args, level, level, binds, where)
            elif self.ctors is not None and p.name in self.ctors:  # Agda would read the constructor
                raise EmitError(f"{where} binds constructor name {p.name!r} as a pattern variable")
            elif p.name in binds:
                raise EmitError(f"{where} binds {p.name!r} twice in one clause")
            else:
                binds[p.name] = mark

    def term(self, t: Term, scope: dict[str, int], where: str) -> None:
        cls = t.__class__
        if cls is Var:
            name = t.name
            if name not in scope and self.known is not None and name not in self.known:
                raise EmitError(f"unscoped name {name!r} in {where}")
        elif cls is App:
            fn, args = t.fn, t.args
            if fn.__class__ is Var and fn.name in self.calls:
                level = self.calls[fn.name]
                ws = [a.name for a in args if a.__class__ is Var and scope.get(a.name) == level]
                if not ws:
                    raise DerivationError(
                        f"cannot certify termination of {fn.name!r}: a recursive "
                        "call passes no strict subterm of a constructor pattern"
                    )
                if ws[-1] not in self.witnesses:
                    self.witnesses.append(ws[-1])
            self.term(fn, scope, where)
            for a in args:
                self.term(a, scope, where)
        elif cls is Lam:
            self.term(t.body, _bind(t.params, scope, where, "a lambda"), where)
        elif cls is Pi:
            for s in t.segments:
                if s.__class__ is not Binder:
                    self.term(s, scope, where)
                    continue
                if s.type is not None:
                    self.term(s.type, scope, where)
                scope = _bind(s.names, scope, where, "a binder")


def recursion_witnesses(d: DerivedDef) -> tuple[str, ...]:
    """Certify structural recursion: every self-call must pass at least one
    variable bound strictly inside a constructor pattern.  Returns the
    witnesses (last such argument per call site, deduplicated) and raises
    DerivationError when a call has none, or EmitError when d is malformed."""
    if d.data is not None:
        return ()
    walk = _Walk(d.name, None, None)
    walk.definition(d, {})
    return tuple(walk.witnesses)


def check_module(name: str, defs: tuple[DerivedDef, ...]) -> dict[str, tuple[str, ...]]:
    """Scope-check and certify a module's definitions, each in one walk, and
    return each function's recursion witnesses by its name.  Every data
    type, constructor and definition name is bound once at the top level,
    and a definition sees the ones bound before it and itself."""
    roles: dict[str, str] = {"Set": "the universe"}

    def bind(top: str, role: str) -> None:
        _no_keyword((top,), f"module {name}")
        if top in roles:
            raise EmitError(f"module {name} binds {top!r} twice: as {roles[top]} and as {role}")
        roles[top] = role

    known = roles.keys()  # every name bound so far
    ctors: set[str] = set()
    for d in defs:
        if d.data is not None:
            bind(d.name, "a data type")
            for cn, _ in d.data.ctors:
                bind(cn, f"a constructor of {d.name}")
                ctors.add(cn)
    witnesses: dict[str, tuple[str, ...]] = {}
    for d in defs:
        if d.data is not None:
            where = f"data type {d.name!r}"
            _no_keyword(d.data.params, where)
            params, walk = dict.fromkeys(d.data.params, 0), _Walk(None, known, ctors)
            for _, ct in d.data.ctors:
                walk.term(ct, params, where)
            continue
        bind(d.name, "a definition")
        walk = _Walk(d.name, known, ctors)
        walk.definition(d, {})
        witnesses[d.name] = tuple(walk.witnesses)
    return witnesses


# ---------------------------------------------------------------------------
# Erasure check: ind collapses to nfold once value arguments are removed


def _drop_value_arg(t: Term) -> Term:
    if not isinstance(t, App):
        raise DerivationError("erasure expected an application of the result family")
    return App(t.fn, t.args[:1]) if len(t.args) > 1 else t


def _erase_method(t: Term, idx: Term) -> Term:
    """t without its value binders (every binder not of the index type),
    each remaining segment applied to its index alone."""
    segs = t.segments if isinstance(t, Pi) else (t,)
    return _arrow(
        [
            s if isinstance(s, Binder) else _drop_value_arg(s)
            for s in segs
            if not isinstance(s, Binder) or s.type == idx
        ]
    )


def _erase_base(t: Term) -> Term:
    first, cod = t.segments
    domain = first.type if isinstance(first, Binder) else first
    return Pi((domain, _drop_value_arg(cod)))


def ind_erases_to_nfold(ctx: GroupContext, ind_def: DerivedDef, nfold_def: DerivedDef) -> list[str]:
    """Check, component by component, that deleting the value arguments from
    the induction principle's signature yields the fold's signature.  Names
    are part of the derived contract, so the comparison is syntactic.
    Returns a list of mismatch descriptions; empty means the check passed."""
    m, v = len(ctx.ctors()), ctx.base_var_count
    # Both signatures end in their base functions (ind: methods and base
    # functions) and a three-segment trailer; a group with no base types
    # has no base-type binder before them.
    nsegs = nfold_def.signature.segments
    isegs = ind_def.signature.segments
    # nfold's motive is (p : Index -> Set), and its Index is Nat only in nat
    # mode: well_formed refuses a declaration named Nat
    idx = nsegs[0].type.segments[0]
    nat_index = idx == Var("Nat")
    n_methods = nsegs[1 : 1 + m]
    n_bases = nsegs[-3 - v : -3]
    leads = isegs[-3 - m - v : -3]
    i_bases, i_methods = (leads[:v], leads[v:]) if nat_index else (leads[m:], leads[:m])

    problems = []
    for nb, ib in zip(n_methods, i_methods):
        if _erase_method(ib.type, idx) != nb.type:
            problems.append(f"method {nb.names[0]}: erased type does not match")
    for nb, ib in zip(n_bases, i_bases):
        if _erase_base(ib.type) != nb.type:
            problems.append(f"base {nb.names[0]}: erased type does not match")
    ivb, vb, cod = isegs[-3:]
    if (ivb, vb.type, _drop_value_arg(cod)) != tuple(nsegs[-3:]):
        problems.append("trailer: erased type does not match")
    return problems
