"""Build a group's derived definitions as terms (nestfold.terms).

The builders write the index universe, the restated source declarations,
I (NTimes in nat mode), nfold, nmap, hmap, ind, hfold and the PS bridge.
They run in one of two modes, which derive_group decides once, in the one
_Names it hands to every builder:

* general mode indexes a group by its own free term algebra (varA, BushC...),
* nat mode specializes one-declaration one-parameter groups to a plain
  natural-number depth index (zero, succ).

Names are part of the derived contract: the same group always yields the
same trees.  Every binder is drawn from a name supply (_Supply) that skips
the module's top-level names, the names beside it and Agda's keywords, so
no source name can capture or be captured by a derived binder.  A group
with no parameters gets no binder and no lambda that binds nothing.
"""

from __future__ import annotations

from .analysis import GroupContext, IApp, IndexExpr, IVar
from .diagnostics import DerivationError
from .parser import AGDA_KEYWORDS, Constructor, TApp, TVar, TypeDecl, TypeExpr
from .terms import (
    SET,
    Binder,
    Clause,
    DataDecl,
    DerivedDef,
    DerivedGroup,
    Lam,
    PCon,
    Pi,
    PVar,
    Term,
    Var,
    _arrow,
    _binders,
    _lam,
    _v,
)

# ---------------------------------------------------------------------------
# Naming and index-translation tables, per (group, mode)


# the module's top-level names that are the same for every group, and Agda's keywords
_FIXED = AGDA_KEYWORDS.union(
    "Set Nat zero succ NTimes I nfold nmap hmap ind hfold PS PS-to-P fold-PS liftNTimes nfold'".split()
)


class _Supply:
    """The names taken in one scope.  fresh hands out a wanted name, primed
    until it is free: the in-scope set of Peyton Jones & Marlow, JFP 2002."""

    def __init__(self, taken: frozenset[str]):
        self.taken = set(taken)

    def fresh(self, want: str) -> str:
        while want in self.taken:
            want += "'"
        self.taken.add(want)
        return want


def _ivar_wants(nat: bool, arity: int) -> tuple[str, ...]:
    """The names the index variables of a declaration with arity parameters want."""
    if nat:
        return ("n",)
    return ("i", "j")[:arity] if arity <= 2 else tuple(f"i{k + 1}" for k in range(arity))


def _value_wants(nat: bool, m: int) -> tuple[str, ...]:
    """The names the value variables of a constructor with m arguments want."""
    if m == 1:
        return ("x",)
    return ("x", "xs") if nat and m == 2 else tuple(f"x{k + 1}" for k in range(m))


class _Names:
    """Every name and index-rendering choice for one derivation run.  Built
    once per group and mode; every builder reads the mode from here.

    One supply hands out the names that several definitions share, skipping
    the module's top-level names, in this order: base types, base functions,
    the motive p, index and value variables, carriers, then methods.  A
    builder takes its own binders from scope(<the other shared names it binds
    or reads>), so no binder captures a name beside it."""

    def __init__(self, ctx: GroupContext, nat: bool):
        if nat and not ctx.nat_index_eligible:
            raise DerivationError(
                "nat-index mode needs exactly one declaration with one parameter, "
                f"but the {ctx.name} group has {len(ctx.group.decls)} declaration(s) "
                f"with {ctx.base_var_count} base slot(s)"
            )
        self.ctx = ctx
        self.nat = nat
        decls = ctx.group.decls
        self.index_name = "Nat" if nat else ctx.index_name
        self.var_ctors = ("zero",) if nat else ctx.var_ctors
        self.hfold = {dn: "hfold" if nat else "hfold-" + dn.lower() for dn in decls}
        self.reserved = _FIXED.union(
            decls, ctx.ctor_names, (ctx.index_name,), ctx.var_ctors, ctx.app_ctor.values(),
            self.hfold.values(),
        )
        s = _Supply(self.reserved)
        self.base_types = tuple(s.fresh(v.lower()) for v in ctx.slot_letters)
        self.base_fns = tuple(s.fresh("z" if nat else "base" + v) for v in ctx.slot_letters)
        self.p = s.fresh("p")
        # the index and value variables, by the name each wants: i, j, x, ...
        arities = sorted({1, *(len(ctx.decls[dn].params) for dn in decls)})
        counts = sorted({1, 2 * nat, *(len(c.args) for _, c in ctx.ctors())})  # nat ind binds xs
        wants = [w for k in arities for w in _ivar_wants(nat, k)]
        wants += [w for m in counts for w in _value_wants(nat, m)]
        self.vars = {w: s.fresh(w) for w in dict.fromkeys(wants)}
        self.x = self.vars["x"]  # the value variable of nfold's base clauses and hfold
        self.ivar = self.vars["n" if nat else "i"]  # the index variable of a one-parameter slot
        # the type-operator variable standing for each declaration in I and hfold
        self.carriers = {dn: s.fresh("b" if nat else dn.lower()) for dn in decls}
        self.method: dict[str, str] = {}
        for _, c in ctx.ctors():
            # a nat method wants its constructor's first letter, else its name
            want = c.name[0] if nat and c.name[0] not in s.taken else c.name
            self.method[c.name] = s.fresh(want)

    def scope(self, *names: str) -> _Supply:
        """A supply for one builder's own binders, beside the index and value
        variables and the other shared names it binds or reads."""
        return _Supply(self.reserved.union(self.vars.values(), names))

    def ivars(self, arity: int) -> tuple[str, ...]:
        return tuple(map(self.vars.__getitem__, _ivar_wants(self.nat, arity)))

    def index_env(self, d: TypeDecl) -> tuple[tuple[str, ...], dict[int, Term]]:
        """d's index variables, and the environment reading its k-th slot as the k-th."""
        ivs = self.ivars(len(d.params))
        return ivs, {k: Var(v) for k, v in enumerate(ivs)}

    def value_vars(self, m: int) -> tuple[str, ...]:
        return tuple(map(self.vars.__getitem__, _value_wants(self.nat, m)))

    def index_head(self, app_ctor: str) -> str:
        return "succ" if self.nat else app_ctor

    def index_term(self, e: IndexExpr, env: dict[int, Term]) -> Term:
        match e:
            case IVar(k):
                return env[k]
            case IApp(ctor, args):
                return _v(self.index_head(ctor), *(self.index_term(a, env) for a in args))
        raise AssertionError

    def index_pattern(self, decl: str, ivs: tuple[str, ...]) -> PCon:
        return PCon(self.index_head(self.ctx.app_ctor[decl]), tuple(PVar(v) for v in ivs))

    def var_pattern(self, k: int) -> PCon:
        return PCon(self.var_ctors[k])

    def interp(self, carriers: list[Term], bases: list[Term], ix: Term) -> Term:
        if self.nat:
            return _v("NTimes", ix, carriers[0], bases[0])
        return _v("I", *carriers, *bases, ix)

    def own_interp(self, ix: Term, bases: tuple[str, ...] | None = None) -> Term:
        """ix interpreted over the group's own declarations, at the base
        types unless bases names others."""
        decls = [Var(dn) for dn in self.ctx.group.decls]
        return self.interp(decls, [Var(b) for b in bases or self.base_types], ix)

    def result_index(self, decl: TypeDecl, env: dict[int, Term]) -> Term:
        return self.index_term(self.ctx.own_index(decl.name), env)


# ---------------------------------------------------------------------------
# Index universe and source data declarations


def derive_index_decl(nm: _Names) -> DerivedDef:
    ctx, decls = nm.ctx, nm.ctx.group.decls
    idx = Var(nm.index_name)
    if nm.nat:
        apps = [("succ", 1)]
        role = f"index universe (nesting depth of {decls[0]} applications)"
    else:
        apps = [(ctx.app_ctor[n], len(ctx.decls[n].params)) for n in decls]
        role = f"index universe (type expressions over {'/'.join(decls)})"
    ctors = [(vc, idx) for vc in nm.var_ctors]
    ctors += [(cname, Pi((idx,) * (arity + 1))) for cname, arity in apps]
    return DerivedDef(name=nm.index_name, role=role, data=DataDecl((), tuple(ctors)))


def _carrier_type(t: TypeExpr, carrier: dict[str, str], params: dict[str, str]) -> Term:
    """t with its declaration heads renamed by carrier and its parameters by params."""
    match t:
        case TVar(name):
            return Var(params.get(name, name))
        case TApp(head, args):
            return _v(carrier.get(head, head), *(_carrier_type(a, carrier, params) for a in args))
    raise AssertionError


def _ctor_type(c: Constructor) -> Term:
    return _arrow([_carrier_type(a, {}, {}) for a in c.args + (c.result,)])


def derive_data_decls(ctx: GroupContext) -> list[DerivedDef]:
    """The source declarations, re-stated; mutual groups need forward sigs."""
    forward = len(ctx.group.decls) >= 2
    out = []
    for dn in ctx.group.decls:
        d = ctx.decls[dn]
        data = DataDecl(d.params, tuple((c.name, _ctor_type(c)) for c in d.ctors), forward)
        out.append(DerivedDef(name=d.name, role="source data type", data=data))
    return out


# ---------------------------------------------------------------------------
# Interpretation of indices as types


def derive_interp(nm: _Names) -> DerivedDef:
    ctx = nm.ctx
    if nm.nat:
        n, (b,), (a,) = nm.ivar, nm.carriers.values(), nm.base_types
        sig = Pi((Binder((n,), Var("Nat")), Binder((b,), Pi((SET, SET))), SET, SET))
        clauses = (
            Clause((PCon("zero"), PVar(b), PVar(a)), Var(a)),
            Clause(
                (PCon("succ", (PVar(n),)), PVar(b), PVar(a)),
                _v(b, _v("NTimes", Var(n), Var(b), Var(a))),
            ),
        )
        role = "applies a type operator n times to a base type"
        return DerivedDef("NTimes", role, sig, clauses)

    carriers = [nm.carriers[dn] for dn in ctx.group.decls]
    segs: list[Binder | Term] = []
    for dn in ctx.group.decls:
        segs.append(_arrow([SET] * (len(ctx.decls[dn].params) + 1)))
    segs.extend([SET] * len(nm.base_types))
    segs.extend([Var(nm.index_name), SET])
    lead = tuple(PVar(c) for c in carriers) + tuple(PVar(b) for b in nm.base_types)
    cvars = [Var(c) for c in carriers]
    bvars = [Var(b) for b in nm.base_types]
    clauses = []
    for k, vc in enumerate(nm.var_ctors):
        clauses.append(Clause(lead + (PCon(vc),), bvars[k]))
    for dn in ctx.group.decls:
        arity = len(ctx.decls[dn].params)
        wants = ("expr",) if arity == 1 else [f"expr{k + 1}" for k in range(arity)]
        evs = tuple(map(nm.scope(*carriers, *nm.base_types).fresh, wants))
        pat = PCon(ctx.app_ctor[dn], tuple(PVar(e) for e in evs))
        body = _v(carriers[ctx.group.decls.index(dn)], *(_v("I", *cvars, *bvars, Var(e)) for e in evs))
        clauses.append(Clause(lead + (pat,), body))
    return DerivedDef("I", "interprets an index expression as a type", Pi(tuple(segs)), tuple(clauses))


# ---------------------------------------------------------------------------
# nfold, and the pieces of every fold-family signature


def _method_type(nm: _Names, d: TypeDecl, c: Constructor, values: bool = False) -> Term:
    """The type of nfold's method for c: p at each argument's index, then at
    the result's.  With values it is ind's: the method also binds the
    examined values, and every application of p reads its value, as
    _fold_clauses' pass_values passes them."""
    ivs, env = nm.index_env(d)
    ixs = [nm.index_term(t, env) for t in nm.ctx.arg_templates[c.name]]
    res = nm.result_index(d, env)
    segs: list[Binder | Term] = [*_binders(ivs, Var(nm.index_name))]
    if not values:
        return _arrow(segs + [_v(nm.p, ix) for ix in (*ixs, res)])
    vvs = [Var(v) for v in nm.value_vars(len(c.args))]
    segs += [Binder((v.name,), nm.own_interp(ix)) for ix, v in zip(ixs, vvs)]
    segs += [_v(nm.p, ix, v) for ix, v in zip(ixs, vvs)]
    segs.append(_v(nm.p, res, _v(c.name, *vvs)))
    return _arrow(segs)


def _base_type(nm: _Names, k: int, values: bool = False) -> Pi:
    """The type of nfold's k-th base function, a -> p var; with values,
    ind's, (x : a) -> p var x."""
    a, var = Var(nm.base_types[k]), Var(nm.var_ctors[k])
    if not values:
        return Pi((a, _v(nm.p, var)))
    return Pi((Binder((nm.x,), a), _v(nm.p, var, Var(nm.x))))


def _head(nm: _Names, ctors: list[tuple[TypeDecl, Constructor]]) -> list[Binder]:
    """The motive binder (p : Index -> Set), then the method of each of ctors."""
    segs = [Binder((nm.p,), Pi((Var(nm.index_name), SET)))]
    return segs + [Binder((nm.method[c.name],), _method_type(nm, d, c)) for d, c in ctors]


def _scrutinee(nm: _Names, interp: Term, val: str | None = None) -> list[Binder | Term]:
    """(i : Index) -> interp -> p i; with val, (i : Index) -> (val : interp) -> p i val."""
    i = Binder((nm.ivar,), Var(nm.index_name))
    if val is None:
        return [i, interp, _v(nm.p, Var(nm.ivar))]
    return [i, Binder((val,), interp), _v(nm.p, Var(nm.ivar), Var(val))]


def _nfold_signature(nm: _Names, ctors: list[tuple[TypeDecl, Constructor]], interp: Term) -> Pi:
    """nfold's signature over the methods of ctors and interp, the
    interpretation of i: PS-to-P's is nfold's with none at the PS carrier."""
    segs = [*_head(nm, ctors), *_binders(nm.base_types, SET)]
    segs += [Binder((bf,), _base_type(nm, k)) for k, bf in enumerate(nm.base_fns)]
    return Pi((*segs, *_scrutinee(nm, interp)))


def _fold_clauses(
    nm: _Names,
    name: str,
    lead_names: list[str],
    base_fns: tuple[str, ...],
    val: str,
    pass_values: bool,
) -> tuple[Clause, ...]:
    """The clauses of nfold and ind: a base clause per index variable, then
    one clause per constructor that recurses as `name` into every argument.
    With pass_values the method also receives the examined value variables."""
    lead = tuple(PVar(v) for v in lead_names)
    args = tuple(Var(v) for v in lead_names)
    clauses = [
        Clause(lead + (nm.var_pattern(k), PVar(val)), _v(bf, Var(val)))
        for k, bf in enumerate(base_fns)
    ]
    for d, c in nm.ctx.ctors():
        ivs, env = nm.index_env(d)
        vvs = nm.value_vars(len(c.args))
        pats = lead + (
            nm.index_pattern(d.name, ivs),
            PCon(c.name, tuple(PVar(v) for v in vvs)),
        )
        recs = [
            _v(name, *args, nm.index_term(t, env), Var(v))
            for t, v in zip(nm.ctx.arg_templates[c.name], vvs)
        ]
        passed = ivs + vvs if pass_values else ivs
        clauses.append(Clause(pats, _v(nm.method[c.name], *(Var(v) for v in passed), *recs)))
    return tuple(clauses)


def derive_nfold(nm: _Names) -> DerivedDef:
    sig = _nfold_signature(nm, nm.ctx.ctors(), nm.own_interp(Var(nm.ivar)))
    lead_names = [nm.p, *nm.method.values(), *nm.base_types, *nm.base_fns]
    clauses = _fold_clauses(nm, "nfold", lead_names, nm.base_fns, nm.x, False)
    role = "dependently typed fold over every indexed instance"
    return DerivedDef("nfold", role, sig, clauses)


# ---------------------------------------------------------------------------
# Induction principle


def derive_ind(nm: _Names) -> DerivedDef:
    idx, p, x = Var(nm.index_name), nm.p, nm.x
    # nat mode's one base function is named apart from nfold's z
    base_fns = (
        (nm.scope(*nm.base_types, p, *nm.method.values()).fresh("base"),) if nm.nat else nm.base_fns
    )
    val = nm.value_vars(2)[1] if nm.nat else x

    # the methods and base functions, in argument order: bases first in nat mode
    typed = [Binder((nm.method[c.name],), _method_type(nm, d, c, True)) for d, c in nm.ctx.ctors()]
    bases = [Binder((bf,), _base_type(nm, k, True)) for k, bf in enumerate(base_fns)]
    leads = bases + typed if nm.nat else typed + bases
    scrutinee = nm.own_interp(Var(nm.ivar))
    sig = Pi(
        (
            *_binders(nm.base_types, SET, implicit=True),
            Binder((p,), Pi((Binder((nm.ivar,), idx), scrutinee, SET)), implicit=True),
            *leads,
            *_scrutinee(nm, scrutinee, val),
        )
    )
    clauses = _fold_clauses(nm, "ind", [b.names[0] for b in leads], base_fns, val, True)
    role = "induction principle generalizing nfold"
    return DerivedDef("ind", role, sig, clauses)


# ---------------------------------------------------------------------------
# Maps


def derive_map(nm: _Names) -> DerivedDef:
    src, iv, fresh = nm.base_types, nm.ivar, nm.scope(*nm.base_types).fresh
    if len(src) == 1:
        tgt, fns = (fresh("b"),), (fresh("f"),)
    else:
        tgt = tuple(fresh(s + "'") for s in src)
        fns = tuple(fresh("fgh"[k] if k < 3 else f"f{k + 1}") for k in range(len(src)))
    sig = Pi(
        (
            *_binders(src + tgt, SET, implicit=True),
            Binder((iv,), Var(nm.index_name)),
            *[Pi((Var(s), Var(t))) for s, t in zip(src, tgt)],
            nm.own_interp(Var(iv)),
            nm.own_interp(Var(iv), tgt),
        )
    )
    val = fresh("l") if nm.nat else nm.x
    pats = (
        tuple(PVar(s, implicit=True) for s in src + tgt)
        + (PVar(iv),)
        + tuple(PVar(f) for f in fns)
        + (PVar(val),)
    )
    plam = Lam((iv,), nm.own_interp(Var(iv), tgt))
    mlams = [_lam(nm.ivars(len(d.params)), Var(c.name)) for d, c in nm.ctx.ctors()]
    body = _v(
        "nfold",
        plam,
        *mlams,
        *(Var(s) for s in src),
        *(Var(f) for f in fns),
        Var(iv),
        Var(val),
    )
    role = "map over every indexed instance, defined from nfold"
    return DerivedDef("nmap", role, sig, (Clause(pats, body),))


def _derive_hmap(nm: _Names) -> DerivedDef:
    dn = nm.ctx.group.decls[0]
    one = nm.index_term(nm.ctx.own_index(dn), {0: Var(nm.var_ctors[0])})
    (a, b, f), x = map(nm.scope().fresh, "abf"), nm.x
    sig = Pi(
        (Binder((a, b), SET, implicit=True), Pi((Var(a), Var(b))), _v(dn, Var(a)), _v(dn, Var(b)))
    )
    clause = Clause((PVar(f), PVar(x)), _v("nmap", one, Var(f), Var(x)))
    return DerivedDef("hmap", "one-layer map, nmap at depth one", sig, (clause,))


# ---------------------------------------------------------------------------
# Higher-order folds


def derive_hfold(nm: _Names) -> list[DerivedDef]:
    ctx, carrier, x = nm.ctx, nm.carriers, nm.x
    # a declaration's k-th type parameter is named like nfold's k-th base type
    params = {dn: dict(zip(ctx.decls[dn].params, nm.base_types)) for dn in ctx.group.decls}

    def hmethod_type(d: TypeDecl, c: Constructor) -> Term:
        ps = params[d.name]
        segs: list[Binder | Term] = [*_binders(tuple(ps.values()), SET if nm.nat else None)]
        segs.extend(_carrier_type(a, carrier, ps) for a in c.args + (c.result,))
        return _arrow(segs)

    carrier_binders: list[Binder] = []
    for dn in ctx.group.decls:
        arity = len(ctx.decls[dn].params)
        carrier_binders.append(Binder((carrier[dn],), _arrow([SET] * (arity + 1))))
    method_binders = [
        Binder((nm.method[c.name],), hmethod_type(d, c)) for d, c in ctx.ctors()
    ]
    cvars = [Var(carrier[dn]) for dn in ctx.group.decls]

    out = []
    for dn in ctx.group.decls:
        own = ctx.decls[dn]
        ps = nm.base_types[: len(own.params)]
        insts = [
            Var(ps[k]) if k < len(ps) else (Var(ps[-1]) if ps else Var(carrier[dn]))
            for k in range(len(nm.base_types))
        ]
        segs = [*carrier_binders, *method_binders, *_binders(ps, SET if nm.nat else None)]
        segs.append(_v(dn, *(Var(p) for p in ps)))
        segs.append(_v(carrier[dn], *(Var(p) for p in ps)))
        plam = Lam((nm.ivar,), nm.interp(cvars, insts, Var(nm.ivar)))
        mlams = []
        for d2, c2 in ctx.ctors():
            ivs = nm.ivars(len(d2.params))
            mlams.append(
                _lam(ivs, _v(nm.method[c2.name], *(nm.interp(cvars, insts, Var(v)) for v in ivs)))
            )
        env = {k: Var(nm.var_ctors[k]) for k in range(len(ps))}
        body = _v(
            "nfold",
            plam,
            *mlams,
            *insts,
            *[Lam((x,), Var(x)) for _ in nm.base_types],
            nm.result_index(own, env),
            Var(x),
        )
        pats = (
            tuple(PVar(carrier[d2]) for d2 in ctx.group.decls)
            + tuple(PVar(nm.method[c2.name]) for _, c2 in ctx.ctors())
            + tuple(PVar(p) for p in ps)
            + (PVar(x),)
        )
        if nm.nat:
            role = "higher-order fold, defined from nfold"
        else:
            role = f"higher-order fold for {dn}, defined from nfold"
        out.append(DerivedDef(nm.hfold[dn], role, Pi(tuple(segs)), (Clause(pats, body),)))
    return out


# ---------------------------------------------------------------------------
# PS bridge: rebuild nfold from hfold through a continuation carrier


def derive_ps_bridge(nm: _Names) -> list[DerivedDef]:
    """The PS bridge of a bush-shaped group (GroupContext.bush_shape)."""
    ctx = nm.ctx
    leaf_ctor, cons_ctor = ctx.bush_shape
    dn = ctx.group.decls[0]
    idx = Var(nm.index_name)
    p, a, bf, iv, x = nm.p, nm.base_types[0], nm.base_fns[0], nm.ivar, nm.x
    vi, ps_p = Var(iv), _v("PS", Var(p))
    leaf_m, cons_m = nm.method[leaf_ctor], nm.method[cons_ctor]
    fresh = nm.scope(p, a, bf, *nm.method.values()).fresh
    A, hyp, ih, tr, k, b, lift = map(fresh, "A hyp ih tr f b lift".split())

    def succ_t(e: Term) -> Term:
        return _v(nm.index_head(ctx.app_ctor[dn]), e)

    def interp(carrier: Term, ix: Term) -> Term:
        return nm.interp([carrier], [Var(a)], ix)

    ps_body = Pi((Binder((iv,), idx), Pi((Var(A), _v(p, vi))), _v(p, succ_t(vi))))
    ps = DerivedDef(
        "PS",
        "carrier transformer used to rebuild nfold from hfold",
        Pi((*_head(nm, []), SET, SET)),
        (Clause((PVar(p), PVar(A)), ps_body),),
    )

    ih_def = DerivedDef(
        ih,
        "local helper",
        Pi((interp(ps_p, vi), _v(p, vi))),
        (Clause((), _v("PS-to-P", Var(p), Var(a), Var(bf), vi)),),
    )
    lead = (PVar(p), PVar(a), PVar(bf))
    pstop = DerivedDef(
        "PS-to-P",
        "collapses an iterated PS carrier into the result family",
        _nfold_signature(nm, [], interp(ps_p, vi)),
        (
            Clause(lead + (nm.var_pattern(0), PVar(x)), _v(bf, Var(x))),
            Clause(
                lead + (nm.index_pattern(dn, (iv,)), PVar(hyp)),
                _v(hyp, vi, Var(ih)),
                wheres=(ih_def,),
            ),
        ),
    )

    x1, x2 = nm.value_vars(2)
    foldps_body = _v(
        nm.hfold[dn],
        ps_p,
        Lam((a, iv, tr), _v(leaf_m, vi)),
        Lam(
            (a, x1, x2, iv, tr),
            _v(
                cons_m,
                vi,
                _v(tr, Var(x1)),
                _v(x2, succ_t(vi), Lam((k,), _v(k, vi, Var(tr)))),
            ),
        ),
    )
    foldps = DerivedDef(
        "fold-PS",
        "hfold instantiated at the PS carrier",
        Pi((*_head(nm, ctx.ctors()), Binder((a,), SET), _v(dn, Var(a)), _v("PS", Var(p), Var(a)))),
        (Clause((PVar(p), PVar(leaf_m), PVar(cons_m)), foldps_body),),
    )

    # liftNTimes reads neither p nor the methods, so its binders have a scope of their own
    lb, lc, m, f, y = map(nm.scope(a).fresh, "bcmfy")
    m_type = Pi((Binder((x, y), None), Pi((Var(x), Var(y))), Pi((_v(lb, Var(x)), _v(lb, Var(y))))))
    f_type = Pi((Binder((a,), None), _v(lb, Var(a)), _v(lc, Var(a))))
    in_b, in_c = interp(Var(lb), vi), interp(Var(lc), vi)
    lift_sig = Pi(
        (
            Binder((lb, lc), Pi((SET, SET))),
            m_type,
            Binder((iv,), idx),
            f_type,
            Binder((a,), SET),
            in_b,
            in_c,
        )
    )
    lift_lead = (PVar(lb), PVar(lc), PVar(m))
    lift_step_body = _v(
        f,
        in_c,
        _v(
            m,
            in_b,
            in_c,
            _v("liftNTimes", Var(lb), Var(lc), Var(m), vi, Var(f), Var(a)),
            Var(x),
        ),
    )
    lift_tail = (PVar(f), PVar(a), PVar(x))
    lift_ntimes = DerivedDef(
        "liftNTimes",
        "lifts a pointwise function through an iterated operator",
        lift_sig,
        (
            Clause(lift_lead + (nm.var_pattern(0),) + lift_tail, Var(x)),
            Clause(lift_lead + (nm.index_pattern(dn, (iv,)),) + lift_tail, lift_step_body),
        ),
    )

    lift_where = DerivedDef(
        lift,
        "local helper",
        Pi((Binder((iv,), idx), interp(Var(dn), vi), interp(ps_p, vi))),
        (
            Clause(
                (PVar(iv), PVar(x)),
                _v(
                    "liftNTimes",
                    Var(dn),
                    ps_p,
                    Lam((a, b), Var("hmap")),
                    vi,
                    _v("fold-PS", Var(p), Var(leaf_m), Var(cons_m)),
                    Var(a),
                    Var(x),
                ),
            ),
        ),
    )
    nfoldp = DerivedDef(
        "nfold'",
        "nfold rebuilt from hfold; agrees with nfold everywhere",
        _nfold_signature(nm, ctx.ctors(), nm.own_interp(vi)),
        (
            Clause(
                (PVar(p), PVar(leaf_m), PVar(cons_m), PVar(a), PVar(bf), PVar(iv), PVar(x)),
                _v("PS-to-P", Var(p), Var(a), Var(bf), vi, _v(lift, vi, Var(x))),
                wheres=(lift_where,),
            ),
        ),
    )
    return [ps, pstop, foldps, lift_ntimes, nfoldp]


# ---------------------------------------------------------------------------
# Whole-group assembly


def derive_group(ctx: GroupContext, nat_index: bool = False) -> DerivedGroup:
    nm = _Names(ctx, nat_index)  # rejects ineligible nat-index requests up front
    defs = [derive_index_decl(nm), *derive_data_decls(ctx), derive_interp(nm)]
    defs += [derive_nfold(nm), derive_map(nm)]
    if ctx.nat_index_eligible:
        defs.append(_derive_hmap(nm))
    defs.append(derive_ind(nm))
    defs.extend(derive_hfold(nm))
    notes: list[str] = []
    if ctx.bush_shape:
        defs.extend(derive_ps_bridge(nm))
    else:
        notes.append("PS bridge: skipped (PS bridge not derivable for this shape)")
    return DerivedGroup(ctx.name, tuple(defs), tuple(notes))
