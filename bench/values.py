"""Seeded value generation for the `eval` operations, with independent folds.

A generated value is a plain tree: an int for a natural at a base slot, or
`(constructor, children)` for a constructor node.  The expected results of the
`sum`, `length` and `depth` algebras are computed here, from the tree the
generator built, and never by nestfold's evaluators.
"""

from __future__ import annotations

import random

from nestfold.analysis import GroupContext, IApp, IVar

#: Naturals at base slots are drawn from range(BASE_RANGE).
BASE_RANGE = 10


def _subst(e, iargs):
    if isinstance(e, IVar):
        return iargs[e.k]
    return IApp(e.ctor, tuple(_subst(a, iargs) for a in e.args))


def _index_size(e) -> int:
    if isinstance(e, IVar):
        return 1
    return 1 + sum(_index_size(a) for a in e.args)


class _Shapes:
    """Constructor choices of one group, with the size of the smallest value
    the generator closes each index with."""

    def __init__(self, ctx: GroupContext):
        self.ctx = ctx
        self._closing: dict = {}

    def options(self, i: IApp) -> list[tuple[str, list]]:
        decl = self.ctx.decls[self.ctx.decl_of_app[i.ctor]]
        return [
            (c.name, [_subst(t, i.args) for t in self.ctx.arg_templates[c.name]])
            for c in decl.ctors
        ]

    def closing(self, i: IApp) -> tuple[str, list]:
        """The constructor whose argument indices are smallest (nil, leaf,
        robert, duluth).  Closing with it shrinks the index, so it ends."""
        if i not in self._closing:
            self._closing[i] = min(
                self.options(i), key=lambda o: sum(_index_size(a) for a in o[1])
            )
        return self._closing[i]

    def min_nodes(self, i) -> int:
        if isinstance(i, IVar):
            return 0
        _, args = self.closing(i)
        return 1 + sum(self.min_nodes(a) for a in args)


def generate(ctx: GroupContext, idx, nodes: int, grow_depth: int, rng: random.Random):
    """A random value of index `idx` with close to `nodes` constructor nodes.

    Above `grow_depth` a node picks at random a recursive constructor that
    fits its budget and splits what is left at random between the recursive
    arguments.  A node whose budget is spent, or which sits at `grow_depth`,
    closes with the smallest value of its index.  The depth bound keeps every
    value far below Python's recursion limit.
    """
    shapes = _Shapes(ctx)

    def go(i, budget: int, depth: int):
        if isinstance(i, IVar):
            return rng.randrange(BASE_RANGE)
        fits = []
        if depth < grow_depth and budget > shapes.min_nodes(i):
            for name, args in shapes.options(i):
                rec = [k for k, a in enumerate(args) if isinstance(a, IApp)]
                floor = 1 + sum(shapes.min_nodes(a) for a in args)
                if rec and floor <= budget:
                    fits.append((name, args, rec, budget - floor))
        if not fits:
            name, args = shapes.closing(i)
            return (name, tuple(go(a, 0, depth + 1) for a in args))
        name, args, rec, spare = rng.choice(fits)
        weights = [rng.random() for _ in rec]
        total = sum(weights) or 1.0
        extra = {k: int(spare * w / total) for k, w in zip(rec, weights)}
        extra[rng.choice(rec)] += spare - sum(extra.values())
        return (
            name,
            tuple(
                go(a, shapes.min_nodes(a) + extra.get(k, 0), depth + 1)
                for k, a in enumerate(args)
            ),
        )

    return go(idx, nodes, 0)


def spine_pair(ctx: GroupContext) -> tuple[str, str] | None:
    """(nil, cons) when bracket sugar and the `length` algebra apply."""
    if len(ctx.group.decls) != 1:
        return None
    ctors = ctx.decls[ctx.group.decls[0]].ctors
    nils = [c.name for c in ctors if not c.args]
    twos = [c.name for c in ctors if len(c.args) == 2]
    if len(ctors) == 2 and len(nils) == 1 and len(twos) == 1:
        return nils[0], twos[0]
    return None


def render(tree, spine: tuple[str, str] | None) -> str:
    """The value literal, with cons chains written as `[ ... ]` when the
    declaration has bracket sugar, so that literal nesting stays shallow."""
    if isinstance(tree, int):
        return str(tree)
    name, kids = tree
    if spine is not None:
        elems = []
        while tree[0] == spine[1]:
            elems.append(render(tree[1][0], spine))
            tree = tree[1][1]
        return "[" + ", ".join(elems) + "]"
    if not kids:
        return name
    return "(" + " ".join([name] + [render(k, spine) for k in kids]) + ")"


def fold_sum(tree) -> int:
    if isinstance(tree, int):
        return tree
    return sum(fold_sum(k) for k in tree[1])


def fold_depth(tree) -> int:
    if isinstance(tree, int) or not tree[1]:
        return 0
    return 1 + max(fold_depth(k) for k in tree[1])


def spine_length(tree, spine: tuple[str, str]) -> int:
    n = 0
    while tree[0] == spine[1]:
        n += 1
        tree = tree[1][1]
    return n


def count_nodes(tree) -> int:
    if isinstance(tree, int):
        return 0
    return 1 + sum(count_nodes(k) for k in tree[1])
