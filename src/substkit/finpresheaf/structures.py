"""Dense finite presheaves, the substitution tensor, and its mediators.

A :class:`FinStructure` stores one finite set of element labels per
(sort, context) cell, for every context up to a length bound, together with a
complete table of the contravariant renaming action.  The substitution tensor
is computed literally: raw (context, element, environment) triples quotiented
by a union-find closure over all generator pairs, one per enumerated renaming.

Inside :func:`tensor` everything goes by position.  Contexts are numbered by
their place in the enumeration, and the triples of a cell are numbered block
by block, so a triple number names a context, an element position and an
environment position.  The closure is a union-find over the triple numbers of
one cell, run in place on a list of parents; the diagonal pairs of identity
renamings, which would join a triple with itself, are never generated.  The
quotient gives each triple number the number of its class, and classes are
ordered by the ``repr`` of their triples, assembled from one rendering per
context, element and environment.  The action reads the class number of the
image of every triple; a renaming that fixes every environment fixes every
class, so it is read off without that pass.

What a tensor needs of one factor alone is derived once and kept.  Who keeps
what:

- The context table (:func:`_contexts`) holds one object per context of one
  alphabet and bound.  Every structure, renaming, shape and plan of that
  alphabet reads its contexts there, so a (sort, context) lookup with one
  of them meets the identical object and compares no entries.  A context
  keeps its one-entry extensions, which are the table's longer contexts, so
  a shift by one entry finds its extended contexts in the table: they are
  built once per process, not once per structure.
- The renaming table (:func:`_renamings`) holds every renaming between the
  contexts of one alphabet and bound, enumerated and checked once.
  :meth:`FinStructure.renamings`, :func:`build_structure` and the naturality
  loops read it; :func:`free_structure` reads it grouped by source and
  target (:func:`_renamings_between`).
- The shape table (:func:`_shape`) holds what depends only on the left
  alphabet, the bound and the sizes of Q's cells: the strides of the
  environments, and for every renaming of the left contexts the map of
  environments by position.  Environments are products of Q-cells, so a
  renaming of the left contexts moves an environment by position
  arithmetic.  A pass tensors hundreds of right factors of a few shapes.
- The right plan (:func:`_right_plan`), kept by Q per left alphabet, holds
  what depends on Q's content: the environments, their renderings, and for
  every renaming of the ambient contexts the positions of the images of the
  environments, for which it reads each entry of Q's action once.
- The left plan (:func:`_left_plan`), kept by P, holds P's cells by context
  number, the start of the rendering of each triple per element and the
  generator pairs of every renaming, for which it reads each entry of P's
  action once.
- The renderings (:meth:`FinStructure._rendered`), kept by each structure,
  are the ``repr`` of every element of each of its cells.  Both plans read
  a factor's elements through them.  A tensor hands on the renderings of
  its representatives, which it built as the order of its classes, so an
  element of a tensor is never rendered again; any other structure renders
  a cell on first use.

The tables are bounded and hold positions, contexts and renamings only,
never a structure or a tensor.  Each tensor does the work that needs both
factors: the union-find, the classes and the check that the action is well
defined.  Its :class:`TensorResult` keeps, per cell, the raw triples, the
class of each and the classes, and indexes a cell's triples on its first
lookup; it holds no table keyed on raw triples across cells.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Hashable, Iterable, Sequence

from ..sorts import (Context, Renaming, Sort, compose_renamings,
                     enumerate_contexts, enumerate_renamings, first,
                     identity_renaming)


class BoundExceeded(Exception):
    pass


class FinStructure:
    """An explicit presheaf: finite cells plus a total renaming-action table.

    ``_plans`` holds the plans of :func:`tensor` with this structure as its
    right factor, one per left alphabet, and ``_left`` the plan of the
    tensors with it as the left factor.  ``_reprs`` holds the renderings of
    its cells (:meth:`_rendered`), handed on by the tensor that built it or
    made on first use.  Plans and renderings hold positions, tuples and
    strings only, never a structure or a tensor, so they die with the
    structure that owns them.  They are readings of the cells and the
    action, so a structure is not mutated once it has been tensored.  Its
    contexts, the shapes of its tensors and its renamings are kept by the
    module's bounded tables, which any structure of the same alphabet and
    bound shares: :meth:`contexts` returns the context table's tuple.
    """

    def __init__(self, sorts: Sequence[Sort], ctx_sorts: Sequence[Hashable],
                 bound: int, cells: dict, action: dict):
        self.sorts = tuple(sorts)
        self.ctx_sorts = tuple(ctx_sorts)
        self.bound = bound
        self._contexts = _contexts(self.ctx_sorts, bound)
        self.cells = cells
        self.action = action
        self._reprs = {}
        self._plans = {}
        self._left = None

    def contexts(self) -> tuple[Context, ...]:
        return self._contexts

    def cell(self, sort: Sort, ctx: Context) -> tuple:
        return self.cells.get((sort, ctx), ())

    def _rendered(self, sort: Sort, ctx: Context) -> list[str]:
        """``repr`` of each element of a cell, in cell order: handed on by
        the tensor that built this structure, or rendered on first use."""
        got = self._reprs.get((sort, ctx))
        if got is None:
            got = self._reprs[(sort, ctx)] = [repr(x) for x in self.cell(sort, ctx)]
        return got

    def act(self, sort: Sort, rho: Renaming, elem):
        return self.action[(rho.key(), sort, elem)]

    def renamings(self) -> tuple:
        return _renamings(self.ctx_sorts, self.bound)

    def validate(self) -> None:
        """Check the functor laws and that the action lands in the right cells."""
        for rho in self.renamings():
            for s in self.sorts:
                for x in self.cell(s, rho.target):
                    y = self.act(s, rho, x)
                    if y not in self.cell(s, rho.source):
                        raise ValueError(f"action escapes its cell at {rho!r}, {s!r}")
        for ctx in self._contexts:
            ident = identity_renaming(ctx)
            for s in self.sorts:
                for x in self.cell(s, ctx):
                    if self.act(s, ident, x) != x:
                        raise ValueError(f"identity law fails at {s!r}, {ctx!r}, {x!r}")
        # the renamings out of each context, in the table's order
        out_of: dict = {}
        for rho in self.renamings():
            out_of.setdefault(rho.source, []).append(rho)
        for r1 in self.renamings():
            for r2 in out_of[r1.target]:
                comp = compose_renamings(r1, r2)
                for s in self.sorts:
                    for q in self.cell(s, r2.target):
                        if self.act(s, comp, q) != self.act(s, r1, self.act(s, r2, q)):
                            raise ValueError(
                                f"composition law fails at {s!r}, {q!r}")


def build_structure(sorts, ctx_sorts, bound, cells, act_fn) -> FinStructure:
    """Materialize the dense action table from an action function."""
    sorts = tuple(sorts)
    action = {}
    for rho in _renamings(tuple(ctx_sorts), bound):
        key = rho.key()
        for s in sorts:
            for x in cells.get((s, rho.target), ()):
                action[(key, s, x)] = act_fn(s, rho, x)
    return FinStructure(sorts, ctx_sorts, bound, cells, action)


def variables_structure(ctx_sorts: Sequence[Hashable], bound: int) -> FinStructure:
    """The presheaf of variables: positions of each sort, acted on by the map."""
    sorts = tuple(first(s) for s in ctx_sorts)
    cells = {}
    for ctx in _contexts(tuple(ctx_sorts), bound):
        for s in ctx_sorts:
            cells[(first(s), ctx)] = tuple(i for i, e in enumerate(ctx.entries) if e == s)
    return build_structure(sorts, ctx_sorts, bound, cells,
                           lambda s, rho, x: rho.mapping[x])


def terminal_structure(sorts: Sequence[Sort], ctx_sorts, bound: int) -> FinStructure:
    cells = {(s, ctx): ("*",) for s in sorts
             for ctx in _contexts(tuple(ctx_sorts), bound)}
    return build_structure(sorts, ctx_sorts, bound, cells, lambda s, rho, x: "*")


def empty_structure(sorts: Sequence[Sort], ctx_sorts, bound: int) -> FinStructure:
    cells = {(s, ctx): () for s in sorts
             for ctx in _contexts(tuple(ctx_sorts), bound)}
    return FinStructure(sorts, ctx_sorts, bound, cells, {})


def free_structure(rng, sorts: Sequence[Sort], ctx_sorts, bound: int,
                   homes: Sequence[Context] | None = None,
                   ensure: Iterable = ()) -> FinStructure:
    """A random free presheaf: elements are (generator, renaming into its home).

    The action is composition, so the functor laws hold by construction and
    the elements exhibit genuine merging/permutation behaviour.  Generators
    live at contexts from ``homes`` (default: length <= 1, which keeps every
    cell at 3 elements or fewer at bound 2); ``ensure`` lists (sort, context)
    cells that must carry a generator.
    """
    contexts = _contexts(tuple(ctx_sorts), bound)
    if homes is None:
        homes = [c for c in contexts if len(c) <= 1]
    gens: dict = {}
    for s in sorts:
        for home in homes:
            if rng.random() < 0.6:
                gens.setdefault((s, home), []).append(f"g{home.entries}")
    for s, ctx in ensure:
        if not gens.get((s, ctx)):
            gens[(s, ctx)] = [f"g{ctx.entries}"]
    between = _renamings_between(tuple(ctx_sorts), bound)
    cells = {}
    for s in sorts:
        for ctx in contexts:
            elems = []
            for (gs, home), labels in gens.items():
                if gs != s:
                    continue
                # a home past the bound has no entry in the table
                rhos = between.get((ctx, home))
                if rhos is None:
                    rhos = enumerate_renamings(ctx, home)
                for g in labels:
                    for rho in rhos:
                        elems.append((g, home.entries, rho.mapping))
            cells[(s, ctx)] = tuple(sorted(elems, key=repr))

    def act(s, tau, elem):
        # the position map of tau followed by the element's renaming, which
        # was enumerated and checked
        g, home_entries, mapping = elem
        return (g, home_entries, tuple(tau.mapping[y] for y in mapping))

    return build_structure(sorts, ctx_sorts, bound, cells, act)


def enumerate_envs(q: FinStructure, index_ctx: Context, over_ctx: Context):
    """All Q-valued environments indexed by ``index_ctx`` over ``over_ctx``."""
    pools = [q.cell(first(s), over_ctx) for s in index_ctx.entries]
    return itertools.product(*pools)


def reindex_env(env: tuple, rho: Renaming) -> tuple:
    """Covariant reindexing of an environment along a renaming of its index."""
    return tuple(env[rho.mapping[y]] for y in range(len(rho.target)))


class TensorResult:
    """The substitution tensor of two structures with its quotient map.

    Cells of ``structure`` hold canonical representative triples
    ``(ctx_entries, element, environment)``; ``class_of`` resolves any raw
    triple to its representative, and ``members`` lists a representative's
    class.

    The result keeps one :class:`_Quotient` per (sort, context) cell: the raw
    triples by number, each one's class number and the classes.  The index
    from a triple to its number is built on the cell's first lookup and kept
    by the result, so a cell nobody asks about is never indexed.
    """

    def __init__(self, p: FinStructure, q: FinStructure, structure: FinStructure,
                 quotients: dict):
        self.p = p
        self.q = q
        self.structure = structure
        self._quotients = quotients

    def class_of(self, sort: Sort, ctx: Context, triple):
        cell = self._quotients[(sort, ctx)]
        return cell.reps[cell.rep_of[cell.number(triple)]]

    def members(self, sort: Sort, ctx: Context, rep) -> tuple:
        cell = self._quotients[(sort, ctx)]
        i = cell.number(rep)
        ordered = cell.classes[cell.rep_of[i]]
        if ordered[0] != i:
            raise KeyError(rep)
        return tuple(cell.triples[m] for m in ordered)


class _Quotient:
    """One cell of a tensor: ``triples[m]`` is the m-th raw triple,
    ``rep_of[m]`` the number of its class, ``classes[k]`` the members of the
    k-th class in ``repr`` order and ``reps[k]`` its representative, its
    first member.  ``reps`` is the cell of the tensor's structure."""

    __slots__ = ("triples", "rep_of", "classes", "reps", "_index")

    def __init__(self, triples: list, rep_of: list, classes: list, reps: tuple):
        self.triples = triples
        self.rep_of = rep_of
        self.classes = classes
        self.reps = reps
        self._index = None

    def number(self, triple) -> int:
        index = self._index
        if index is None:
            index = self._index = {t: m for m, t in enumerate(self.triples)}
        return index[triple]


def _positions(columns) -> list[int]:
    """``sum(col[d] for col, d in zip(columns, digits))`` for every digit
    string, in ``itertools.product`` order: environments are products of
    cells, so a map of environments is a sum of one term per entry."""
    out = [0]
    for col in columns:
        out = [base + x for base in out for x in col]
    return out


@functools.lru_cache(maxsize=32)
def _contexts(ctx_sorts: tuple, bound: int) -> tuple:
    """The contexts over ``ctx_sorts`` up to ``bound`` in
    :func:`enumerate_contexts` order, one object per context.  A context one
    entry longer is the shorter one's :meth:`~Context.extend` by that entry,
    so the shorter one keeps it, and the table of a smaller bound is a prefix
    of this one: a lookup or a shift meets the identical object."""
    if bound <= 0:
        return tuple(enumerate_contexts(ctx_sorts, bound))
    shorter = _contexts(ctx_sorts, bound - 1)
    ones = [Context((e,)) for e in ctx_sorts]
    return shorter + tuple(ctx.extend(one) for ctx in shorter
                           if len(ctx) == bound - 1 for one in ones)


@functools.lru_cache(maxsize=32)
def _renamings(ctx_sorts: tuple, bound: int) -> tuple:
    """Every renaming between the contexts over ``ctx_sorts`` up to
    ``bound``, in :meth:`FinStructure.renamings` order, enumerated and
    checked once per alphabet and bound.  Renamings hold contexts only."""
    contexts = _contexts(ctx_sorts, bound)
    return tuple(rho for g1 in contexts for g2 in contexts
                 for rho in enumerate_renamings(g1, g2))


@functools.lru_cache(maxsize=32)
def _renamings_between(ctx_sorts: tuple, bound: int) -> dict:
    """The renamings of :func:`_renamings`, grouped by source and target
    context, each group in the table's order; every pair of contexts has a
    group, empty if no renaming joins them."""
    contexts = _contexts(ctx_sorts, bound)
    out = {(g1, g2): [] for g1 in contexts for g2 in contexts}
    for rho in _renamings(ctx_sorts, bound):
        out[(rho.source, rho.target)].append(rho)
    return out


class _Shape:
    """What every tensor over one left alphabet needs of a right factor with
    given cell sizes, by position; see :func:`_shape`."""

    __slots__ = ("stride", "renamings", "lands")

    def __init__(self, left_ctx_sorts: tuple, bound: int, sizes: tuple):
        # a numbers G' in p_ctxs, c the ambient context; sizes[c][i] is the
        # size of the Q-cell over c of the i-th entry of the alphabet
        p_ctxs = _contexts(left_ctx_sorts, bound)
        number = {gp: a for a, gp in enumerate(p_ctxs)}
        at = {e: i for i, e in enumerate(left_ctx_sorts)}
        widths = [[[row[at[e]] for e in gp.entries] for row in sizes] for gp in p_ctxs]
        # stride[a][c][i]: what a step of the i-th entry of an environment of
        # Env(G', ctx) adds to its position
        self.stride = [[[math.prod(w[i + 1:]) for i in range(len(w))] for w in row]
                       for row in widths]
        # (a1, a2, key) per renaming rho from G2 into G1, and lands[r][c][k]:
        # the position in Env(G2, ctx) of env . rho for the k-th environment
        # env of Env(G1, ctx), rho being the r-th renaming.  Entry y of
        # env . rho is entry rho(y) of env, so a step of entry i of env adds
        # the strides of the entries that rho sends to i.
        self.renamings, self.lands = [], []
        for rho in _renamings(left_ctx_sorts, bound):
            a1, a2 = number[rho.source], number[rho.target]
            self.renamings.append((a1, a2, rho.key()))
            lands = []
            for c, w in enumerate(widths[a1]):
                weight = [0] * len(w)
                for y, x in enumerate(rho.mapping):
                    weight[x] += self.stride[a2][c][y]
                lands.append(_positions([[d * st for d in range(n)]
                                         for n, st in zip(w, weight)]))
            self.lands.append(lands)


@functools.lru_cache(maxsize=64)
def _shape(left_ctx_sorts: tuple, bound: int, sizes: tuple) -> _Shape:
    """The shape of tensors over ``left_ctx_sorts`` whose right factor has
    the cell sizes ``sizes`` (per ambient context, per alphabet entry in
    alphabet order), built once per shape."""
    return _Shape(left_ctx_sorts, bound, sizes)


class _RightPlan:
    """What every tensor with right factor ``q`` over one left alphabet needs
    of ``q``'s content, by position; see :func:`_right_plan`."""

    __slots__ = ("shape", "envs", "env_reprs", "taus", "__weakref__")

    def __init__(self, q: FinStructure, left_ctx_sorts: tuple):
        # a numbers G' in p_ctxs, c the ambient context in out_ctxs; e is an
        # entry of the alphabet, whose Q-cell over the ambient context is
        # q_cells[c][e]
        out_ctxs = q.contexts()
        p_ctxs = _contexts(left_ctx_sorts, q.bound)
        q_sort = {s.ident: s for s in q.sorts}
        q_cells = [{e: q.cell(qs, ctx) for e, qs in q_sort.items()} for ctx in out_ctxs]
        self.shape = _shape(left_ctx_sorts, q.bound,
                            tuple(tuple(len(row[e]) for e in left_ctx_sorts)
                                  for row in q_cells))
        stride = self.shape.stride
        self.envs = [[list(itertools.product(*(q_cells[c][e] for e in gp.entries)))
                      for c in range(len(out_ctxs))] for gp in p_ctxs]
        # the repr of a triple is "(" + repr(entries) + ", " + repr(element) +
        # ", " + repr(env) + ")", so its parts are rendered once each, and an
        # environment from the renderings of its entries
        reprs = [{e: q._rendered(qs, ctx) for e, qs in q_sort.items()}
                 for ctx in out_ctxs]
        self.env_reprs = [
            [[", (" + ", ".join(parts) + ("," if len(gp) == 1 else "") + "))"
              for parts in itertools.product(*(reprs[c][e] for e in gp.entries))]
             for c in range(len(out_ctxs))] for gp in p_ctxs]
        # (key, source, target, qmove) per renaming tau of the ambient
        # contexts: tau takes the k-th environment of Env(G', target) to the
        # qmove[a][k]-th one of Env(G', source).  Only this reads q.action,
        # once per entry.
        number = {ctx: c for c, ctx in enumerate(out_ctxs)}
        cell_pos = [{e: {x: i for i, x in enumerate(cell)} for e, cell in row.items()}
                    for row in q_cells]
        # A tau that maps its context to itself and fixes every element of
        # Q over it fixes every environment: its qmove is None.
        self.taus = []
        for tau in q.renamings():
            key, cs, ct = tau.key(), number[tau.source], number[tau.target]
            images = {e: [cell_pos[cs][e][q.action[(key, qs, x)]]
                          for x in q_cells[ct][e]]
                      for e, qs in q_sort.items()}
            if cs == ct and all(image == list(range(len(image)))
                                for image in images.values()):
                self.taus.append((key, cs, ct, None))
                continue
            qmove = [_positions([[i * st for i in images[e]]
                                 for e, st in zip(gp.entries, stride[a][cs])])
                     for a, gp in enumerate(p_ctxs)]
            self.taus.append((key, cs, ct, qmove))


def _right_plan(q: FinStructure, left_ctx_sorts: tuple) -> _RightPlan:
    """The plan of right factor ``q`` for left factors over ``left_ctx_sorts``,
    built on first use and kept by ``q``.  The alphabet's order numbers the
    left contexts, so it is the key."""
    plan = q._plans.get(left_ctx_sorts)
    if plan is None:
        plan = q._plans[left_ctx_sorts] = _RightPlan(q, left_ctx_sorts)
    return plan


class _LeftPlan:
    """What every tensor with left factor ``p`` needs of ``p``, by position;
    see :func:`_left_plan`.  ``sorts[s]`` is ``(cells, lengths, reprs,
    moves)``: the cells of sort ``s`` by context number, ``(a, |P_s G'|)``
    for each G' where the cell is not empty, the rendering of the start of a
    triple per element, and the generator pairs per renaming."""

    __slots__ = ("sorts", "__weakref__")

    def __init__(self, p: FinStructure, renamings: list):
        p_ctxs = p.contexts()
        heads = ["(" + repr(gp.entries) + ", " for gp in p_ctxs]
        self.sorts = {}
        for s in p.sorts:
            p_cells = [p.cell(s, gp) for gp in p_ctxs]
            elem_pos = [{t: i for i, t in enumerate(cell)} for cell in p_cells]
            # each generator pair of the r-th renaming rho: (G1, rho t, env) ~
            # (G2, t, env . rho), as the positions of rho t in P_s G1 and of t
            # in P_s G2.  An identity rho leaves every environment in place,
            # so its pair (i, i) would join a triple with itself and is left
            # out; a pair (j, i) stays, from a P whose identity moves t.
            moves = []
            for r, (a1, a2, key) in enumerate(renamings):
                ident = a1 == a2 and key[2] == tuple(range(len(key[2])))
                pairs = []
                for i, t in enumerate(p_cells[a2]):
                    j = elem_pos[a1][p.action[(key, s, t)]]
                    if j != i or not ident:
                        pairs.append((j, i))
                if pairs:
                    moves.append((r, a1, a2, pairs))
            self.sorts[s] = (
                p_cells,
                [(a, len(cell)) for a, cell in enumerate(p_cells) if cell],
                [[head + r for r in p._rendered(s, gp)]
                 for gp, head in zip(p_ctxs, heads)],
                moves)


def _left_plan(p: FinStructure, renamings: list) -> _LeftPlan:
    """The plan of left factor ``p``, built on first use and kept by ``p``.
    ``renamings`` numbers the renamings between P's contexts, as the shape of
    every tensor with left factor ``p`` does: that numbering depends only on
    P's alphabet and bound."""
    plan = p._left
    if plan is None:
        plan = p._left = _LeftPlan(p, renamings)
    return plan


def _classes(parent: list, order: list) -> tuple[list, list]:
    """The classes of a closed union-find forest over triple numbers, and the
    class number of each triple.  A class lists its members by ``order``, and
    the classes go by the order of their first members; the sorts are
    stable, so equal keys keep the order of the triple numbers."""
    groups: dict = {}
    for i in range(len(parent)):
        x = i
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        groups.setdefault(x, []).append(i)
    key = order.__getitem__
    classes = sorted((sorted(grp, key=key) for grp in groups.values()),
                     key=lambda ordered: order[ordered[0]])
    rep_of = [0] * len(parent)
    for k, ordered in enumerate(classes):
        for m in ordered:
            rep_of[m] = k
    return rep_of, classes


def tensor(p: FinStructure, q: FinStructure) -> TensorResult:
    """The coend of ``P_s G' x Env Q G' G`` over the enumerated contexts."""
    if p.bound != q.bound:
        raise BoundExceeded("tensor factors must share the bound")
    want = {first(s) for s in p.ctx_sorts}
    if set(q.sorts) != want:
        raise ValueError("right tensor factor must be homogeneous over the left "
                         "factor's context alphabet")
    plan = _right_plan(q, p.ctx_sorts)
    envs, env_reprs, lands = plan.envs, plan.env_reprs, plan.shape.lands
    left = _left_plan(p, plan.shape.renamings)
    quotients, cells = {}, {}
    structure = FinStructure(p.sorts, q.ctx_sorts, p.bound, cells, {})
    rendered = structure._reprs
    out_ctxs, p_ctxs = structure.contexts(), p.contexts()
    # numbered[s][c]: the quotient of the cell of sort s over the c-th context
    numbered = {}
    for s in p.sorts:
        p_cells, _, elem_reprs, moves = left.sorts[s]
        numbered[s] = by_ctx = []
        for c, ctx in enumerate(out_ctxs):
            # triple (G', the i-th element, the k-th environment) is number
            # offset[G'] + i * |Env(G', ctx)| + k
            offset, width, n = [], [], 0
            for cell, rows in zip(p_cells, envs):
                offset.append(n)
                width.append(len(rows[c]))
                n += len(cell) * width[-1]
            triples = [(gp.entries, t, env)
                       for gp, cell, rows in zip(p_ctxs, p_cells, envs)
                       for t in cell for env in rows[c]]
            # the closure: union-find over triple numbers with path halving,
            # joining triple b1 + k with b2 + land[k] for every generator pair
            parent = list(range(n))
            for r, a1, a2, pairs in moves:
                land = lands[r][c]
                o1, w1, o2, w2 = offset[a1], width[a1], offset[a2], width[a2]
                for i1, i2 in pairs:
                    b1, b2 = o1 + i1 * w1, o2 + i2 * w2
                    for k, j in enumerate(land):
                        x, y = b1 + k, b2 + j
                        while parent[x] != x:
                            parent[x] = x = parent[parent[x]]
                        while parent[y] != y:
                            parent[y] = y = parent[parent[y]]
                        if x != y:
                            parent[y] = x
            order = [e + v for es, rows in zip(elem_reprs, env_reprs)
                     for e in es for v in rows[c]]
            rep_of, classes = _classes(parent, order)
            reps = cells[(s, ctx)] = tuple(triples[cls[0]] for cls in classes)
            rendered[(s, ctx)] = [order[cls[0]] for cls in classes]
            quotients[(s, ctx)] = quot = _Quotient(triples, rep_of, classes, reps)
            by_ctx.append(quot)

    # tau moves a class by moving its environment: the i-th element with the
    # k-th environment of Env(G', target) goes to the i-th element with the
    # qmove[G'][k]-th environment of Env(G', source).  The representative heads
    # its members and sets the image, which every member must reach.  A tau
    # without qmove takes each triple to itself, and so each class.
    action = structure.action
    for key, cs, ct, qmove in plan.taus:
        for s in p.sorts:
            tgt = numbered[s][ct]
            if not tgt.reps:
                continue
            if qmove is None:
                for rep in tgt.reps:
                    action[(key, s, rep)] = rep
                continue
            src = numbered[s][cs]
            src_rep = src.rep_of
            # got[m]: the class number of tau applied to triple m
            got, base = [], 0
            _, lengths, _, _ = left.sorts[s]
            for a, count in lengths:
                width, move = len(envs[a][cs]), qmove[a]
                if width:
                    end = base + count * width
                    got += [src_rep[b + j] for b in range(base, end, width)
                            for j in move]
                    base = end
            images = [got[ordered[0]] for ordered in tgt.classes]
            if [images[k] for k in tgt.rep_of] != got:
                _raise_ill_defined(s, out_ctxs[cs], out_ctxs[ct], key, tgt, src,
                                   got, images)
            for rep, image in zip(tgt.reps, images):
                action[(key, s, rep)] = src.reps[image]
    return TensorResult(p, q, structure, quotients)


def _raise_ill_defined(s, source, target, key, tgt, src, got, images):
    """Name the first member, in cell order, that tau takes out of the image
    of its class's representative."""
    for ordered, image in zip(tgt.classes, images):
        for m in ordered:
            if got[m] != image:
                tau = Renaming(source, target, key[2])
                raise ValueError(
                    f"tensor action not well-defined at {s!r} {tau!r}: "
                    f"{tgt.triples[m]!r} -> {src.reps[got[m]]!r} != "
                    f"{src.reps[image]!r}")


def truncate_structure(p: FinStructure, bound: int) -> FinStructure:
    """Restrict a structure to contexts within a smaller bound."""
    if bound > p.bound:
        raise BoundExceeded("cannot truncate upwards")
    # the entries of the kept contexts: an action key names its renaming's
    # contexts by their entries (Renaming.key)
    keep = {c.entries for c in _contexts(p.ctx_sorts, bound)}
    cells = {(s, c): e for (s, c), e in p.cells.items() if c.entries in keep}
    action = {k: v for k, v in p.action.items()
              if k[0][0] in keep and k[0][1] in keep}
    return FinStructure(p.sorts, p.ctx_sorts, bound, cells, action)


def shift_structure(p: FinStructure, binder: Context) -> FinStructure:
    """Scope shift: the cell at G is P's cell at G ++ binder."""
    if len(binder) > p.bound:
        raise BoundExceeded("binder longer than the bound")
    bound = p.bound - len(binder)
    cells = {}
    for ctx in _contexts(p.ctx_sorts, bound):
        ext = ctx.extend(binder)
        for s in p.sorts:
            cells[(s, ctx)] = p.cell(s, ext)
    return build_structure(p.sorts, p.ctx_sorts, bound, cells,
                           lambda s, rho, x: p.act(s, rho.extend(binder), x))


def product_structure(ps: Sequence[FinStructure]) -> FinStructure:
    """Cellwise product; elements are tuples."""
    head = ps[0]
    cells = {}
    for s in head.sorts:
        for ctx in head.contexts():
            cells[(s, ctx)] = tuple(itertools.product(*(p.cell(s, ctx) for p in ps)))
    return build_structure(head.sorts, head.ctx_sorts, head.bound, cells,
                           lambda s, rho, xs: tuple(p.act(s, rho, x)
                                                    for p, x in zip(ps, xs)))


def coproduct_structure(ps: Sequence[tuple[str, FinStructure]]) -> FinStructure:
    """Cellwise tagged union; elements are (tag, element)."""
    head = ps[0][1]
    cells = {}
    for s in head.sorts:
        for ctx in head.contexts():
            cells[(s, ctx)] = tuple((tag, x) for tag, p in ps for x in p.cell(s, ctx))
    by_tag = dict(ps)
    return build_structure(head.sorts, head.ctx_sorts, head.bound, cells,
                           lambda s, rho, tx: (tx[0], by_tag[tx[0]].act(s, rho, tx[1])))


# --- the right exponential -----------------------------------------------------

def _wedge_ok(p, q, amb, assigned, envs_by_ctx):
    """Check the end condition between every assigned pair of contexts."""
    for (s, g2), f2 in assigned.items():
        for (s1, g1), f1 in assigned.items():
            if s1 != s:
                continue
            for rho in enumerate_renamings(g1, g2):
                for env in envs_by_ctx[g2]:
                    moved = tuple(q.act(first(amb.sort_at(i)), rho, e)
                                  for i, e in enumerate(env))
                    if p.act(s, rho, f2[env]) != f1[moved]:
                        return False
    return True


def exponential(p: FinStructure, q: FinStructure, cap: int = 200_000):
    """The right exponential ``P <= Q``: elements at ambient context G are
    families of maps ``Env Q G G'' -> P_s G''`` natural in G''.

    Families are encoded as tuples of graphs in context-enumeration order, so
    elements are hashable and deterministic.  Raises :class:`BoundExceeded`
    when the search space at some cell exceeds ``cap``.
    """
    want = {first(s) for s in p.ctx_sorts}
    if set(q.sorts) != want or p.bound != q.bound:
        raise ValueError("exponential needs a homogeneous Q over P's alphabet "
                         "with the same bound")
    contexts = p.contexts()
    cells = {}
    for s in p.sorts:
        for amb in contexts:
            envs_by_ctx = {g: list(enumerate_envs(q, amb, g)) for g in contexts}
            total = 1
            for g in contexts:
                total *= len(p.cell(s, g)) ** len(envs_by_ctx[g])
                if total > cap:
                    raise BoundExceeded(f"exponential cell at {s!r} {amb!r} too large")
            families = [{}]
            for g in contexts:
                envs = envs_by_ctx[g]
                options = list(itertools.product(p.cell(s, g), repeat=len(envs)))
                nxt = []
                for fam in families:
                    for outs in options:
                        cand = dict(fam)
                        cand[(s, g)] = dict(zip(envs, outs))
                        if _wedge_ok(p, q, amb, cand, envs_by_ctx):
                            nxt.append(cand)
                families = nxt
                if len(families) > cap:
                    raise BoundExceeded(f"exponential cell at {s!r} {amb!r} too large")
            encoded = []
            for fam in families:
                encoded.append(tuple(tuple(fam[(s, g)][e] for e in envs_by_ctx[g])
                                     for g in contexts))
            cells[(s, amb)] = tuple(sorted(encoded, key=repr))

    ctx_index = {g: i for i, g in enumerate(contexts)}

    def family_lookup(s, amb, elem, g, env):
        envs = list(enumerate_envs(q, amb, g))
        return elem[ctx_index[g]][envs.index(env)]

    def act(s, tau, elem):
        # contravariant in the ambient context: precompose with reindexing
        out = []
        for g in contexts:
            envs_src = list(enumerate_envs(q, tau.source, g))
            row = []
            for env in envs_src:
                moved = reindex_env(env, tau)
                row.append(family_lookup(s, tau.target, elem, g, moved))
            out.append(tuple(row))
        return tuple(out)

    structure = build_structure(p.sorts, p.ctx_sorts, p.bound, cells, act)

    def eval_map(s, ctx, rep_triple):
        """Evaluation on tensor((P<=Q), Q) classes: apply the family at ctx."""
        gp_entries, elem, env = rep_triple
        return family_lookup(s, Context(gp_entries), elem, ctx, env)

    def curry(b: FinStructure, f, tens: TensorResult):
        """Factor an elementwise map ``f(s, ctx, class) -> P`` through eval."""
        table = {}
        for s in p.sorts:
            for amb in contexts:
                inner = {}
                for x in b.cell(s, amb):
                    fam = []
                    for g in contexts:
                        row = []
                        for env in enumerate_envs(q, amb, g):
                            cls = tens.class_of(s, g, (amb.entries, x, env))
                            row.append(f(s, g, cls))
                        fam.append(tuple(row))
                    inner[x] = tuple(fam)
                table[(s, amb)] = inner
        return table

    return structure, eval_map, curry

