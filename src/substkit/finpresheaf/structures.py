"""Dense finite presheaves, the substitution tensor, and its mediators.

A :class:`FinStructure` stores one finite set of element labels per
(sort, context) cell, for every context up to a length bound, together with a
complete table of the contravariant renaming action.  The substitution tensor
is computed literally: raw (context, element, environment) triples quotiented
by a union-find closure over all generator pairs, one per enumerated renaming.

Inside :func:`tensor` everything goes by position.  Contexts are numbered by
their place in the enumeration, and the triples of a cell are numbered block
by block, so a triple number names a context, an element position and an
environment position.  The quotient gives each triple number the number of
its class representative.  Representatives are ordered by the ``repr`` of
their triples, assembled from one rendering per context, element and
environment.

What depends only on the right factor Q is built once per Q and left
alphabet, in a plan that Q keeps (:func:`_right_plan`): the environments and
their renderings, and every map of environments by position.  Environments
are products of Q-cells, so a renaming of the left contexts moves an
environment by position arithmetic, and a renaming of the ambient contexts
moves it by the positions of its entries' images, for which the plan reads
each entry of Q's action once.  Each tensor keeps the work that depends on
the left factor: its elements, their generator pairs, the union-find, the
representatives and the check that the action is well defined.
"""

from __future__ import annotations

import itertools
import math
from typing import Hashable, Iterable, Sequence

from ..sorts import (Context, Renaming, Sort, _maps, compose_renamings,
                     enumerate_contexts, enumerate_renamings, first,
                     identity_renaming)


class BoundExceeded(Exception):
    pass


class FinStructure:
    """An explicit presheaf: finite cells plus a total renaming-action table.

    ``_plans`` holds the plans of :func:`tensor` with this structure as its
    right factor, one per left alphabet.  A plan holds positions and tuples
    only, never a structure or a tensor, so it dies with the structure that
    owns it.  A plan is a reading of the cells and the action, so a structure
    is not mutated once it has been tensored.
    """

    def __init__(self, sorts: Sequence[Sort], ctx_sorts: Sequence[Hashable],
                 bound: int, cells: dict, action: dict):
        self.sorts = tuple(sorts)
        self.ctx_sorts = tuple(ctx_sorts)
        self.bound = bound
        self._contexts = enumerate_contexts(self.ctx_sorts, bound)
        self.cells = cells
        self.action = action
        self._plans = {}

    def contexts(self) -> list[Context]:
        return self._contexts

    def cell(self, sort: Sort, ctx: Context) -> tuple:
        return self.cells.get((sort, ctx), ())

    def act(self, sort: Sort, rho: Renaming, elem):
        return self.action[(rho.key(), sort, elem)]

    def renamings(self):
        for g1 in self._contexts:
            for g2 in self._contexts:
                yield from enumerate_renamings(g1, g2)

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
        for g1 in self._contexts:
            for g2 in self._contexts:
                for r1 in enumerate_renamings(g1, g2):
                    for g3 in self._contexts:
                        for r2 in enumerate_renamings(g2, g3):
                            comp = compose_renamings(r1, r2)
                            for s in self.sorts:
                                for q in self.cell(s, g3):
                                    if self.act(s, comp, q) != self.act(s, r1, self.act(s, r2, q)):
                                        raise ValueError(
                                            f"composition law fails at {s!r}, {q!r}")


def build_structure(sorts, ctx_sorts, bound, cells, act_fn) -> FinStructure:
    """Materialize the dense action table from an action function."""
    skeleton = FinStructure(sorts, ctx_sorts, bound, cells, {})
    action = {}
    for rho in skeleton.renamings():
        for s in skeleton.sorts:
            for x in cells.get((s, rho.target), ()):
                action[(rho.key(), s, x)] = act_fn(s, rho, x)
    return FinStructure(sorts, ctx_sorts, bound, cells, action)


def variables_structure(ctx_sorts: Sequence[Hashable], bound: int) -> FinStructure:
    """The presheaf of variables: positions of each sort, acted on by the map."""
    sorts = tuple(first(s) for s in ctx_sorts)
    cells = {}
    for ctx in enumerate_contexts(ctx_sorts, bound):
        for s in ctx_sorts:
            cells[(first(s), ctx)] = tuple(i for i, e in enumerate(ctx.entries) if e == s)
    return build_structure(sorts, ctx_sorts, bound, cells,
                           lambda s, rho, x: rho.mapping[x])


def terminal_structure(sorts: Sequence[Sort], ctx_sorts, bound: int) -> FinStructure:
    cells = {(s, ctx): ("*",) for s in sorts
             for ctx in enumerate_contexts(ctx_sorts, bound)}
    return build_structure(sorts, ctx_sorts, bound, cells, lambda s, rho, x: "*")


def empty_structure(sorts: Sequence[Sort], ctx_sorts, bound: int) -> FinStructure:
    cells = {(s, ctx): () for s in sorts
             for ctx in enumerate_contexts(ctx_sorts, bound)}
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
    contexts = enumerate_contexts(ctx_sorts, bound)
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
    cells = {}
    for s in sorts:
        for ctx in contexts:
            elems = []
            for (gs, home), labels in gens.items():
                if gs != s:
                    continue
                for g in labels:
                    for rho in enumerate_renamings(ctx, home):
                        elems.append((g, home.entries, rho.mapping))
            cells[(s, ctx)] = tuple(sorted(elems, key=repr))

    def act(s, tau, elem):
        # the position map of tau followed by the element's renaming, which
        # enumerate_renamings built and checked
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


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        # find, inlined twice: this is the tensor's innermost call
        parent = self.parent
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[j] = i


class TensorResult:
    """The substitution tensor of two structures with its quotient map.

    Cells of ``structure`` hold canonical representative triples
    ``(ctx_entries, element, environment)``; ``class_of`` resolves any raw
    triple to its representative.
    """

    def __init__(self, p: FinStructure, q: FinStructure, structure: FinStructure,
                 reps: dict, members: dict):
        self.p = p
        self.q = q
        self.structure = structure
        self._reps = reps
        self._members = members

    def class_of(self, sort: Sort, ctx: Context, triple):
        return self._reps[(sort, ctx, triple)]

    def members(self, sort: Sort, ctx: Context, rep) -> tuple:
        return self._members[(sort, ctx, rep)]


def _positions(columns) -> list[int]:
    """``sum(col[d] for col, d in zip(columns, digits))`` for every digit
    string, in ``itertools.product`` order: environments are products of
    cells, so a map of environments is a sum of one term per entry."""
    out = [0]
    for col in columns:
        out = [base + x for base in out for x in col]
    return out


class _RightPlan:
    """What every tensor with right factor ``q`` over one left alphabet needs
    of ``q``, by position; see :func:`_right_plan`."""

    __slots__ = ("envs", "env_reprs", "renamings", "taus", "__weakref__")

    def __init__(self, q: FinStructure, left_ctx_sorts: tuple):
        # a numbers G' in p_ctxs, c the ambient context in out_ctxs; e is an
        # entry of the alphabet, whose Q-cell over the ambient context is
        # q_cells[c][e]
        out_ctxs = q.contexts()
        p_ctxs = enumerate_contexts(left_ctx_sorts, q.bound)
        q_sort = {s.ident: s for s in q.sorts}
        q_cells = [{e: q.cell(qs, ctx) for e, qs in q_sort.items()} for ctx in out_ctxs]
        self.envs = [[list(itertools.product(*(q_cells[c][e] for e in gp.entries)))
                      for c in range(len(out_ctxs))] for gp in p_ctxs]
        # the repr of a triple is "(" + repr(entries) + ", " + repr(element) +
        # ", " + repr(env) + ")", so its parts are rendered once each, and an
        # environment from the reprs of its entries
        reprs = [{e: [repr(x) for x in cell] for e, cell in row.items()}
                 for row in q_cells]
        self.env_reprs = [
            [[", (" + ", ".join(parts) + ("," if len(gp) == 1 else "") + "))"
              for parts in itertools.product(*(reprs[c][e] for e in gp.entries))]
             for c in range(len(out_ctxs))] for gp in p_ctxs]
        # stride[a][c][i]: what a step of the i-th entry of an environment of
        # Env(G', ctx) adds to its position
        stride = [[[math.prod(len(row[e]) for e in gp.entries[i + 1:])
                    for i in range(len(gp))] for row in q_cells] for gp in p_ctxs]
        # (a1, a2, key, lands) per renaming rho from G2 into G1, where
        # lands[c][k] is the position in Env(G2, ctx) of env . rho for the
        # k-th environment env of Env(G1, ctx).  Entry y of env . rho is entry
        # rho(y) of env, so a step of entry i of env adds the strides of the
        # entries that rho sends to i.
        self.renamings = []
        for a1, g1 in enumerate(p_ctxs):
            for a2, g2 in enumerate(p_ctxs):
                for mapping in _maps(g1, g2):
                    lands = []
                    for c, row in enumerate(q_cells):
                        weight = [0] * len(g1)
                        for y, x in enumerate(mapping):
                            weight[x] += stride[a2][c][y]
                        lands.append(_positions([[d * w for d in range(len(row[e]))]
                                                 for e, w in zip(g1.entries, weight)]))
                    self.renamings.append((a1, a2, (g1.entries, g2.entries, mapping),
                                           lands))
        # (key, source, target, qmove) per renaming tau of the ambient
        # contexts: tau takes the k-th environment of Env(G', target) to the
        # qmove[a][k]-th one of Env(G', source).  Only this reads q.action,
        # once per entry.
        cell_pos = [{e: {x: i for i, x in enumerate(cell)} for e, cell in row.items()}
                    for row in q_cells]
        self.taus = []
        for cs, g1 in enumerate(out_ctxs):
            for ct, g2 in enumerate(out_ctxs):
                for mapping in _maps(g1, g2):
                    key = (g1.entries, g2.entries, mapping)
                    images = {e: [cell_pos[cs][e][q.action[(key, qs, x)]]
                                  for x in q_cells[ct][e]]
                              for e, qs in q_sort.items()}
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


def tensor(p: FinStructure, q: FinStructure) -> TensorResult:
    """The coend of ``P_s G' x Env Q G' G`` over the enumerated contexts."""
    if p.bound != q.bound:
        raise BoundExceeded("tensor factors must share the bound")
    want = {first(s) for s in p.ctx_sorts}
    if set(q.sorts) != want:
        raise ValueError("right tensor factor must be homogeneous over the left "
                         "factor's context alphabet")
    plan = _right_plan(q, p.ctx_sorts)
    envs, env_reprs = plan.envs, plan.env_reprs
    reps, members, cells = {}, {}, {}
    structure = FinStructure(p.sorts, q.ctx_sorts, p.bound, cells, {})
    out_ctxs, p_ctxs = structure.contexts(), p.contexts()
    # numbered[s][c]: the triples of the cell by number, the number of each
    # one's representative, and the classes in cell order as member numbers
    numbered = {}
    # lengths[s]: (a, |P_s G'|) for each G' where P_s is not empty
    lengths = {}
    for s in p.sorts:
        p_cells = [p.cell(s, gp) for gp in p_ctxs]
        lengths[s] = [(a, len(cell)) for a, cell in enumerate(p_cells) if cell]
        elem_pos = [{t: i for i, t in enumerate(cell)} for cell in p_cells]
        elem_reprs = [["(" + repr(gp.entries) + ", " + repr(t) for t in cell]
                      for gp, cell in zip(p_ctxs, p_cells)]
        # each generator pair: (G1, rho t, env) ~ (G2, t, env . rho), as the
        # positions of rho t in P_s G1 and of t in P_s G2
        moves = [(a1, a2, land, [(elem_pos[a1][p.action[(key, s, t)]], i)
                                 for i, t in enumerate(p_cells[a2])])
                 for a1, a2, key, land in plan.renamings if p_cells[a2]]
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
            uf = _UnionFind(n)
            union = uf.union
            for a1, a2, land, pairs in moves:
                land = land[c]
                o1, w1, o2, w2 = offset[a1], width[a1], offset[a2], width[a2]
                for i1, i2 in pairs:
                    b1, b2 = o1 + i1 * w1, o2 + i2 * w2
                    for k, j in enumerate(land):
                        union(b1 + k, b2 + j)
            find = uf.find
            groups: dict = {}
            for i in range(n):
                groups.setdefault(find(i), []).append(i)
            order = [e + v for es, rows in zip(elem_reprs, env_reprs)
                     for e in es for v in rows[c]]
            rep_of = [0] * n
            classes = []
            for grp in groups.values():
                # stable, so the head is what min(grp, key=repr) would pick
                ordered = sorted(grp, key=order.__getitem__)
                head = ordered[0]
                rep = triples[head]
                for i in grp:
                    reps[(s, ctx, triples[i])] = rep
                    rep_of[i] = head
                members[(s, ctx, rep)] = tuple(triples[i] for i in ordered)
                classes.append(ordered)
            classes.sort(key=lambda ordered: order[ordered[0]])
            cells[(s, ctx)] = tuple(triples[cls[0]] for cls in classes)
            by_ctx.append((triples, rep_of, classes))

    # tau moves a class by moving its environment: the i-th element with the
    # k-th environment of Env(G', target) goes to the i-th element with the
    # qmove[G'][k]-th environment of Env(G', source).  The representative heads
    # its members and sets the image, which every member must reach.
    action = structure.action
    for key, cs, ct, qmove in plan.taus:
        for s in p.sorts:
            triples, _, classes = numbered[s][ct]
            if not classes:
                continue
            src_triples, src_rep, _ = numbered[s][cs]
            # got[m]: the representative number of tau applied to triple m
            got, base = [], 0
            for a, count in lengths[s]:
                width, move = len(envs[a][cs]), qmove[a]
                for _ in range(count):
                    got += [src_rep[base + j] for j in move]
                    base += width
            for ordered in classes:
                image = got[ordered[0]]
                for m in ordered:
                    if got[m] != image:
                        tau = Renaming(out_ctxs[cs], out_ctxs[ct], key[2])
                        raise ValueError(
                            f"tensor action not well-defined at {s!r} {tau!r}: "
                            f"{triples[m]!r} -> {src_triples[got[m]]!r} != "
                            f"{src_triples[image]!r}")
                action[(key, s, triples[ordered[0]])] = src_triples[image]
    return TensorResult(p, q, structure, reps, members)


def truncate_structure(p: FinStructure, bound: int) -> FinStructure:
    """Restrict a structure to contexts within a smaller bound."""
    if bound > p.bound:
        raise BoundExceeded("cannot truncate upwards")
    keep = set(enumerate_contexts(p.ctx_sorts, bound))
    cells = {(s, c): e for (s, c), e in p.cells.items() if c in keep}
    action = {k: v for k, v in p.action.items()
              if Context(k[0][0]) in keep and Context(k[0][1]) in keep}
    return FinStructure(p.sorts, p.ctx_sorts, bound, cells, action)


def shift_structure(p: FinStructure, binder: Context) -> FinStructure:
    """Scope shift: the cell at G is P's cell at G ++ binder."""
    if len(binder) > p.bound:
        raise BoundExceeded("binder longer than the bound")
    bound = p.bound - len(binder)
    cells = {}
    for ctx in enumerate_contexts(p.ctx_sorts, bound):
        ext = Context(ctx.entries + binder.entries)
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

