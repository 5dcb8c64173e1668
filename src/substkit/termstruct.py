"""The term structure loaded as a finite presheaf, and the three motivating
coend identifications.

Cells are the renaming closure of a handful of seed terms over bounded
contexts, with renaming as the action; the tensor of this structure with its
first-class fragment then realizes the (term, environment) pairing that
substitution consumes, and the three identifications -- duplicate assignments
versus merged variables, unused entries versus weakening, permuted entries
versus permuted variables -- land in equal quotient classes.
"""

from __future__ import annotations

from .cbv.ops import CbvOperatorTable
from .cbv.types import Base, config, fun
from .finpresheaf.structures import (FinStructure, _contexts, build_structure,
                                     enumerate_renamings)
from .sorts import Context, Renaming, first, second
from .terms import Op, Var, rename

B = Base("b")
FB = fun(B, B)


def _compose_lam(table: CbvOperatorTable, ctx: Context, f_pos: int, g_pos: int):
    """``fn x: b . (val f) ((val g) (val x))`` with f, g at the given positions."""
    inner = ctx.extend(Context((B,)))
    f = Op(table.val(FB), inner, [Var(inner, f_pos)])
    g = Op(table.val(FB), inner, [Var(inner, g_pos)])
    x = Op(table.val(B), inner, [Var(inner, len(ctx))])
    gx = Op(table.app(B, B), inner, [g, x])
    return Op(table.lam(B, B), ctx, [Op(table.app(B, B), inner, [f, gx])])


def _seed_terms(table: CbvOperatorTable):
    """Terms and values the identifications mention, with their home contexts."""
    two_fb = Context((FB, FB))
    one_fb = Context((FB,))
    seeds = [
        _compose_lam(table, two_fb, 0, 1),          # fn x. f (g x)
        _compose_lam(table, one_fb, 0, 0),          # fn x. h (h x)
    ]
    # fn x: b . val z  over [z: b]
    zctx = Context((B,))
    inner = Context((B, B))
    seeds.append(Op(table.lam(B, B), zctx,
                    [Op(table.val(B), inner, [Var(inner, 0)])]))
    # identity function value  fn x: b . val x  (closed)
    closed = Context(())
    inner0 = Context((B,))
    seeds.append(Op(table.lam(B, B), closed,
                    [Op(table.val(B), inner0, [Var(inner0, 0)])]))
    # fn z: b . (val k) (val z)  over [k: fb, y: b]
    kctx = Context((FB, B))
    innerk = Context((FB, B, B))
    kv = Op(table.val(FB), innerk, [Var(innerk, 0)])
    zv = Op(table.val(B), innerk, [Var(innerk, 2)])
    seeds.append(Op(table.lam(B, B), kctx,
                    [Op(table.app(B, B), innerk, [kv, zv])]))
    # variables of each sort at singleton contexts
    seeds.append(Var(Context((B,)), 0))
    seeds.append(Var(Context((FB,)), 0))
    # a computation seed so the second-class cells are not empty
    seeds.append(Op(table.val(B), zctx, [Var(zctx, 0)]))
    return seeds


def cbv_term_structure(bound: int = 2):
    """The renaming closure of the seeds as an explicit presheaf, plus its
    homogeneous (first-class) fragment, over the alphabet {b, b -> b}."""
    cfg = config(("functions", "sequential"), ("b",))
    table = CbvOperatorTable(cfg)
    alphabet = (B, FB)
    contexts = _contexts(alphabet, bound)
    cells: dict = {}
    for t in _seed_terms(table):
        if t.ctx not in contexts:
            raise ValueError(f"seed context {t.ctx!r} outside the bound")
        for g1 in contexts:
            for rho in enumerate_renamings(g1, t.ctx):
                img = rename(t, rho)
                cells.setdefault((img.sort, g1), set()).add(img)
    sorts = tuple(first(s) for s in alphabet) + tuple(second(s) for s in alphabet)
    dense = {(s, ctx): tuple(sorted(cells.get((s, ctx), ()), key=repr))
             for s in sorts for ctx in contexts}
    structure = build_structure(sorts, alphabet, bound, dense,
                                lambda s, rho, t: rename(t, rho))
    fragment = FinStructure(tuple(first(s) for s in alphabet), alphabet, bound,
                            {k: v for k, v in dense.items() if k[0].is_first},
                            {k: v for k, v in structure.action.items()
                             if k[1].is_first})
    return structure, fragment, table


def motivating_identifications(table: CbvOperatorTable):
    """The three identification instances: (sort, ambient ctx, left, right)."""
    two_fb = Context((FB, FB))
    one_fb = Context((FB,))
    amb = Context((FB, B))            # [k: b -> b, y: b]

    # the value assigned to both variables: fn z: b . (val k) (val z)
    innerk = Context((FB, B, B))
    kv = Op(table.val(FB), innerk, [Var(innerk, 0)])
    zv = Op(table.val(B), innerk, [Var(innerk, 2)])
    v = Op(table.lam(B, B), amb, [Op(table.app(B, B), innerk, [kv, zv])])

    ident1 = (first(FB), amb,
              (one_fb.entries, _compose_lam(table, one_fb, 0, 0), (v,)),
              (two_fb.entries, _compose_lam(table, two_fb, 0, 1), (v, v)))

    # weakening: [fn x. val z, <f: id, z: y>] = [fn x. val z, <z: y>] over [y: b]
    amb2 = Context((B,))
    zctx = Context((B,))
    fzctx = Context((FB, B))

    def lam_z(ctx, z_pos):
        inner = ctx.extend(Context((B,)))
        return Op(table.lam(B, B), ctx,
                  [Op(table.val(B), inner, [Var(inner, z_pos)])])

    inner0 = Context((B, B))
    identity_fn = Op(table.lam(B, B), amb2,
                     [Op(table.val(B), inner0, [Var(inner0, 1)])])
    y = Var(amb2, 0)
    ident2 = (first(FB), amb2,
              (zctx.entries, lam_z(zctx, 0), (y,)),
              (fzctx.entries, lam_z(fzctx, 1), (identity_fn, y)))

    # permutation: [fn x. f (g x), <f: id, g: k>] = [fn x. g (f x), <f: k, g: id>]
    amb3 = Context((FB,))
    inner3 = Context((FB, B))
    id3 = Op(table.lam(B, B), amb3,
             [Op(table.val(B), inner3, [Var(inner3, 1)])])
    k3 = Var(amb3, 0)
    swapped = rename(_compose_lam(table, two_fb, 0, 1),
                     _swap_renaming(two_fb))
    ident3 = (first(FB), amb3,
              (two_fb.entries, _compose_lam(table, two_fb, 0, 1), (id3, k3)),
              (two_fb.entries, swapped, (k3, id3)))
    return [ident1, ident2, ident3]


def _swap_renaming(ctx: Context):
    return Renaming(ctx, ctx, (1, 0))
