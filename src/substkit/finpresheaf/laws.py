"""Mediators and the actegory, pointed-tensor, and skew-monoidal law checks.

Everything here is elementwise: a mediator is a per-cell dictionary between
two finite structures, and each axiom is verified on every quotient class the
bounded enumeration produces.  The axioms are theorems for a correct engine,
so any failure reports a concrete witness element.  A mediator reads the
factors it maps from or into off the tensors it is given (``tens.p`` and
``tens.q``), so a caller passes each structure once.  A law check tensors each
pair of structure objects once, in a :class:`TensorTable` its laws share and
that it drops when it returns.
"""

from __future__ import annotations

from ..report import Report
from ..sorts import Context, Renaming, Sort, first, second
from .structures import (FinStructure, TensorResult, empty_structure,
                         free_structure, shift_structure, tensor,
                         terminal_structure, truncate_structure,
                         variables_structure)


class TensorTable:
    """The tensors and variable structures of one law check, each built once.

    A tensor is keyed on the identities of its two operands and stored with
    them, so neither id can be reused while the table lives.  ``tensor`` is
    looked up in this module when it is called, so a rebinding of
    ``laws.tensor`` sees every tensor the table computes.
    """

    def __init__(self):
        self._tensors = {}
        self._nus = {}

    def __call__(self, p: FinStructure, q: FinStructure) -> TensorResult:
        hit = self._tensors.get((id(p), id(q)))
        if hit is None:
            hit = self._tensors[(id(p), id(q))] = (p, q, tensor(p, q))
        return hit[2]

    def nu(self, ctx_sorts, bound: int) -> FinStructure:
        key = (tuple(ctx_sorts), bound)
        if key not in self._nus:
            self._nus[key] = variables_structure(ctx_sorts, bound)
        return self._nus[key]


class StructMap:
    """An elementwise map between structures indexed by the same (sort, ctx) grid."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: FinStructure, target: FinStructure, table: dict):
        self.source = source
        self.target = target
        self.table = table  # (sort, ctx) -> {elem: elem}

    def apply(self, sort: Sort, ctx: Context, elem):
        return self.table[(sort, ctx)][elem]

    def then(self, other: "StructMap") -> "StructMap":
        table = {key: {x: other.table[key][y] for x, y in inner.items()}
                 for key, inner in self.table.items()}
        return StructMap(self.source, other.target, table)

    def naturality_witness(self) -> str | None:
        for rho in self.source.renamings():
            for s in self.source.sorts:
                for x in self.source.cell(s, rho.target):
                    lhs = self.target.act(s, rho, self.apply(s, rho.target, x))
                    rhs = self.apply(s, rho.source, self.source.act(s, rho, x))
                    if lhs != rhs:
                        return f"naturality fails at {s!r} {rho!r} on {x!r}"
        return None

    def bijectivity_witness(self) -> str | None:
        for s in self.source.sorts:
            for ctx in self.source.contexts():
                src = self.source.cell(s, ctx)
                image = [self.apply(s, ctx, x) for x in src]
                if len(set(image)) != len(src) or set(image) != set(self.target.cell(s, ctx)):
                    return f"not a bijection at {s!r} {ctx!r}"
        return None


def map_cells(src: FinStructure, tgt: FinStructure, fn) -> StructMap:
    table = {}
    for s in src.sorts:
        for ctx in src.contexts():
            table[(s, ctx)] = {x: fn(s, ctx, x) for x in src.cell(s, ctx)}
    return StructMap(src, tgt, table)


def identity_map(p: FinStructure) -> StructMap:
    return map_cells(p, p, lambda s, c, x: x)


def maps_equal(f: StructMap, g: StructMap) -> str | None:
    for key, inner in f.table.items():
        for x, y in inner.items():
            if g.table[key][x] != y:
                s, ctx = key
                return (f"maps differ at {s!r} {ctx!r} on {x!r}: "
                        f"{y!r} vs {g.table[key][x]!r}")
    return None


# --- the three mediators -----------------------------------------------------

def left_unitor_map(tens: TensorResult) -> StructMap:
    """l[x, e] = e_x on classes of (variables tensor Q), into Q."""
    def fn(s, ctx, rep):
        _gp, x, env = rep
        return env[x]
    return map_cells(tens.structure, tens.q, fn)


def right_unitor_map(tens: TensorResult) -> StructMap:
    """r[t, e] = t acted on by the renaming the variable environment encodes,
    on classes of (P tensor variables), into P."""
    p = tens.p
    by_entries = {c.entries: c for c in p.contexts()}

    def fn(s, ctx, rep):
        gp_entries, t, env = rep
        rho = Renaming(ctx, by_entries[gp_entries], env)
        return p.act(s, rho, t)
    return map_cells(tens.structure, p, fn)


def right_unitor_inv(tens: TensorResult) -> StructMap:
    """t |-> [t, identity variable environment], from P into (P tensor
    variables)."""
    def fn(s, ctx, t):
        return tens.class_of(s, ctx, (ctx.entries, t, tuple(range(len(ctx)))))
    return map_cells(tens.p, tens.structure, fn)


def associator_map(t_ab_c: TensorResult, t_bc: TensorResult,
                   t_a_bc: TensorResult) -> StructMap:
    """a[[p, q], e] = [p, <[q_x, e]>_x] reassociating ((A x B) x C) classes.

    A class of ``t_ab_c`` carries the representative of its inner (A x B)
    class, so the tensor A x B itself is not read."""
    def fn(s, ctx, rep):
        g1_entries, ab_rep, env = rep
        g0_entries, a_elem, b_env = ab_rep
        inner = tuple(
            t_bc.class_of(first(e), ctx, (g1_entries, b_env[x], env))
            for x, e in enumerate(g0_entries))
        return t_a_bc.class_of(s, ctx, (g0_entries, a_elem, inner))
    return map_cells(t_ab_c.structure, t_a_bc.structure, fn)


def tensor_left_map(fmap: StructMap, tens_src: TensorResult,
                    tens_tgt: TensorResult) -> StructMap:
    """``f tensor id``: map the left component of every class."""
    by_entries = {c.entries: c for c in fmap.source.contexts()}

    def fn(s, ctx, rep):
        gp_entries, t, env = rep
        return tens_tgt.class_of(
            s, ctx, (gp_entries, fmap.apply(s, by_entries[gp_entries], t), env))
    return map_cells(tens_src.structure, tens_tgt.structure, fn)


def tensor_right_map(gmap: StructMap, tens_src: TensorResult,
                     tens_tgt: TensorResult) -> StructMap:
    """``id tensor g``: map every environment entry."""
    def fn(s, ctx, rep):
        gp_entries, t, env = rep
        moved = tuple(gmap.apply(first(se), ctx, e)
                      for se, e in zip(gp_entries, env))
        return tens_tgt.class_of(s, ctx, (gp_entries, t, moved))
    return map_cells(tens_src.structure, tens_tgt.structure, fn)


# --- actegory axioms ----------------------------------------------------------

def action_pentagon_witness(p: FinStructure, q: FinStructure, l: FinStructure,
                            z: FinStructure,
                            tensors: TensorTable | None = None) -> str | None:
    """Both reassociation routes ((P*Q)*L)*Z -> P*(Q*(L*Z)) must agree."""
    tensors = tensors or TensorTable()
    t_pq = tensors(p, q)
    t_ql = tensors(q, l)
    t_lz = tensors(l, z)
    t_pq_l = tensors(t_pq.structure, l)
    t_pq_l_z = tensors(t_pq_l.structure, z)
    t_pq_lz = tensors(t_pq.structure, t_lz.structure)
    t_q_lz = tensors(q, t_lz.structure)
    t_p_q_lz = tensors(p, t_q_lz.structure)
    t_p_ql = tensors(p, t_ql.structure)
    t_p_ql_z = tensors(t_p_ql.structure, z)
    t_ql_z = tensors(t_ql.structure, z)
    t_p_qlz = tensors(p, t_ql_z.structure)

    route1 = associator_map(t_pq_l_z, t_lz, t_pq_lz).then(
        associator_map(t_pq_lz, t_q_lz, t_p_q_lz))

    alpha_pql = associator_map(t_pq_l, t_ql, t_p_ql)
    alpha_mon = associator_map(t_ql_z, t_lz, t_q_lz)
    route2 = tensor_left_map(alpha_pql, t_pq_l_z, t_p_ql_z).then(
        associator_map(t_p_ql_z, t_ql_z, t_p_qlz)).then(
        tensor_right_map(alpha_mon, t_p_qlz, t_p_q_lz))
    return maps_equal(route1, route2)


def action_triangle_witness(p: FinStructure, q: FinStructure,
                            tensors: TensorTable | None = None) -> str | None:
    """(P * nu) * Q --a--> P * (nu x Q) --id*l--> P * Q equals r * id."""
    tensors = tensors or TensorTable()
    nu = tensors.nu(q.ctx_sorts, q.bound)
    t_pnu = tensors(p, nu)
    t_nuq = tensors(nu, q)
    t_pnu_q = tensors(t_pnu.structure, q)
    t_p_nuq = tensors(p, t_nuq.structure)
    t_pq = tensors(p, q)

    alpha = associator_map(t_pnu_q, t_nuq, t_p_nuq)
    lam = left_unitor_map(t_nuq)
    lhs = alpha.then(tensor_right_map(lam, t_p_nuq, t_pq))
    rhs = tensor_left_map(right_unitor_map(t_pnu), t_pnu_q, t_pq)
    return maps_equal(lhs, rhs)


def action_unit_triangle_witness(p: FinStructure, q: FinStructure,
                                 tensors: TensorTable | None = None
                                 ) -> str | None:
    """(P * Q) * nu --a--> P * (Q x nu) --id*r--> P * Q equals r on (P * Q)."""
    tensors = tensors or TensorTable()
    nu = tensors.nu(q.ctx_sorts, q.bound)
    t_pq = tensors(p, q)
    t_pq_nu = tensors(t_pq.structure, nu)
    t_qnu = tensors(q, nu)
    t_p_qnu = tensors(p, t_qnu.structure)

    alpha = associator_map(t_pq_nu, t_qnu, t_p_qnu)
    runit_q = right_unitor_map(t_qnu)
    lhs = alpha.then(tensor_right_map(runit_q, t_p_qnu, t_pq))
    rhs = right_unitor_map(t_pq_nu)
    return maps_equal(lhs, rhs)


def check_action_axioms(p: FinStructure, q: FinStructure, l: FinStructure,
                        report: Report | None = None,
                        suite: str = "action") -> Report:
    """Mediator naturality/bijectivity and the action pentagon and triangles."""
    rep = report if report is not None else Report()
    tensors = TensorTable()
    nu = tensors.nu(q.ctx_sorts, q.bound)

    t_pq = tensors(p, q)
    t_ql = tensors(q, l)
    t_pq_l = tensors(t_pq.structure, l)
    t_p_ql = tensors(p, t_ql.structure)
    alpha = associator_map(t_pq_l, t_ql, t_p_ql)
    w = alpha.naturality_witness()
    rep.record(suite, "associator natural", w is None, w)
    w = alpha.bijectivity_witness()
    rep.record(suite, "associator bijective", w is None, w)

    t_pnu = tensors(p, nu)
    runit = right_unitor_map(t_pnu)
    w = runit.naturality_witness()
    rep.record(suite, "right unitor natural", w is None, w)
    w = runit.bijectivity_witness()
    rep.record(suite, "right unitor bijective", w is None, w)
    w = maps_equal(right_unitor_inv(t_pnu).then(runit), identity_map(p))
    rep.record(suite, "right unitor inverse", w is None, w)

    t_nuq = tensors(nu, q)
    lam = left_unitor_map(t_nuq)
    w = lam.naturality_witness()
    rep.record(suite, "left unitor natural (homogeneous)", w is None, w)
    w = lam.bijectivity_witness()
    rep.record(suite, "left unitor bijective (homogeneous)", w is None, w)

    w = action_triangle_witness(p, q, tensors)
    rep.record(suite, "action triangle", w is None, w)
    w = action_unit_triangle_witness(p, q, tensors)
    rep.record(suite, "action unit triangle", w is None, w)
    w = action_pentagon_witness(p, q, l, q, tensors)
    rep.record(suite, "action pentagon", w is None, w)
    return rep


# --- pointed structures ---------------------------------------------------------

class PointedStructure:
    __slots__ = ("structure", "point")

    def __init__(self, structure: FinStructure, point: dict):
        self.structure = structure
        self.point = point  # (sort_ident, ctx, position) -> element

    def var(self, sort_ident, ctx: Context, position: int):
        return self.point[(sort_ident, ctx, position)]

    def point_natural_witness(self) -> str | None:
        st = self.structure
        for rho in st.renamings():
            for pos in range(len(rho.target)):
                s = rho.target.sort_at(pos)
                lhs = st.act(first(s), rho, self.var(s, rho.target, pos))
                rhs = self.var(s, rho.source, rho.mapping[pos])
                if lhs != rhs:
                    return f"point not natural at {rho!r} position {pos}"
        return None


def pointed_variables(ctx_sorts, bound) -> PointedStructure:
    nu = variables_structure(ctx_sorts, bound)
    point = {}
    for ctx in nu.contexts():
        for pos, s in enumerate(ctx.entries):
            point[(s, ctx, pos)] = pos
    return PointedStructure(nu, point)


def pointed_free(rng, ctx_sorts, bound) -> PointedStructure:
    """A random pointed structure; the Yoneda element at each singleton
    context determines the point."""
    sorts = tuple(first(s) for s in ctx_sorts)
    ensure = [(first(s), Context((s,))) for s in ctx_sorts]
    st = free_structure(rng, sorts, ctx_sorts, bound, ensure=ensure)
    chosen = {s: rng.choice(st.cell(first(s), Context((s,)))) for s in ctx_sorts}
    point = {}
    for ctx in st.contexts():
        for pos, s in enumerate(ctx.entries):
            proj = Renaming(ctx, Context((s,)), (pos,))
            point[(s, ctx, pos)] = st.act(first(s), proj, chosen[s])
    return PointedStructure(st, point)


def pointed_tensor_point(a: PointedStructure, b: PointedStructure,
                         tens: TensorResult) -> dict:
    """Split the variable and interpret both halves: the tensored point."""
    point = {}
    for ctx in a.structure.contexts():
        for pos, s in enumerate(ctx.entries):
            env = tuple(b.var(sy, ctx, y) for y, sy in enumerate(ctx.entries))
            point[(s, ctx, pos)] = tens.class_of(
                first(s), ctx, (ctx.entries, a.var(s, ctx, pos), env))
    return point


def check_pointed_tensor(a: PointedStructure, b: PointedStructure,
                         report: Report | None = None,
                         suite: str = "pointed") -> Report:
    rep = report if report is not None else Report()
    tensors = TensorTable()
    for name, ps in (("left factor", a), ("right factor", b)):
        w = ps.point_natural_witness()
        rep.record(suite, f"point of {name} natural", w is None, w)

    tens = tensors(a.structure, b.structure)
    tensored = PointedStructure(tens.structure, pointed_tensor_point(a, b, tens))
    w = tensored.point_natural_witness()
    rep.record(suite, "tensored point natural", w is None, w)

    ok, witness = True, None
    for ctx in a.structure.contexts():
        for pos, s in enumerate(ctx.entries):
            single = Context((s,))
            proj = Renaming(ctx, single, (pos,))
            via_single = tens.structure.act(first(s), proj,
                                            tensored.var(s, single, 0))
            if via_single != tensored.var(s, ctx, pos):
                ok, witness = False, f"at {ctx!r} position {pos}"
    rep.record(suite, "tensored point agrees with its Yoneda image", ok, witness)

    nu = pointed_variables(a.structure.ctx_sorts, a.structure.bound)
    t_nub = tensors(nu.structure, b.structure)
    lu = left_unitor_map(t_nub)
    nb = pointed_tensor_point(nu, b, t_nub)
    ok, witness = True, None
    for (s, ctx, pos), cls in nb.items():
        if lu.apply(first(s), ctx, cls) != b.var(s, ctx, pos):
            ok, witness = False, f"left unitor breaks the point at {ctx!r}#{pos}"
    rep.record(suite, "left unitor preserves points", ok, witness)
    w = lu.bijectivity_witness()
    rep.record(suite, "left unitor on variables bijective", w is None, w)

    t_anu = tensors(a.structure, nu.structure)
    ru = right_unitor_map(t_anu)
    an = pointed_tensor_point(a, nu, t_anu)
    ok, witness = True, None
    for (s, ctx, pos), cls in an.items():
        if ru.apply(first(s), ctx, cls) != a.var(s, ctx, pos):
            ok, witness = False, f"right unitor breaks the point at {ctx!r}#{pos}"
    rep.record(suite, "right unitor preserves points", ok, witness)

    t_ab_b = tensors(tens.structure, b.structure)
    t_bb = tensors(b.structure, b.structure)
    t_a_bb = tensors(a.structure, t_bb.structure)
    alpha = associator_map(t_ab_b, t_bb, t_a_bb)
    abb = pointed_tensor_point(tensored, b, t_ab_b)
    bb = PointedStructure(t_bb.structure, pointed_tensor_point(b, b, t_bb))
    a_bb = pointed_tensor_point(a, bb, t_a_bb)
    ok, witness = True, None
    for key, cls in abb.items():
        s, ctx, pos = key
        if alpha.apply(first(s), ctx, cls) != a_bb[key]:
            ok, witness = False, f"associator breaks the point at {ctx!r}#{pos}"
    rep.record(suite, "associator preserves points", ok, witness)
    return rep


# --- skew monoidal structure on (monoid part, acted part) pairs -------------------

class PairObject:
    """An object of the combined category over one sorting system: a
    homogeneous part and a second-class-sorted part."""

    __slots__ = ("mon", "act")

    def __init__(self, mon: FinStructure, act: FinStructure):
        self.mon = mon
        self.act = act


def kneut_pair(fst_ids, snd_ids, bound: int) -> PairObject:
    return PairObject(variables_structure(fst_ids, bound),
                      empty_structure(tuple(second(s) for s in snd_ids), fst_ids, bound))


def check_skew(fst_ids, snd_ids, bound: int, pairs: list[PairObject],
               report: Report | None = None, suite: str = "skew") -> Report:
    """The five skew axioms, checked componentwise on both halves of each pair,
    plus the left-unitor non-invertibility witness."""
    rep = report if report is not None else Report()
    p = pairs[0]
    q = pairs[1 % len(pairs)]
    r = pairs[2 % len(pairs)]
    s4 = pairs[3 % len(pairs)]
    tensors = TensorTable()
    nu = tensors.nu(fst_ids, bound)

    # (1) pentagon, both components
    w = action_pentagon_witness(p.mon, q.mon, r.mon, s4.mon, tensors)
    rep.record(suite, "skew pentagon (monoid part)", w is None, w)
    w = action_pentagon_witness(p.act, q.mon, r.mon, s4.mon, tensors)
    rep.record(suite, "skew pentagon (acted part)", w is None, w)

    # (2) left axiom.  Monoid part: (nu x b) x c --a--> nu x (b x c) --l--> b x c
    # equals l x id.  Acted part: the source is the empty structure, so the
    # axiom holds iff those cells are empty.
    t_nb = tensors(nu, q.mon)
    t_nb_c = tensors(t_nb.structure, r.mon)
    t_bc = tensors(q.mon, r.mon)
    t_n_bc = tensors(nu, t_bc.structure)
    alpha = associator_map(t_nb_c, t_bc, t_n_bc)
    lhs = alpha.then(left_unitor_map(t_n_bc))
    rhs = tensor_left_map(left_unitor_map(t_nb), t_nb_c, t_bc)
    w = maps_equal(lhs, rhs)
    rep.record(suite, "skew left axiom (monoid part)", w is None, w)
    empt = empty_structure(tuple(p.act.sorts), fst_ids, bound)
    t_eb = tensors(empt, q.mon)
    t_eb_c = tensors(t_eb.structure, r.mon)
    nonempty = [key for key, cell in t_eb_c.structure.cells.items() if cell]
    rep.record(suite, "skew left axiom (acted part: empty source)",
               not nonempty, f"nonempty cells {nonempty!r}" if nonempty else None)

    # (3) right axiom: r' then a equals id x r' on p x q.
    for name, part in (("monoid", (p.mon, q.mon)), ("acted", (p.act, q.mon))):
        x, b = part
        t_xb = tensors(x, b)
        t_xb_nu = tensors(t_xb.structure, nu)
        t_bnu = tensors(b, nu)
        t_x_bnu = tensors(x, t_bnu.structure)
        alpha = associator_map(t_xb_nu, t_bnu, t_x_bnu)
        lhs = right_unitor_inv(t_xb_nu).then(alpha)
        rhs = tensor_right_map(right_unitor_inv(t_bnu), t_xb, t_x_bnu)
        w = maps_equal(lhs, rhs)
        rep.record(suite, f"skew right axiom ({name} part)", w is None, w)

    # (4) rectangle: (r' x id);a;(id x l) = id on p x q.
    for name, part in (("monoid", (p.mon, q.mon)), ("acted", (p.act, q.mon))):
        x, b = part
        t_xb = tensors(x, b)
        t_xnu = tensors(x, nu)
        t_xnu_b = tensors(t_xnu.structure, b)
        t_nub = tensors(nu, b)
        t_x_nub = tensors(x, t_nub.structure)
        step1 = tensor_left_map(right_unitor_inv(t_xnu), t_xb, t_xnu_b)
        alpha = associator_map(t_xnu_b, t_nub, t_x_nub)
        step3 = tensor_right_map(left_unitor_map(t_nub), t_x_nub, t_xb)
        w = maps_equal(step1.then(alpha).then(step3), identity_map(t_xb.structure))
        rep.record(suite, f"skew rectangle ({name} part)", w is None, w)

    # (5) unit triangle: r' then l = id on the unit (acted part is empty).
    t_nn = tensors(nu, nu)
    w = maps_equal(right_unitor_inv(t_nn).then(left_unitor_map(t_nn)),
                   identity_map(nu))
    rep.record(suite, "skew unit triangle", w is None, w)

    # non-invertibility witness: (kNeut * top) is empty at second-class sorts
    # while top itself is a singleton there.
    top_pair = PairObject(
        terminal_structure(tuple(first(s) for s in fst_ids), fst_ids, bound),
        terminal_structure(tuple(second(s) for s in snd_ids), fst_ids, bound))
    kn = kneut_pair(fst_ids, snd_ids, bound)
    t_top = tensors(kn.act, top_pair.mon)
    ok, witness = True, None
    for s in kn.act.sorts:
        for ctx in t_top.structure.contexts():
            got = len(t_top.structure.cell(s, ctx))
            want_top = len(top_pair.act.cell(s, ctx))
            if got != 0 or want_top != 1:
                ok, witness = False, f"at {s!r} {ctx!r}: |kNeut*top|={got}, |top|={want_top}"
    rep.record(suite,
               "left unitor not invertible: (kNeut * top) empty at second-class "
               "sorts, top a singleton", ok, witness)
    return rep


# --- the routed (scope shift) strength on the finite engine ----------------------

def shift_map(m: StructMap, binder: Context) -> StructMap:
    """Apply a map under the scope-shift functor: reuse it at extended contexts."""
    src = shift_structure(m.source, binder)
    tgt = shift_structure(m.target, binder)
    table = {}
    for s in src.sorts:
        for ctx in src.contexts():
            ext = ctx.extend(binder)
            table[(s, ctx)] = dict(m.table[(s, ext)])
    return StructMap(src, tgt, table)


def shift_strength_map(binder: Context, a: PointedStructure, pa: TensorResult,
                       lhs: TensorResult, resolve=None) -> StructMap:
    """The strength of the scope-shift functor: weaken the environment into the
    extended context and bind the fresh positions to their variable images.

    ``pa`` is ``tensor(x, a.structure)`` at the full bound; ``lhs`` is
    ``tensor(shift(x), truncate(a))``; ``resolve`` canonicalizes truncated
    environment entries into elements of ``a.structure`` when they differ
    (they do when ``a`` is itself a tensor computed at the smaller bound).
    """
    a_str = a.structure

    def fn(s, ctx, rep):
        gpe, t, env = rep
        ext = ctx.extend(binder)
        pi1 = Renaming(ext, ctx, range(len(ctx)))
        entries = []
        for sort_id, e in zip(gpe, env):
            se = first(sort_id)
            cls = resolve(se, ctx, e) if resolve else e
            entries.append(a_str.act(se, pi1, cls))
        for j, sb in enumerate(binder.entries):
            entries.append(a.var(sb, ext, len(ctx) + j))
        return pa.class_of(s, ext, (gpe + binder.entries, t, tuple(entries)))

    return map_cells(lhs.structure, shift_structure(pa.structure, binder), fn)


def check_shift_strength(x: FinStructure, binder: Context, a: PointedStructure,
                         b: PointedStructure, report: Report | None = None,
                         suite: str = "strength") -> Report:
    """Naturality, triangle, and pentagon for the scope-shift strength."""
    rep = report if report is not None else Report()
    tensors = TensorTable()
    bound = x.bound
    base = bound - len(binder)
    fx = shift_structure(x, binder)
    a_tr = truncate_structure(a.structure, base)
    b_tr = truncate_structure(b.structure, base)

    t_fx_a = tensors(fx, a_tr)
    pa_a = tensors(x, a.structure)
    sig_a = shift_strength_map(binder, a, pa_a, t_fx_a)
    w = sig_a.naturality_witness()
    rep.record(suite, "shift strength natural", w is None, w)

    # empty binder: the strength is the identity transformer
    t_x_a_tr = tensors(truncate_structure(x, base), a_tr)
    sig_empty = shift_strength_map(Context(()), PointedStructure(a_tr, a.point),
                                   t_x_a_tr, t_x_a_tr)
    w = maps_equal(sig_empty, identity_map(t_x_a_tr.structure))
    rep.record(suite, "empty binder strength is the identity", w is None, w)

    # triangle: sigma_{x,I} then F(r) equals r on (F x) * I
    nu_pt = pointed_variables(x.ctx_sorts, bound)
    nu_tr = truncate_structure(nu_pt.structure, base)
    t_fx_nu = tensors(fx, nu_tr)
    pa_nu = tensors(x, nu_pt.structure)
    sig_i = shift_strength_map(binder, nu_pt, pa_nu, t_fx_nu)
    lhs = sig_i.then(shift_map(right_unitor_map(pa_nu), binder))
    rhs = right_unitor_map(t_fx_nu)
    w = maps_equal(lhs, rhs)
    rep.record(suite, "shift strength triangle", w is None, w)

    # pentagon: alpha then sigma_{x, a@b} equals (sigma x id); sigma; F(alpha)
    t_ab = tensors(a.structure, b.structure)
    ab = PointedStructure(t_ab.structure, pointed_tensor_point(a, b, t_ab))
    pa_ab = tensors(x, t_ab.structure)
    t_ab_tr = tensors(a_tr, b_tr)
    t_fxa_b = tensors(t_fx_a.structure, b_tr)
    t_fx_abtr = tensors(fx, t_ab_tr.structure)
    alpha_small = associator_map(t_fxa_b, t_ab_tr, t_fx_abtr)
    resolve = lambda s, ctx, e: t_ab.class_of(s, ctx, e)
    sig_ab = shift_strength_map(binder, ab, pa_ab, t_fx_abtr, resolve)
    route1 = alpha_small.then(sig_ab)

    fxa = shift_structure(pa_a.structure, binder)
    t_fxa_b2 = tensors(fxa, b_tr)
    step1 = tensor_left_map(sig_a, t_fxa_b, t_fxa_b2)
    pa_a_b = tensors(pa_a.structure, b.structure)
    sig_xa_b = shift_strength_map(binder, b, pa_a_b, t_fxa_b2)
    alpha_big = associator_map(pa_a_b, t_ab, pa_ab)
    route2 = step1.then(sig_xa_b).then(shift_map(alpha_big, binder))
    w = maps_equal(route1, route2)
    rep.record(suite, "shift strength pentagon", w is None, w)
    return rep
