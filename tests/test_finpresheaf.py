"""Finite presheaves: tensor quotient, mediators, exponential, law checks."""

import random

import pytest

from substkit.finpresheaf import (BoundExceeded, PairObject, StructMap,
                                  associator_map, check_action_axioms,
                                  check_pointed_tensor, check_skew,
                                  empty_structure, enumerate_contexts,
                                  enumerate_envs, enumerate_renamings,
                                  exponential, free_structure, left_unitor_map,
                                  maps_equal, pointed_free, pointed_variables,
                                  right_unitor_inv, right_unitor_map,
                                  shift_structure, tensor, terminal_structure,
                                  variables_structure)
from substkit.finpresheaf.laws import check_shift_strength, identity_map, map_cells
from substkit.finpresheaf.structures import (FinStructure, build_structure,
                                             coproduct_structure,
                                             product_structure, reindex_env,
                                             truncate_structure)
from substkit.sorts import Context, Renaming, first, identity_renaming, second


def kneut_structure(fst_ids, snd_ids, bound: int) -> FinStructure:
    """Variables on the first-class sorts; empty cells at second-class sorts."""
    nu = variables_structure(fst_ids, bound)
    sorts = nu.sorts + tuple(second(i) for i in snd_ids)
    return FinStructure(sorts, nu.ctx_sorts, bound, nu.cells, nu.action)


def rand(seed):
    return random.Random(seed)


def homog(rng, ensure_nonempty=False):
    ens = [(first("a"), Context(("a",)))] if ensure_nonempty else ()
    return free_structure(rng, (first("a"),), ("a",), 2, ensure=ens)


def snd_struct(rng):
    ens = [(second("k"), Context(()))]
    return free_structure(rng, (second("k"),), ("a",), 2, ensure=ens)


def test_enumerate_contexts_counts():
    assert enumerate_contexts(("b",), 0) == [Context(())]
    assert [c.entries for c in enumerate_contexts(("b",), 2)] == \
        [(), ("b",), ("b", "b")]
    assert len(enumerate_contexts(("b", "c"), 2)) == 7


def test_enumerate_renamings_counts():
    assert len(enumerate_renamings(Context(("b",)), Context(()))) == 1
    assert len(enumerate_renamings(Context(("b", "b")), Context(("b",)))) == 2
    swaps = enumerate_renamings(Context(("b", "c")), Context(("c", "b")))
    assert len(swaps) == 1 and swaps[0].mapping == (1, 0)


def test_variables_structure_laws():
    variables_structure(("a", "b"), 2).validate()


def test_validate_rejects_a_broken_composition():
    """Weakening [a] into [a, a] at the second position, corrupted to land
    at the first, breaks its composite with the swap."""
    nu = variables_structure(("a",), 2)
    action = dict(nu.action)
    action[((("a", "a"), ("a",), (1,)), first("a"), 0)] = 0
    broken = FinStructure(nu.sorts, nu.ctx_sorts, nu.bound, nu.cells, action)
    with pytest.raises(ValueError, match="composition law fails"):
        broken.validate()


def test_free_structure_laws():
    for seed in range(5):
        rng = rand(seed)
        free_structure(rng, (first("a"), second("k")), ("a",), 2).validate()


def test_tensor_closed_left_factor_bijects():
    # one generator at the empty context: closed elements ignore environments,
    # so the tensor cells biject with p's cells
    rng = rand(1)
    p = free_structure(rng, (second("k"),), ("a",), 2,
                       homes=[Context(())],
                       ensure=[(second("k"), Context(()))])
    q = homog(rng, ensure_nonempty=True)
    t = tensor(p, q)
    for ctx in t.structure.contexts():
        assert len(t.structure.cell(second("k"), ctx)) == \
            len(p.cell(second("k"), ctx)) == 1


def test_tensor_with_variables_right_unitor():
    rng = rand(2)
    p = snd_struct(rng)
    nu = variables_structure(("a",), 2)
    t = tensor(p, nu)
    ru = right_unitor_map(t)
    assert ru.naturality_witness() is None
    assert ru.bijectivity_witness() is None
    # r[t, e] = t acted along the renaming e encodes, checked by definition
    for s in p.sorts:
        for ctx in t.structure.contexts():
            for rep in t.structure.cell(s, ctx):
                gpe, elem, env = rep
                from substkit.sorts import Renaming
                rho = Renaming(ctx, Context(gpe), env)
                assert ru.apply(s, ctx, rep) == p.act(s, rho, elem)


def test_random_generator_pairs_symmetric():
    rng = rand(3)
    p = snd_struct(rng)
    q = homog(rng, ensure_nonempty=True)
    t = tensor(p, q)
    checked = 0
    ctxs = p.contexts()
    while checked < 120:
        g1, g2 = rng.choice(ctxs), rng.choice(ctxs)
        rhos = enumerate_renamings(g1, g2)
        s = second("k")
        ctx = rng.choice(ctxs)
        if not rhos or not p.cell(s, g2):
            continue
        envs = list(enumerate_envs(q, g1, ctx))
        if not envs:
            continue
        rho = rng.choice(rhos)
        elem = rng.choice(p.cell(s, g2))
        env = rng.choice(envs)
        left = (g1.entries, p.act(s, rho, elem), env)
        right = (g2.entries, elem, reindex_env(env, rho))
        assert t.class_of(s, ctx, left) == t.class_of(s, ctx, right)
        checked += 1


def test_action_axioms_random_structures():
    for seed in (10, 11, 12):
        rng = rand(seed)
        rep = check_action_axioms(snd_struct(rng), homog(rng, True), homog(rng, True))
        assert rep.ok, rep.to_text()


def test_action_axioms_empty_vacuous():
    rng = rand(13)
    p = empty_structure((second("k"),), ("a",), 2)
    rep = check_action_axioms(p, homog(rng, True), homog(rng, True))
    assert rep.ok


def test_corrupted_associator_fails_with_witness():
    rng = rand(0)
    ens = [(second("k"), Context(())), (second("k"), Context(("a",)))]
    p = free_structure(rng, (second("k"),), ("a",), 2, ensure=ens)
    q, l = homog(rng, True), homog(rng, True)
    t_pq = tensor(p, q)
    t_ql = tensor(q, l)
    t_pq_l = tensor(t_pq.structure, l)
    t_p_ql = tensor(p, t_ql.structure)
    alpha = associator_map(t_pq_l, t_ql, t_p_ql)

    # corrupt: swap two distinct output classes in some cell of the map
    table = {key: dict(inner) for key, inner in alpha.table.items()}
    broken = False
    for key, inner in table.items():
        values = sorted(set(inner.values()), key=repr)
        if len(values) >= 2:
            a_val, b_val = values[0], values[1]
            swap = {a_val: b_val, b_val: a_val}
            table[key] = {x: swap.get(y, y) for x, y in inner.items()}
            broken = True
            break
    assert broken
    bad = StructMap(alpha.source, alpha.target, table)
    w = maps_equal(bad, alpha)
    assert w is not None and "at" in w


def test_merged_point_fails_the_pointed_part_with_witness(monkeypatch):
    """A tensored point that answers the second variable of the first
    length-2 context with the first one fails the registry's pointed part,
    each failing record with a witness."""
    from substkit import suites
    from substkit.finpresheaf import laws
    from substkit.report import Report
    rep = Report()
    suites.pointed(rep, 20260810, structures=2)
    assert rep.ok and len(rep.records) == 24, rep.to_text()
    real = laws.pointed_tensor_point

    def merged(a, b, tens):
        point = real(a, b, tens)
        first_two = [key for key in point if len(key[1]) == 2][:2]
        point[first_two[1]] = point[first_two[0]]
        return point

    monkeypatch.setattr(laws, "pointed_tensor_point", merged)
    rep = Report()
    suites.pointed(rep, 20260810, structures=2)
    failed = [r for r in rep.records if not r.ok]
    assert all(r.witness for r in failed), rep.to_text()
    variables = {r.name: r.witness for r in failed
                 if r.suite == "pointed[variables]"}
    assert variables["tensored point natural"] == (
        "point not natural at Renaming(Context['a', 'a'] -> Context['a'], (1,)) "
        "position 0")
    assert sorted(variables) == [
        "left unitor preserves points", "right unitor preserves points",
        "tensored point agrees with its Yoneda image", "tensored point natural"]


def test_fresh_variable_mutant_fails_the_strength_records_with_witness(monkeypatch):
    """A shift strength that binds the fresh position to the context's first
    variable instead of ``len(ctx) + j`` fails the registry's presheaf part.

    At this size the triangle, which compares the strength with the right
    unitor, is the record that sees it.  Naturality still holds, and the
    pentagon compares two routes that both go through the mutant."""
    from substkit import suites
    from substkit.finpresheaf import laws
    from substkit.finpresheaf.laws import PointedStructure
    from substkit.report import Report
    rep = Report()
    suites.presheaf_laws(rep, 20260810, structures=2)
    assert rep.ok and len(rep.records) == 28, rep.to_text()
    real = laws.shift_strength_map

    def first_variable(binder, a, pa, lhs, resolve=None):
        pinned = {(s, ctx, pos): a.var(s, ctx, 0) for s, ctx, pos in a.point}
        return real(binder, PointedStructure(a.structure, pinned), pa, lhs,
                    resolve)

    monkeypatch.setattr(laws, "shift_strength_map", first_variable)
    rep = Report()
    suites.presheaf_laws(rep, 20260810, structures=2)
    failed = [r for r in rep.records if not r.ok]
    assert all(r.witness for r in failed), rep.to_text()
    assert [(r.suite, r.name) for r in failed] == [
        (f"strength[{i}]", "shift strength triangle") for i in range(2)]


def test_corrupted_associator_fails_the_skew_part_with_witness(monkeypatch):
    """An associator that swaps two images in one cell fails the registry's
    skew part, each failing record with a witness."""
    from substkit import suites
    from substkit.finpresheaf import laws
    from substkit.report import Report
    rep = Report()
    suites.skew(rep, seed=20260810, structures=1)
    assert rep.ok, rep.to_text()
    real = laws.associator_map

    def corrupted(*tensors):
        alpha = real(*tensors)
        table = dict(alpha.table)
        for key, inner in table.items():
            values = sorted(set(inner.values()), key=repr)
            if len(values) >= 2:
                swap = {values[0]: values[1], values[1]: values[0]}
                table[key] = {x: swap.get(y, y) for x, y in inner.items()}
                break
        return StructMap(alpha.source, alpha.target, table)

    monkeypatch.setattr(laws, "associator_map", corrupted)
    rep = Report()
    suites.skew(rep, seed=20260810, structures=1)
    failed = [r for r in rep.records if not r.ok]
    assert all(r.witness for r in failed), rep.to_text()
    # every record that reads an associator, and no other
    assert [r.name for r in failed] == [
        f"skew {law} ({part} part)"
        for law, parts in (("pentagon", ("monoid", "acted")),
                           ("left axiom", ("monoid",)),
                           ("right axiom", ("monoid", "acted")),
                           ("rectangle", ("monoid", "acted")))
        for part in parts], rep.to_text()


def test_pointed_tensor_random():
    for seed in (20, 21):
        rng = rand(seed)
        rep = check_pointed_tensor(pointed_free(rng, ("a",), 2),
                                   pointed_free(rng, ("a",), 2))
        assert rep.ok, rep.to_text()


def test_pointed_variables_unitor_case():
    # A = variables with the identity point: the left unitor sends the
    # tensored point back to B's point (checked inside check_pointed_tensor).
    rng = rand(22)
    rep = check_pointed_tensor(pointed_variables(("a",), 2),
                               pointed_free(rng, ("a",), 2))
    assert rep.ok, rep.to_text()


def test_skew_axioms_random():
    rng = rand(30)

    def pair():
        return PairObject(homog(rng, True), snd_struct(rng))

    rep = check_skew(("a",), ("k",), 2, [pair() for _ in range(4)])
    assert rep.ok, rep.to_text()
    names = [r.name for r in rep.records]
    assert any("not invertible" in n for n in names)


def test_skew_homogeneous_left_unitor_bijective():
    # no second-class sorts: the left unitor is a bijection
    rng = rand(31)
    q = homog(rng, True)
    nu = variables_structure(("a",), 2)
    lu = left_unitor_map(tensor(nu, q))
    assert lu.bijectivity_witness() is None


def test_kneut_tensor_empty_at_second_class():
    kn = kneut_structure(("a",), ("k",), 2)
    top = terminal_structure((first("a"),), ("a",), 2)
    t = tensor(kn, top)
    for ctx in t.structure.contexts():
        assert t.structure.cell(second("k"), ctx) == ()
        assert len(t.structure.cell(first("a"), ctx)) >= 1


def test_shift_strength_axioms():
    for seed in (40, 41):
        rng = rand(seed)
        x = snd_struct(rng)
        a = pointed_free(rng, ("a",), 2)
        b = pointed_free(rng, ("a",), 2)
        rep = check_shift_strength(x, Context(("a",)), a, b)
        assert rep.ok, rep.to_text()


def test_product_and_coproduct_strengths_natural():
    rng = rand(42)
    p1, p2 = snd_struct(rng), snd_struct(rng)
    q = homog(rng, True)
    prod = product_structure([p1, p2])
    prod.validate()
    t_prod = tensor(prod, q)
    t1, t2 = tensor(p1, q), tensor(p2, q)

    def strength(s, ctx, rep):
        gpe, (x1, x2), env = rep
        return (t1.class_of(s, ctx, (gpe, x1, env)),
                t2.class_of(s, ctx, (gpe, x2, env)))

    target = product_structure([t1.structure, t2.structure])
    sigma = map_cells(t_prod.structure, target, strength)
    assert sigma.naturality_witness() is None
    assert sigma.bijectivity_witness() is None

    cop = coproduct_structure([("l", p1), ("r", p2)])
    cop.validate()
    t_cop = tensor(cop, q)
    by_tag = {"l": t1, "r": t2}

    def costrength(s, ctx, rep):
        gpe, (tag, x), env = rep
        return (tag, by_tag[tag].class_of(s, ctx, (gpe, x, env)))

    cotarget = coproduct_structure([("l", t1.structure), ("r", t2.structure)])
    cosigma = map_cells(t_cop.structure, cotarget, costrength)
    assert cosigma.naturality_witness() is None
    assert cosigma.bijectivity_witness() is None


# --- exponential ----------------------------------------------------------------

def small_p(rng):
    ens = [(second("k"), Context(())), (second("k"), Context(("a",)))]
    return free_structure(rng, (second("k"),), ("a",), 1, ensure=ens)


def test_exponential_by_variables_bijects():
    rng = rand(50)
    p = small_p(rng)
    exp, _, _ = exponential(p, variables_structure(("a",), 1))
    exp.validate()
    for s in p.sorts:
        for ctx in p.contexts():
            assert len(exp.cell(s, ctx)) == len(p.cell(s, ctx))


def test_exponential_universal_property():
    rng = rand(51)
    p = small_p(rng)
    q = free_structure(rng, (first("a"),), ("a",), 1,
                       ensure=[(first("a"), Context(("a",)))])
    exp, ev, curry = exponential(p, q)
    exp.validate()
    t = tensor(exp, q)
    for s in p.sorts:
        for ctx in p.contexts():
            for rep in t.structure.cell(s, ctx):
                assert ev(s, ctx, rep) in p.cell(s, ctx)
    # curry of eval is the identity: the unique factoring of eval through eval
    table = curry(exp, ev, t)
    for key, inner in table.items():
        for x, fam in inner.items():
            assert fam == x


def test_exponential_empty_when_p_empty():
    p = empty_structure((second("k"),), ("a",), 1)
    q = variables_structure(("a",), 1)
    exp, _, _ = exponential(p, q)
    for ctx in exp.contexts():
        assert exp.cell(second("k"), ctx) == ()


def test_exponential_bound_guard():
    rng = rand(52)
    p = snd_struct(rng)
    q = homog(rng, True)
    with pytest.raises(BoundExceeded):
        exponential(p, q, cap=10)


def test_truncate_and_shift():
    rng = rand(53)
    p = snd_struct(rng)
    truncate_structure(p, 1).validate()
    shift_structure(p, Context(("a",))).validate()


def test_truncate_keeps_the_cells_and_actions_within_the_bound_in_order():
    p = snd_struct(rand(53))
    for bound in range(p.bound + 1):
        t = truncate_structure(p, bound)
        assert list(t.cells.items()) == [
            (k, e) for k, e in p.cells.items() if len(k[1]) <= bound]
        assert list(t.action.items()) == [
            (k, v) for k, v in p.action.items()
            if len(k[0][0]) <= bound and len(k[0][1]) <= bound]


def test_validate_rejects_a_non_functorial_action():
    p = variables_structure(("a",), 1)
    p.validate()
    # the identity renaming of [a] now moves the variable out of its cell
    p.action[((("a",), ("a",), (0,)), first("a"), 0)] = 1
    with pytest.raises(ValueError):
        p.validate()


def test_exponential_curry_of_yoneda_map():
    """With Q = variables, P bijects with (P <= Q); currying the evaluation of
    that bijection recovers it, the unique factoring."""
    from substkit.sorts import Renaming

    rng = rand(54)
    p = small_p(rng)
    nu = variables_structure(("a",), 1)
    exp, ev, curry = exponential(p, nu)
    t = tensor(exp, nu)

    contexts = p.contexts()

    def yoneda(s, amb, elem):
        fam = []
        for g in contexts:
            row = []
            for env in enumerate_envs(nu, amb, g):
                rho = Renaming(g, amb, env)
                row.append(p.act(s, rho, elem))
            fam.append(tuple(row))
        return tuple(fam)

    # the bijection lands in the exponential's cells
    for s in p.sorts:
        for amb in contexts:
            for elem in p.cell(s, amb):
                assert yoneda(s, amb, elem) in exp.cell(s, amb)

    # f = eval after (yoneda x id); its curry is yoneda again
    t_p_nu = tensor(p, nu)

    def f(s, ctx, rep):
        gpe, elem, env = rep
        return ev(s, ctx, (gpe, yoneda(s, Context(gpe), elem), env))

    table = curry(p, f, t_p_nu)
    for (s, amb), inner in table.items():
        for elem, fam in inner.items():
            assert fam == yoneda(s, amb, elem)


def test_tensor_structure_is_functorial():
    rng = rand(61)
    p = snd_struct(rng)
    q = homog(rng, True)
    t = tensor(p, q)
    t.structure.validate()
    tensor(t.structure, q).structure.validate()


def test_mediators_are_natural_and_the_right_ones_bijective():
    rng = rand(62)
    p, q, l = snd_struct(rng), homog(rng, True), homog(rng, True)
    nu = variables_structure(q.ctx_sorts, q.bound)
    t_pq, t_ql = tensor(p, q), tensor(q, l)
    lu = left_unitor_map(tensor(nu, q))
    ru = right_unitor_map(tensor(p, nu))
    alpha = associator_map(tensor(t_pq.structure, l), t_ql,
                           tensor(p, t_ql.structure))
    for m in (lu, ru, alpha):
        assert m.naturality_witness() is None
    assert ru.bijectivity_witness() is None
    assert alpha.bijectivity_witness() is None


# --- the tensor against its literal reference ------------------------------------

class _RefUnionFind:
    """The reference's own union-find, plain and without shortcuts."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            i = self.parent[i]
        return i

    def union(self, i, j):
        i, j = self.find(i), self.find(j)
        if i != j:
            self.parent[j] = i


class _LiteralResult:
    """The reference's quotient map: flat tables from every raw triple to its
    representative, and from every representative to its class."""

    def __init__(self, p, q, structure, reps, members):
        self.p, self.q, self.structure = p, q, structure
        self.reps, self.classes = reps, members

    def class_of(self, s, ctx, triple):
        return self.reps[(s, ctx, triple)]

    def members(self, s, ctx, rep):
        return self.classes[(s, ctx, rep)]


def literal_tensor(p, q, skip=None):
    """The reference: the tensor as first written, re-enumerating envs and
    renamings for every cell and tabulating the action through a closure.
    ``skip`` names one renaming key whose unions are left out (a mutant)."""
    from substkit.sorts import Context as Ctx
    out_ctxs = enumerate_contexts(q.ctx_sorts, p.bound)
    p_ctxs = p.contexts()
    reps, members, cells = {}, {}, {}
    for s in p.sorts:
        for ctx in out_ctxs:
            triples = []
            for gp in p_ctxs:
                for t in p.cell(s, gp):
                    for env in enumerate_envs(q, gp, ctx):
                        triples.append((gp.entries, t, env))
            index = {t: i for i, t in enumerate(triples)}
            uf = _RefUnionFind(len(triples))
            for g1 in p_ctxs:
                for g2 in p_ctxs:
                    for rho in enumerate_renamings(g1, g2):
                        if rho.key() == skip:
                            continue
                        for t in p.cell(s, g2):
                            tr = p.act(s, rho, t)
                            for env in enumerate_envs(q, g1, ctx):
                                left = (g1.entries, tr, env)
                                right = (g2.entries, t, reindex_env(env, rho))
                                uf.union(index[left], index[right])
            groups: dict = {}
            for t, i in index.items():
                groups.setdefault(uf.find(i), []).append(t)
            cell = []
            for grp in groups.values():
                rep = min(grp, key=repr)
                cell.append(rep)
                for t in grp:
                    reps[(s, ctx, t)] = rep
                members[(s, ctx, rep)] = tuple(sorted(grp, key=repr))
            cells[(s, ctx)] = tuple(sorted(cell, key=repr))

    def act(s, tau, rep):
        gp_entries, t, env = rep
        moved = tuple(q.act(first(Ctx(gp_entries).sort_at(i)), tau, e)
                      for i, e in enumerate(env))
        return reps[(s, tau.source, (gp_entries, t, moved))]

    structure = build_structure(p.sorts, q.ctx_sorts, p.bound, cells, act)
    result = _LiteralResult(p, q, structure, reps, members)
    _literal_check_action_well_defined(result)
    return result


def _literal_check_action_well_defined(tr) -> None:
    st = tr.structure
    for rho in st.renamings():
        for s in st.sorts:
            for rep in st.cell(s, rho.target):
                image = st.act(s, rho, rep)
                for member in tr.members(s, rho.target, rep):
                    gp_entries, t, env = member
                    moved = tuple(tr.q.act(first(Context(gp_entries).sort_at(i)), rho, e)
                                  for i, e in enumerate(env))
                    got = tr.class_of(s, rho.source, (gp_entries, t, moved))
                    if got != image:
                        raise ValueError(
                            f"tensor action not well-defined at {s!r} {rho!r}: "
                            f"{member!r} -> {got!r} != {image!r}")


def assert_same_tensor(p, q):
    """``tensor`` equals the reference part by part: cells and action in
    insertion order, the representative of every raw triple and the members
    of every class, both in the reference's order."""
    got, want = tensor(p, q), literal_tensor(p, q)
    assert list(got.structure.cells.items()) == list(want.structure.cells.items())
    assert list(got.structure.action.items()) == list(want.structure.action.items())
    for (s, ctx, triple), rep in want.reps.items():
        assert got.class_of(s, ctx, triple) == rep, (s, ctx, triple)
    for (s, ctx, rep), members in want.classes.items():
        assert got.members(s, ctx, rep) == members, (s, ctx, rep)
    return got


@pytest.mark.parametrize("seed", range(6))
def test_tensor_matches_reference_on_free_structures(seed):
    rng = rand(100 + seed)
    p = free_structure(rng, (first("a"), second("k")), ("a",), 2,
                       ensure=[(second("k"), Context(()))])
    q = homog(rng, True)
    assert_same_tensor(p, q)
    assert_same_tensor(snd_struct(rng), q)
    assert_same_tensor(q, homog(rng))
    # generators at length-2 homes, over a two-sort alphabet
    ab = ("a", "b")
    homes = [Context(()), Context(("a", "b")), Context(("b", "b"))]
    p2 = free_structure(rng, (second("k"), first("b")), ab, 2, homes=homes,
                        ensure=[(second("k"), Context(("a", "b")))])
    q2 = free_structure(rng, (first("a"), first("b")), ab, 2,
                        ensure=[(first("a"), Context(("a",))),
                                (first("b"), Context(("b",)))])
    assert_same_tensor(p2, q2)


def test_tensor_matches_reference_on_variables_and_kneut():
    rng = rand(110)
    nu = variables_structure(("a",), 2)
    q = homog(rng, True)
    assert_same_tensor(nu, q)
    assert_same_tensor(snd_struct(rng), nu)
    assert_same_tensor(nu, nu)
    kn = kneut_structure(("a",), ("k",), 2)
    assert_same_tensor(kn, terminal_structure((first("a"),), ("a",), 2))
    assert_same_tensor(kn, nu)
    assert_same_tensor(kn, q)
    nu2 = variables_structure(("a", "b"), 2)
    assert_same_tensor(kneut_structure(("a", "b"), ("k",), 2), nu2)


def test_tensor_orders_representatives_as_whole_triple_reprs():
    """Element reprs that prefix one another ("1", "10", "12", and "2" above
    "10") order the triples as their whole reprs do."""
    cells = {(second("k"), ctx): (12, 2, 10, 1)
             for ctx in enumerate_contexts(("a",), 2)}
    p = build_structure((second("k"),), ("a",), 2, cells, lambda s, rho, x: x)
    assert_same_tensor(p, variables_structure(("a",), 2))
    assert_same_tensor(p, homog(rand(114), True))


class _ReadsAsRightFactor(dict):
    """An action table that counts, per key, the reads made while a tensor
    with ``owner`` as its right factor runs (``running`` lists the right
    factors of the running tensors, innermost last)."""

    def __init__(self, action, running):
        super().__init__(action)
        self.running, self.owner, self.reads = running, None, {}

    def __getitem__(self, key):
        if self.running and self.running[-1] is self.owner:
            self.reads[key] = self.reads.get(key, 0) + 1
        return super().__getitem__(key)


def test_tensor_reads_each_action_entry_of_the_right_factor_once(monkeypatch):
    """A right factor's action is read by environment position, once per
    entry across every tensor of a check that has it on the right, not once
    per tensor or per class member."""
    from substkit.finpresheaf import laws
    real, running, tensored = laws.tensor, [], {}

    def tracked(p, q):
        tensored[id(q)] = tensored.get(id(q), 0) + 1
        running.append(q)
        try:
            return real(p, q)
        finally:
            running.pop()

    monkeypatch.setattr(laws, "tensor", tracked)
    rng = rand(115)
    p = free_structure(rng, (first("a"), second("k")), ("a",), 2,
                       ensure=[(second("k"), Context(()))])
    counted = []
    for q in (homog(rng, True), homog(rng, True)):
        action = _ReadsAsRightFactor(q.action, running)
        action.owner = FinStructure(q.sorts, q.ctx_sorts, q.bound, q.cells, action)
        counted.append(action)
    q, l = (action.owner for action in counted)
    assert check_action_axioms(p, q, l).ok
    assert tensored[id(q)] == 7 and tensored[id(l)] == 2
    for action in counted:
        assert action.reads and max(action.reads.values()) == 1


def _alphabet_orders(seed):
    """One right factor over the alphabet (a, b), and left factors over
    (a, b) and over (b, a): the same alphabet, numbered the other way."""
    rng = rand(seed)
    q = free_structure(rng, (first("a"), first("b")), ("a", "b"), 2,
                       ensure=[(first("a"), Context(("a",))),
                               (first("b"), Context(("b",)))])
    homes = [Context(()), Context(("a",)), Context(("a", "b"))]
    lefts = [free_structure(rng, (second("k"), first("a")), order, 2, homes=homes,
                            ensure=[(second("k"), Context(("a", "b")))])
             for order in (("a", "b"), ("b", "a"))]
    return q, lefts


def test_tensor_plans_are_keyed_on_the_left_alphabet_order():
    q, lefts = _alphabet_orders(116)
    assert [p.ctx_sorts for p in lefts] == [("a", "b"), ("b", "a")]
    for p in lefts:
        assert_same_tensor(p, q)
    assert sorted(q._plans) == [("a", "b"), ("b", "a")]


def test_tensor_plan_keyed_on_the_right_factor_alone_fails(monkeypatch):
    """A plan reused for a left factor whose alphabet runs the other way
    numbers its contexts wrongly, and the test above fails."""
    from substkit.finpresheaf import structures

    def keyed_on_q(q, left_ctx_sorts):
        if "plan" not in q._plans:
            q._plans["plan"] = structures._RightPlan(q, left_ctx_sorts)
        return q._plans["plan"]

    monkeypatch.setattr(structures, "_right_plan", keyed_on_q)
    # the left factor over (b, a) is read with the contexts of (a, b): its
    # elements at [a] are looked up under renamings of [b]
    with pytest.raises(KeyError):
        test_tensor_plans_are_keyed_on_the_left_alphabet_order()


def _keyed_shape(monkeypatch, key):
    """Install a shape table keyed on ``key(left_ctx_sorts, bound, sizes)``."""
    from substkit.finpresheaf import structures
    table = {}

    def shape(left_ctx_sorts, bound, sizes):
        k = key(left_ctx_sorts, bound, sizes)
        if k not in table:
            table[k] = structures._Shape(left_ctx_sorts, bound, sizes)
        return table[k]

    monkeypatch.setattr(structures, "_shape", shape)


def _two_sizes(seed):
    """One left factor and two right factors over (a) whose cells differ in
    size: variables have one element per position."""
    rng = rand(seed)
    return snd_struct(rng), homog(rng, True), variables_structure(("a",), 2)


def test_tensor_shapes_are_keyed_on_the_cell_sizes():
    p, q1, q2 = _two_sizes(117)
    for q in (q1, q2):
        assert_same_tensor(p, q)
    assert q1._plans[("a",)].shape is not q2._plans[("a",)].shape


def test_tensor_shape_keyed_without_the_cell_sizes_fails(monkeypatch):
    """Positions laid out for the cells of one right factor miss the
    environments of another."""
    _keyed_shape(monkeypatch, lambda left_ctx_sorts, bound, sizes:
                 (left_ctx_sorts, bound))
    with pytest.raises(IndexError):
        test_tensor_shapes_are_keyed_on_the_cell_sizes()


def test_tensor_shape_keyed_without_the_alphabet_order_fails(monkeypatch):
    """A key that names the alphabet as a set, and the cell sizes per named
    sort, hands the left factor over (b, a) the shape of (a, b), whose
    renamings number the contexts of (a, b)."""
    _keyed_shape(monkeypatch, lambda left_ctx_sorts, bound, sizes: (
        tuple(sorted(left_ctx_sorts)), bound,
        tuple(tuple(sorted(zip(left_ctx_sorts, row))) for row in sizes)))
    with pytest.raises(KeyError):
        test_tensor_plans_are_keyed_on_the_left_alphabet_order()


def test_right_factors_of_one_shape_share_it():
    """Two right factors with equal cell sizes and other elements, in another
    order, share one shape and keep their own plans."""
    rng = rand(118)
    p, q1 = snd_struct(rng), homog(rng, True)
    q2 = coproduct_structure([("t", FinStructure(
        q1.sorts, q1.ctx_sorts, q1.bound,
        {key: cell[::-1] for key, cell in q1.cells.items()}, q1.action))])
    assert q2.cells != q1.cells
    for q in (q1, q2):
        assert_same_tensor(p, q)
    plans = [q1._plans[("a",)], q2._plans[("a",)]]
    assert plans[0] is not plans[1] and plans[0].shape is plans[1].shape


def test_tensor_left_plans_are_kept_per_left_factor():
    """The same cells and action read over the alphabet (b, a) number their
    contexts the other way, so that left factor gets a plan of its own."""
    q, (p, _) = _alphabet_orders(119)
    lefts = [p, FinStructure(p.sorts, ("b", "a"), p.bound, p.cells, p.action)]
    for left in lefts:
        assert_same_tensor(left, q)
    assert lefts[0]._left is not lefts[1]._left


def test_tensor_left_plan_reused_across_alphabets_fails(monkeypatch):
    """A left plan kept per action table, not per left factor, hands the
    factor over (b, a) the numbering of (a, b), and the test above fails."""
    from substkit.finpresheaf import structures
    kept = {}

    def per_action(p, renamings):
        if id(p.action) not in kept:
            kept[id(p.action)] = (p.action, structures._LeftPlan(p, renamings))
        return kept[id(p.action)][1]

    monkeypatch.setattr(structures, "_left_plan", per_action)
    with pytest.raises(AssertionError):
        test_tensor_left_plans_are_kept_per_left_factor()


# --- one context object per alphabet, and renderings handed on ------------------

def test_structures_of_one_alphabet_share_their_contexts():
    """Structures, renamings and tensors over one alphabet meet the same
    context objects, at every bound: a smaller bound's contexts are a prefix
    of a larger one's, and each context keeps its one-entry extensions."""
    rng = rand(122)
    p, q = snd_struct(rng), homog(rng, True)
    nu = variables_structure(("a",), 2)
    out = tensor(p, q).structure
    ctxs = p.contexts()
    for s in (q, nu, out, terminal_structure((first("a"),), ("a",), 2),
              shift_structure(q, Context(("a",))),
              truncate_structure(p, 1)):
        assert all(a is b for a, b in zip(s.contexts(), ctxs)), s
    assert all(k[1] is ctxs[ctxs.index(k[1])] for k in out.cells)
    assert all(rho.source is ctxs[ctxs.index(rho.source)]
               for rho in p.renamings())
    assert [c.entries for c in ctxs] == \
        [c.entries for c in enumerate_contexts(("a",), 2)]
    assert ctxs[1].extend(Context(("a",))) is ctxs[2]
    assert FinStructure(p.sorts, ("b", "a"), 2, p.cells, p.action).contexts() \
        is not ctxs


def test_enumerate_contexts_returns_a_fresh_list():
    first_call = enumerate_contexts(("a",), 2)
    first_call.append(Context(("b",)))
    second_call = enumerate_contexts(("a",), 2)
    assert len(second_call) == 3 and second_call is not first_call
    assert not any(a is b for a, b in zip(first_call, second_call))
    assert snd_struct(rand(123)).contexts()[:3] == tuple(second_call)


def _renders_its_cells(s: FinStructure) -> bool:
    return all(s._rendered(sort, ctx) == [repr(x) for x in s.cell(sort, ctx)]
               for sort in s.sorts for ctx in s.contexts())


def test_tensor_hands_on_the_renderings_of_its_cells():
    """A tensor's structure holds the rendering of every cell, equal to the
    ``repr`` of its representatives, nested tensors' included; a shifted or
    truncated structure renders its cells on first use."""
    rng = rand(124)
    p, q, l = snd_struct(rng), homog(rng, True), homog(rng, True)
    inner = tensor(p, q).structure
    nested = tensor(inner, l).structure
    deeper = tensor(p, tensor(q, tensor(l, q).structure).structure).structure
    for s in (inner, nested, deeper):
        assert set(s._reprs) == set(s.cells)
        assert _renders_its_cells(s)
    for s in (shift_structure(nested, Context(("a",))),
              truncate_structure(nested, 1)):
        assert s._reprs == {}
        tensor(s, truncate_structure(q, s.bound))
        assert s._reprs and _renders_its_cells(s)


def test_tensor_handing_on_shuffled_renderings_fails(monkeypatch):
    """Renderings that do not follow their cell's order misorder the classes
    of every tensor with that structure as a factor."""
    from substkit.finpresheaf import structures
    real = structures.FinStructure._rendered

    def reversed_order(self, sort, ctx):
        return real(self, sort, ctx)[::-1]

    monkeypatch.setattr(structures.FinStructure, "_rendered", reversed_order)
    with pytest.raises(AssertionError):
        test_tensor_matches_reference_on_nested_tensors(monkeypatch)


def test_a_second_run_extends_no_shared_context():
    """The shifts of a presheaf run extend the shared contexts once per
    process: the same run again adds no entry to any extension table
    reachable from the contexts over (a)."""
    from substkit import suites
    from substkit.report import Report
    from substkit.finpresheaf import structures

    def extension_tables():
        seen, todo = {}, list(structures._contexts(("a",), 2))
        while todo:
            ctx = todo.pop()
            if id(ctx) not in seen:
                seen[id(ctx)] = ext = dict(ctx._ext or {})
                todo.extend(ext.values())
        return seen

    for run in range(2):
        suites.presheaf_laws(Report(), 20260810, 1)
        suites.skew(Report(), 20260810, 1)
        if run == 0:
            before = extension_tables()
    after = extension_tables()
    assert after.keys() == before.keys()
    for key, ext in after.items():
        assert [(b.entries, id(c)) for b, c in ext.items()] == \
            [(b.entries, id(c)) for b, c in before[key].items()]


# --- the shortcuts of identity renamings and identity taus ----------------------

def _identity_moves_one(s: FinStructure, sort, ctx) -> FinStructure:
    """``s`` with an identity action that sends the first element of the
    cell of ``sort`` over ``ctx`` to the second: no presheaf, but a tensor
    factor all the same."""
    x, y = s.cell(sort, ctx)[:2]
    action = dict(s.action)
    action[(identity_renaming(ctx).key(), sort, x)] = y
    return FinStructure(s.sorts, s.ctx_sorts, s.bound, s.cells, action)


def assert_same_outcome(p, q):
    """``tensor`` equals the reference, or both raise the same message."""
    try:
        literal_tensor(p, q)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            tensor(p, q)
        assert str(got.value) == str(err)
    else:
        assert_same_tensor(p, q)


def _is_identity(key) -> bool:
    return key[0] == key[1] and key[2] == tuple(range(len(key[2])))


def _moving_factors():
    rng = rand(121)
    p = free_structure(rng, (second("k"),), ("a",), 2,
                       ensure=[(second("k"), Context(("a",)))])
    return p, homog(rng, True)


def test_tensor_joins_what_an_identity_renaming_of_p_moves():
    """The identity of [a] moves an element of P: its generator pairs are not
    all diagonal, and the ones that are not still join two triples."""
    p, q = _moving_factors()
    assert_same_outcome(_identity_moves_one(p, second("k"), Context(("a",))), q)


def test_tensor_dropping_identity_renamings_by_key_fails(monkeypatch):
    """A left plan that drops every pair of an identity renaming, not just
    the diagonal ones, misses the join, and the test above fails."""
    from substkit.finpresheaf import structures

    class ByKey(structures._LeftPlan):
        __slots__ = ()

        def __init__(self, p, renamings):
            super().__init__(p, renamings)
            for s, (cells, lengths, reprs, moves) in self.sorts.items():
                self.sorts[s] = (cells, lengths, reprs,
                                 [m for m in moves if not _is_identity(renamings[m[0]][2])])

    monkeypatch.setattr(structures, "_LeftPlan", ByKey)
    with pytest.raises(AssertionError):
        test_tensor_joins_what_an_identity_renaming_of_p_moves()


def test_tensor_acts_by_an_identity_of_q_that_moves_an_environment():
    """The identity of [a] moves an element of Q, so it moves environments
    over [a]: the tensor acts by it as by any other renaming."""
    p, q = _moving_factors()
    assert_same_outcome(p, _identity_moves_one(q, first("a"), Context(("a",))))


def test_tensor_skipping_identity_taus_by_key_fails(monkeypatch):
    """A right plan that takes every identity renaming for one that fixes
    each class maps the classes over [a] to themselves, and the test above
    fails."""
    from substkit.finpresheaf import structures

    class ByKey(structures._RightPlan):
        __slots__ = ()

        def __init__(self, q, left_ctx_sorts):
            super().__init__(q, left_ctx_sorts)
            self.taus = [(key, cs, ct, None if _is_identity(key) else qmove)
                         for key, cs, ct, qmove in self.taus]

    monkeypatch.setattr(structures, "_RightPlan", ByKey)
    with pytest.raises(AssertionError):
        test_tensor_acts_by_an_identity_of_q_that_moves_an_environment()


def test_tensor_matches_reference_on_term_structure():
    from substkit.termstruct import cbv_term_structure
    P, Q, _table = cbv_term_structure()
    assert_same_tensor(P, Q)
    assert_same_tensor(Q, Q)


def test_tensor_matches_reference_on_nested_tensors(monkeypatch):
    """Every tensor the pentagon builds, tensors of tensors included."""
    from substkit.finpresheaf import laws
    from substkit.finpresheaf.laws import action_pentagon_witness
    shapes = []

    def compared(p, q):
        shapes.append((len(p.cells), len(q.cells)))
        return assert_same_tensor(p, q)

    monkeypatch.setattr(laws, "tensor", compared)
    rng = rand(111)
    p, q, l = snd_struct(rng), homog(rng, True), homog(rng, True)
    assert action_pentagon_witness(p, q, l, q) is None
    assert len(shapes) == 12


def test_each_law_check_tensors_each_operand_pair_once(monkeypatch):
    """A check computes the tensor of a pair of structure objects once and
    shares it between its laws; the pentagon alone still builds 12."""
    from substkit.finpresheaf import laws
    from substkit.finpresheaf.laws import action_pentagon_witness
    real = laws.tensor
    operands = []  # held, so no id is reused while a check runs

    def counted(p, q):
        operands.append((p, q))
        return real(p, q)

    monkeypatch.setattr(laws, "tensor", counted)
    rng = rand(113)
    pair = lambda: PairObject(homog(rng, True), snd_struct(rng))
    checks = {
        "action": lambda: check_action_axioms(snd_struct(rng), homog(rng, True),
                                              homog(rng, True)),
        "skew": lambda: check_skew(("a",), ("k",), 2, [pair() for _ in range(4)]),
        "pointed": lambda: check_pointed_tensor(pointed_free(rng, ("a",), 2),
                                                pointed_free(rng, ("a",), 2)),
        "strength": lambda: check_shift_strength(
            snd_struct(rng), Context(("a",)), pointed_free(rng, ("a",), 2),
            pointed_free(rng, ("a",), 2)),
        "pentagon": lambda: action_pentagon_witness(
            snd_struct(rng), homog(rng, True), homog(rng, True), homog(rng, True)),
    }
    counts = {}
    for name, check in checks.items():
        operands.clear()
        check()
        assert len({(id(p), id(q)) for p, q in operands}) == len(operands), name
        counts[name] = len(operands)
    assert counts == {"action": 19, "skew": 38, "pointed": 6, "strength": 12,
                      "pentagon": 12}


def test_tensor_action_check_still_raises(monkeypatch):
    """A quotient that also merges the first two raw triples of the cell at
    [a] is no coend; both tensors reject it with the same message.  The
    kernel is corrupted where its closure meets the class grouping, the
    reference in its own union-find."""
    import sys
    from substkit.finpresheaf import structures
    real_classes, real_uf = structures._classes, _RefUnionFind
    seen = []

    def merging_classes(parent, order):
        seen.append(parent)
        if len(seen) == 2:  # the second cell: (k, [a])
            root = lambda i: i if parent[i] == i else root(parent[i])
            parent[root(1)] = root(0)
        return real_classes(parent, order)

    def merging_union_find(n):
        seen.append(real_uf(n))
        if len(seen) == 2:
            seen[-1].union(0, 1)
        return seen[-1]

    rng = rand(112)
    p = free_structure(rng, (second("k"),), ("a",), 2,
                       ensure=[(second("k"), Context(("a",)))])
    q = homog(rng, True)
    messages = []
    for fn, module, name, corrupt in (
            (tensor, structures, "_classes", merging_classes),
            (literal_tensor, sys.modules[__name__], "_RefUnionFind", merging_union_find)):
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(module, name, corrupt)
            with pytest.raises(ValueError, match="tensor action not well-defined") as err:
                fn(p, q)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# --- a tensor that forgets one renaming's identifications -----------------------

def _install_tensor(monkeypatch, fn):
    """Bind ``fn`` as the tensor in every module that imported it."""
    import substkit.finpresheaf
    from substkit.finpresheaf import laws, structures
    for module in (structures, substkit.finpresheaf, laws):
        monkeypatch.setattr(module, "tensor", fn)


def _skipping(key):
    return lambda p, q: literal_tensor(p, q, skip=key)


SWAP_AA = (("a", "a"), ("a", "a"), (1, 0))


def _swap_structures(seed):
    rng = rand(seed)
    homes = [Context(()), Context(("a",)), Context(("a", "a"))]
    p = free_structure(rng, (second("k"),), ("a",), 2, homes=homes,
                       ensure=[(second("k"), Context(("a", "a")))])
    return p, homog(rng, True), homog(rng, True)


def test_tensor_dropping_a_swap_fails_action_axioms_with_witness(monkeypatch):
    """Skipping the swap of [a, a] leaves the generator at [a, a] unidentified
    with its swapped environment, so the right unitor stops being injective."""
    rep = check_action_axioms(*_swap_structures(120))
    assert rep.ok, rep.to_text()
    _install_tensor(monkeypatch, _skipping(SWAP_AA))
    rep = check_action_axioms(*_swap_structures(120))
    failed = [r for r in rep.records if not r.ok]
    assert failed and all(r.witness for r in failed), rep.to_text()
    assert "right unitor bijective" in [r.name for r in failed]


def test_tensor_dropping_a_swap_fails_coend_quotient_with_witness(monkeypatch):
    """Without the swap of [b -> b, b -> b] the permutation identification
    (fn x. f (g x) against fn x. g (f x)) no longer merges, and the generator
    pairs of its cell catch the swap itself."""
    from substkit import suites
    from substkit.report import Report
    from substkit.termstruct import FB
    rep = Report()
    suites.coend_quotient(rep, seed=20260810)
    assert rep.ok, rep.to_text()
    _install_tensor(monkeypatch, _skipping(((FB, FB), (FB, FB), (1, 0))))
    rep = Report()
    suites.coend_quotient(rep, seed=20260810)
    failed = [r for r in rep.records if not r.ok]
    assert [r.name for r in failed] == [
        "the three motivating identifications merge",
        "random generator pairs symmetric"], rep.to_text()
    assert failed[0].witness.endswith("stay apart")
    assert f"over {Context((FB,))!r}: " in failed[0].witness  # the permutation
    swap = Renaming(Context((FB, FB)), Context((FB, FB)), (1, 0))
    assert failed[1].witness.startswith(f"{swap!r} on ")
