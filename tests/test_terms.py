"""Term construction, renaming/substitution laws, metavariables, fold."""

import copy
import itertools
import pickle
import random

import pytest

from conftest import (TOY, all_renamings, env_of_renaming, random_toy_context,
                      random_toy_env, random_toy_term, reference_fold,
                      swap_first_pair)
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.gen import TermGen
from substkit.cbv.types import (Base, all_fragment_configs, config, fun, record,
                                types_upto)
from substkit.sorts import (Context, Renaming, Sort, compose_renamings, first,
                            identity_renaming, second)
from substkit import suites, terms
from substkit.suites import check_meta_laws, check_term_laws
from substkit.terms import (FoldMemo, HoleDecl, IllSorted, Meta, MetaSubst, Op,
                            SubstEnv, UnknownHole, Var, compose_meta_subst,
                            compose_subst, fold,
                            identity_env, identity_meta_subst, meta_substitute,
                            rename, substitute, substitute_direct, TermCarrier)


def lam(ctx, body):
    return Op(TOY["lam"], ctx, [body])


def val(ctx, v, s="v"):
    return Op(TOY[f"val.{s}"], ctx, [v])


def app(ctx, f, a):
    return Op(TOY["app"], ctx, [f, a])


def test_smart_constructors_enforce_sorting():
    ctx = Context(["v"])
    with pytest.raises(IllSorted):
        Var(ctx, 1)
    with pytest.raises(IllSorted):
        Op(TOY["val.v"], ctx, [Var(ctx, 0), Var(ctx, 0)])
    with pytest.raises(IllSorted):
        Op(TOY["val.arrow"], ctx, [Var(ctx, 0)])
    # binder context must be extended on the right
    with pytest.raises(IllSorted):
        Op(TOY["lam"], ctx, [val(ctx, Var(ctx, 0))])


def test_rename_identity_law(rng):
    for _ in range(60):
        ctx = random_toy_context(rng)
        t = random_toy_term(rng, ctx, second("v"), 3)
        assert rename(t, identity_renaming(ctx)) == t


def test_permutation_renaming_swaps_positions():
    ctx = Context(["b1", "fn", "fn", "b1"])
    # the toy signature does not know these sorts; the law only needs Var
    rho = Renaming(ctx, ctx, (0, 2, 1, 0))
    assert rename(Var(ctx, 2), rho) == Var(ctx, 1)


def test_rename_composition_law(rng):
    for _ in range(60):
        g1 = random_toy_context(rng)
        g2 = random_toy_context(rng)
        g3 = random_toy_context(rng)
        r1s = list(all_renamings(g1, g2))
        r2s = list(all_renamings(g2, g3))
        if not r1s or not r2s:
            continue
        r1, r2 = rng.choice(r1s), rng.choice(r2s)
        t = random_toy_term(rng, g3, second("v"), 3)
        assert rename(rename(t, r2), r1) == rename(t, compose_renamings(r1, r2))


def test_substitute_var_is_lookup(rng):
    for _ in range(40):
        src = random_toy_context(rng)
        if not len(src):
            continue
        tgt = random_toy_context(rng)
        sigma = random_toy_env(rng, src, tgt)
        i = rng.randrange(len(src))
        assert substitute(Var(src, i), sigma) == sigma.entries[i]


def test_substitute_identity_env(rng):
    for _ in range(60):
        ctx = random_toy_context(rng)
        t = random_toy_term(rng, ctx, second(rng.choice(("v", "arrow"))), 3)
        assert substitute(t, identity_env(ctx)) == t


def test_substitute_under_binder_example():
    # (lam x. f (g x))[f -> h, g -> h] over [h] is lam x. h (h x)
    src = Context(["arrow", "arrow"])
    tgt = Context(["arrow"])

    def body(ctx):
        inner = Context(ctx.entries + ("v",))
        fpos = [i for i, e in enumerate(ctx.entries) if e == "arrow"]
        f = val(inner, Var(inner, fpos[0]), "arrow")
        g = val(inner, Var(inner, fpos[-1]), "arrow")
        x = val(inner, Var(inner, len(ctx)))
        return lam(ctx, app(inner, f, app(inner, g, x)))

    sigma = SubstEnv(src, tgt, (Var(tgt, 0), Var(tgt, 0)))
    assert substitute(body(src), sigma) == body(tgt)


def test_substitution_associativity(rng):
    for _ in range(80):
        g1 = random_toy_context(rng)
        g2 = random_toy_context(rng)
        g3 = random_toy_context(rng)
        t = random_toy_term(rng, g1, second("v"), 3)
        s1 = random_toy_env(rng, g1, g2)
        s2 = random_toy_env(rng, g2, g3)
        assert substitute(substitute(t, s1), s2) == substitute(t, compose_subst(s1, s2))


def test_renaming_factors_through_substitution(rng):
    for _ in range(60):
        g1 = random_toy_context(rng)
        g2 = random_toy_context(rng)
        rhos = list(all_renamings(g1, g2))
        if not rhos:
            continue
        rho = rng.choice(rhos)
        t = random_toy_term(rng, g2, second("v"), 3)
        assert rename(t, rho) == substitute(t, env_of_renaming(rho))


def test_oracle_agreement(rng):
    for _ in range(150):
        g1 = random_toy_context(rng)
        g2 = random_toy_context(rng)
        holes = {}
        t = random_toy_term(rng, g1, second("v"), 4, holes, 0.2)
        sigma = random_toy_env(rng, g1, g2)
        assert substitute(t, sigma) == substitute_direct(t, sigma)


# --- metavariables -----------------------------------------------------------

def holed_corpus(rng, n=60):
    out = []
    for _ in range(n):
        ctx = random_toy_context(rng)
        holes = {}
        t = random_toy_term(rng, ctx, second("v"), 3, holes, 0.4)
        out.append((t, holes))
    return out


def random_meta_subst(rng, holes, hole_prob=0.3):
    new_holes = {}
    mapping = {}
    for ident, h in holes.items():
        body = random_toy_term(rng, h.ctx, h.sort, 2, new_holes, hole_prob)
        mapping[ident] = (h, body)
    return MetaSubst(mapping), new_holes


def test_meta_unit_is_identity(rng):
    for t, holes in holed_corpus(rng):
        assert meta_substitute(t, identity_meta_subst(holes.values())) == t


def test_meta_on_closed_terms(rng):
    for _ in range(20):
        ctx = random_toy_context(rng)
        t = random_toy_term(rng, ctx, second("v"), 3)
        assert meta_substitute(t, MetaSubst({})) == t


def test_meta_kleisli_associativity(rng):
    for t, holes in holed_corpus(rng):
        ms1, mid_holes = random_meta_subst(rng, holes)
        ms2, _ = random_meta_subst(rng, mid_holes, hole_prob=0.0)
        lhs = meta_substitute(meta_substitute(t, ms1), ms2)
        rhs = meta_substitute(t, compose_meta_subst(ms1, ms2))
        assert lhs == rhs


def test_meta_commutes_with_substitution(rng):
    for t, holes in holed_corpus(rng):
        ms, _ = random_meta_subst(rng, holes, hole_prob=0.0)
        tgt = random_toy_context(rng)
        sigma = random_toy_env(rng, t.ctx, tgt)
        assert substitute(meta_substitute(t, ms), sigma) == \
            meta_substitute(substitute(t, sigma), ms)


def test_unknown_hole():
    h = HoleDecl("h", second("v"), Context(()))
    t = Meta(h, Context(()), ())
    with pytest.raises(UnknownHole):
        meta_substitute(t, MetaSubst({}))


# --- the hole clause and the sharing of unchanged nodes ---------------------

META_CFG = config(("sequential", "functions"), ("b", "c"), nat_bound=4)
# the Op nodes meta_substitute builds in one check_meta_laws call, below
BUILT_BY_META_SUBST = 57


def _metas(t):
    """Every metavariable node of a term, those inside environments too."""
    if type(t) is Op:
        for a in t.args:
            yield from _metas(a)
    elif type(t) is Meta:
        yield t
        for e in t.env:
            yield from _metas(e)


def hole_clause_failures(count):
    """The items of a holed corpus of ``META_CFG`` at which
    ``terms.meta_substitute``, given a hole-free body for every hole, leaves
    a hole in its result, or sends a hole to something other than its body
    substituted at the hole's meta-substituted environment."""
    gen = TermGen(CbvOperatorTable(META_CFG), random.Random(20260810))
    failed, holed = [], 0
    for i in range(count):
        holes: dict = {}
        _, term = gen.random_item(3, 3, holes, hole_prob=0.35)
        holed += bool(holes)
        ms = MetaSubst({ident: (h, gen.random_at(h.ctx, h.sort, 2))
                        for ident, h in holes.items()})
        if any(_metas(terms.meta_substitute(term, ms))):
            failed.append(i)
            continue
        for m in _metas(term):
            env = tuple(terms.meta_substitute(e, ms) for e in m.env)
            want = substitute(ms.body(m.hole), SubstEnv(m.hole.ctx, m.ctx, env))
            if terms.meta_substitute(m, ms) != want:
                failed.append(i)
                break
    assert holed >= count // 4, holed
    return failed


HOLE_CLAUSE_TERMS = 120


def test_meta_substitution_fills_every_hole_with_its_instantiated_body():
    assert hole_clause_failures(HOLE_CLAUSE_TERMS) == []


def test_meta_substitution_that_keeps_the_term_fails_the_hole_clause(
        monkeypatch):
    """The identity passes the three meta laws, which only equate one
    meta-substitution result with another."""
    monkeypatch.setattr(terms, "meta_substitute", lambda t, ms: t)
    assert hole_clause_failures(HOLE_CLAUSE_TERMS)


def test_meta_substitution_that_shares_too_much_fails_the_hole_clause(
        monkeypatch):
    """A node is kept whenever its first argument comes back unchanged, so a
    hole below a later argument survives."""
    real = terms.meta_substitute

    def over_sharing(t, ms):
        if type(t) is Op and t.args:
            new = [terms.meta_substitute(a, ms) for a in t.args]
            return t if new[0] is t.args[0] else Op(t.op, t.ctx, new)
        return real(t, ms)

    monkeypatch.setattr(terms, "meta_substitute", over_sharing)
    assert hole_clause_failures(HOLE_CLAUSE_TERMS)


def test_meta_substitution_rebuilds_only_the_nodes_above_a_hole(monkeypatch):
    """The Op nodes ``meta_substitute`` builds itself (not through
    ``substitute``) in one ``check_meta_laws`` call.  Rebuilding every
    operator node it met, it built 544; returning a node whose arguments
    all come back identical, it builds one per operator node with a hole
    below it that is filled: 57, at each of hash seeds 0-5."""
    built = 0
    real = terms.meta_substitute

    def counted(t, ms):
        nonlocal built
        out = real(t, ms)
        built += type(t) is Op and out is not t
        return out

    monkeypatch.setattr(terms, "meta_substitute", counted)
    monkeypatch.setattr(suites, "meta_substitute", counted)
    rep = check_meta_laws(META_CFG, 20260810, count=20)
    assert rep.ok, rep.to_text()
    assert 0 < built <= BUILT_BY_META_SUBST


def test_meta_substitution_returns_hole_free_subterms_themselves(rng):
    for t, holes in holed_corpus(rng):
        ms, _ = random_meta_subst(rng, holes, hole_prob=0.0)
        out = meta_substitute(t, ms)
        assert (out is t) == (not holes)
        if holes and type(t) is Op:
            for arg, got in zip(t.args, out.args):
                assert (got is arg) == (not any(_metas(arg)))


# --- fold ---------------------------------------------------------------------

def test_fold_identity_algebra(rng):
    for _ in range(40):
        ctx = random_toy_context(rng)
        holes = {}
        t = random_toy_term(rng, ctx, second("v"), 3, holes, 0.3)
        rebuilt = fold(t, lambda op, vs, c: Op(op, c, vs),
                       lambda h, vs, c: Meta(h, c, vs),
                       identity_env(ctx).entries, ctx, TermCarrier)
        assert rebuilt == t


class _CountCarrier:
    @staticmethod
    def act(v, rho):
        return v

    @staticmethod
    def var(ctx, pos):
        return 1


def node_count(t):
    if isinstance(t, Var):
        return 1
    if isinstance(t, Op):
        return 1 + sum(node_count(a) for a in t.args)
    return 1 + sum(node_count(e) for e in t.env)


def test_fold_size_algebra_matches_direct_recursion(rng):
    for _ in range(40):
        ctx = random_toy_context(rng)
        holes = {}
        t = random_toy_term(rng, ctx, second("v"), 3, holes, 0.3)
        size = fold(t, lambda op, vs, c: 1 + sum(vs),
                    lambda h, vs, c: 1 + sum(vs),
                    [1] * len(ctx), ctx, _CountCarrier)
        assert size == node_count(t)


def variables(t):
    if isinstance(t, Var):
        return [t]
    return [v for s in (t.args if isinstance(t, Op) else t.env) for v in variables(s)]


class _ActLog:
    """A carrier whose values are labels: it logs every label it acts on and
    every position it makes a point at.  A point is labelled by its position,
    so acting on it along a projection gives the point again (it is natural)."""

    def __init__(self):
        self.acted, self.points = [], []

    def act(self, value, rho):
        self.acted.append(value)
        return value

    def var(self, ctx, pos):
        self.points.append(pos)
        return ("point", pos)


def _reads(node, values, ctx):
    """The labels the variables under a node read."""
    return frozenset().union(*(v if isinstance(v, frozenset) else {v}
                               for v in values))


def test_fold_acts_once_per_variable_and_only_on_read_entries(rng):
    lazy = eager = 0
    for _ in range(80):
        ctx = random_toy_context(rng)
        t = random_toy_term(rng, ctx, second("v"), 4, {}, 0.2)
        env = [("entry", i) for i in range(len(ctx))]
        log = _ActLog()
        read = fold(t, _reads, _reads, env, ctx, log)
        free = [v for v in variables(t) if v.index < len(ctx)]
        bound = [v for v in variables(t) if v.index >= len(ctx)]
        # one point per bound occurrence, at its own position; no act on a point
        assert sorted(log.points) == sorted(v.index for v in bound)
        assert len(log.acted) <= len(free)
        assert set(log.acted) <= read & {("entry", v.index) for v in free}
        ref = _ActLog()
        assert reference_fold(t, _reads, _reads, env, ctx, ref) == read
        lazy, eager = lazy + len(log.acted), eager + len(ref.acted)
    # the eager rule acts on entries no variable reads
    assert lazy < eager


def test_lazy_fold_substitutes_as_the_eager_reference():
    """The term-law corpus, with and without holes, of 16 configurations."""
    rebuild = lambda op, values, ctx: Op(op, ctx, values)
    rebuild_meta = lambda hole, values, ctx: Meta(hole, ctx, values)
    for n, cfg in enumerate(all_fragment_configs()[::8]):
        gen = TermGen(CbvOperatorTable(cfg), random.Random(20260810 + n))
        for i in range(24):
            ctx, term = gen.random_item(3, 4, {}, hole_prob=0.35 * (i % 2))
            sigma = gen.random_subst(ctx)
            assert substitute(term, sigma) == reference_fold(
                term, rebuild, rebuild_meta, sigma.entries, sigma.target,
                TermCarrier)


def test_a_fold_memo_substitutes_as_the_fold_without_one(rng):
    """Through one memo per substitution, terms with and without holes are
    substituted as without a memo; a subterm object met twice is
    substituted once, and its image is one object; a memo made for another
    substitution is refused."""
    for _ in range(40):
        ctx = random_toy_context(rng)
        sigma = random_toy_env(rng, ctx, random_toy_context(rng))
        memo = FoldMemo(sigma)
        for _ in range(4):
            t = random_toy_term(rng, ctx, second("v"), 3, {}, 0.3)
            assert substitute(t, sigma, memo) == substitute(t, sigma)
    ctx = Context(["v", "arrow"])
    inner = ctx.extend(Context(["v"]))
    sigma = random_toy_env(rng, ctx, Context(["v", "arrow"]))
    # val (fn y. val x0), met in two applications
    shared = val(ctx, lam(ctx, val(inner, Var(inner, 0))), "arrow")
    memo = FoldMemo(sigma)
    one = substitute(app(ctx, shared, val(ctx, Var(ctx, 0))), sigma, memo)
    two = substitute(app(ctx, shared, app(ctx, val(ctx, Var(ctx, 1), "arrow"),
                                         val(ctx, Var(ctx, 0)))), sigma, memo)
    assert one.args[0] is two.args[0]
    assert one.args[0] == substitute(shared, sigma)
    other = SubstEnv(sigma.source, sigma.target, sigma.entries)
    with pytest.raises(ValueError, match="cannot serve"):
        substitute(shared, other, memo)


@pytest.mark.parametrize("ctx_len, env_len", [(2, 3), (3, 2)])
def test_fold_rejects_an_environment_of_the_wrong_length(ctx_len, env_len):
    """A longer environment, and a shorter one, whose missing entry would
    otherwise turn the last free variable into a bound one."""
    ctx = Context(["v"] * ctx_len)
    t = val(ctx, Var(ctx, ctx_len - 1))
    with pytest.raises(IllSorted):
        fold(t, _reads, _reads, [("entry", i) for i in range(env_len)], ctx,
             _ActLog())


def test_term_points_are_natural_along_projections():
    """``rename(Var(c, j), pi) == Var(c ++ d, j)`` for the projection ``pi``
    of every context ``c ++ d`` of length up to 3 onto its prefix ``c``."""
    for size in range(4):
        for entries in itertools.product(("v", "arrow"), repeat=size):
            big = Context(entries)
            for k in range(size + 1):
                small = Context(entries[:k])
                pi = Renaming(big, small, range(k))
                for j in range(k):
                    assert rename(Var(small, j), pi) == Var(big, j)


# --- hashing -------------------------------------------------------------------

def subterms(t):
    yield t
    for child in (t.args if type(t) is Op else t.env if type(t) is Meta else ()):
        yield from subterms(child)


def test_terms_are_hashed_on_demand_with_the_structural_formula(rng):
    for t, _ in holed_corpus(rng):
        nodes = list(subterms(t))
        assert not any(hasattr(s, "_hash") for s in nodes)
        for s in nodes:
            if type(s) is Var:
                want = hash(("v", s.index, s.ctx))
            elif type(s) is Op:
                want = hash(("o", s.op.label, s.args, s.ctx))
            else:
                want = hash(("m", s.hole.ident, s.env, s.ctx))
            assert hash(s) == want
        assert all(hasattr(s, "_hash") for s in nodes)


def test_equal_terms_built_separately_hash_equal(rng):
    for t, _ in holed_corpus(rng):
        ctx = Context(t.ctx.entries)
        back = rename(t, Renaming(ctx, t.ctx, range(len(ctx))))
        assert back == t and back.ctx is not t.ctx
        assert hash(back) == hash(t)
        assert len({t, back}) == 1


def test_swapping_act_fails_term_laws_with_witness(monkeypatch):
    cfg = config(("sequential", "functions"), ("b",))
    assert check_term_laws(cfg, 7, count=10).ok
    monkeypatch.setattr(TermCarrier, "act", staticmethod(
        lambda value, rho: rename(value, swap_first_pair(rho))))
    rep = check_term_laws(cfg, 7, count=10)
    failed = {r.name.split(" (")[0]: r.witness for r in rep.failures}
    assert failed.get("oracle agreement", "").startswith("item ")
    assert all(r.witness for r in rep.failures)


def test_wrong_point_fails_term_laws_with_witness(monkeypatch):
    """A point that answers a bound position with another position of the
    same sort, whenever the context has one."""
    def var(ctx, pos):
        same = [j for j, s in enumerate(ctx.entries) if j != pos
                and s == ctx.entries[pos]]
        return Var(ctx, same[0] if same else pos)
    cfg = config(("sequential", "functions"), ("b",))
    assert check_term_laws(cfg, 7, count=10).ok
    monkeypatch.setattr(TermCarrier, "var", staticmethod(var))
    rep = check_term_laws(cfg, 7, count=10)
    failed = {r.name.split(" (")[0]: r.witness for r in rep.failures}
    assert failed.get("oracle agreement", "").startswith("item ")
    assert all(r.witness for r in rep.failures)


def test_act_wrong_on_composite_projections_fails_term_laws_with_witness(monkeypatch):
    """A weakening that is not functorial: right along a projection that drops
    one position, swapped along one that drops two or more.  The lazy fold
    acts along the composite projection, so the laws see the difference."""
    def act(value, rho):
        if len(rho.source) - len(rho.target) >= 2:
            rho = swap_first_pair(rho)
        return rename(value, rho)
    cfg = config(("sequential", "functions"), ("b",))
    assert check_term_laws(cfg, 7, count=10).ok
    monkeypatch.setattr(TermCarrier, "act", staticmethod(act))
    rep = check_term_laws(cfg, 7, count=10)
    failed = {r.name.split(" (")[0]: r.witness for r in rep.failures}
    assert failed.get("oracle agreement", "").startswith("item ")
    assert all(r.witness for r in rep.failures)


def test_dropped_second_meta_subst_fails_meta_laws_with_witness(monkeypatch):
    """A composition of metavariable substitutions that keeps the first and
    drops the second."""
    cfg = config(("sequential", "functions"), ("b", "c"), nat_bound=4)
    assert check_meta_laws(cfg, 20260810, count=20).ok
    monkeypatch.setattr(suites, "compose_meta_subst", lambda ms1, ms2: ms1)
    rep = check_meta_laws(cfg, 20260810, count=20)
    failed = {r.name.split(" (")[0]: r.witness for r in rep.failures}
    assert failed.get("Kleisli associativity", "").startswith("item ")
    assert all(r.witness for r in rep.failures)


# --- sorts are pairs, one binder context per table -----------------------------

def _op_children(t):
    """Every (operator node, argument declaration, argument) of a term."""
    if type(t) is Op:
        for decl, arg in zip(t.op.args, t.args):
            yield t, decl, arg
            yield from _op_children(arg)
    elif type(t) is Meta:
        for e in t.env:
            yield from _op_children(e)


def test_a_sort_is_the_value_pair_of_its_tag_and_identifier():
    t = fun(Base("b"), record((("A", Base("b")),)))
    u = fun(Base("b"), record((("A", Base("b")),)))
    assert first(t) == first(u) == Sort("first", t) and second(t) == second(u)
    assert first(t) != second(t) and first(t).ident is t
    assert first(t).tag == "first" and first(t).is_first
    assert second(t).tag == "second" and not second(t).is_first
    assert first("v") == first("v") == ("first", "v")
    assert hash(first(t)) == hash(("first", t)) == hash(Sort("first", u))
    assert hash(second("v")) == hash(("second", "v"))
    assert repr(first(t)) == repr(first(u)) == f"Fst({t!r})"
    assert repr(second(t)) == repr(Sort("second", t)) == f"Snd({t!r})"
    with pytest.raises(AttributeError):
        first(t).tag = "second"
    with pytest.raises(AttributeError):
        first(t).owner = t
    with pytest.raises(ValueError):
        Sort("third", "v")


def test_generated_variables_and_minted_operators_name_one_type_object():
    """A variable over a universe type and the argument it fills name that
    one type object, and every binder context of a table is its one
    object."""
    checked = 0
    for n, cfg in enumerate(all_fragment_configs()[::8]):
        table = CbvOperatorTable(cfg)
        gen = TermGen(table, random.Random(n))
        universe = {t: t for t in types_upto(cfg, 2)}
        for _ in range(20):
            _, term = gen.random_item(3, 4)
            for node, decl, arg in _op_children(term):
                assert arg.ctx is node.ctx.extend(decl.binder)
                if type(arg) is Var:
                    entry = arg.ctx.entries[arg.index]
                    if universe.get(entry) is entry:
                        assert decl.sort.ident is entry, (node, arg)
                        assert arg.sort == decl.sort
                        checked += 1
    assert checked > 100


def test_family_types_are_read_through_the_fragment_universe():
    cfg = config(("functions", "records", "variants", "sequential"))
    table = CbvOperatorTable(cfg)
    universe = types_upto(cfg, 2)
    b = Base("b")
    # a type is one object across the process: a fresh one is the universe's
    fresh_fun, fresh_rec = fun(b, b), record((("A", b),))
    assert any(t is fresh_fun for t in universe)
    assert any(t is fresh_rec for t in universe)
    assert table.val(fresh_fun).args[0].sort.ident is fresh_fun
    assert table.lam(b, b).result_sort.ident is fresh_fun
    assert table.vrec(fresh_rec.row).result_sort.ident is fresh_rec
    assert table.let((b, fresh_fun), b).args[1].binder is \
        table.lam(b, b).args[0].binder


def test_equal_but_distinct_sorts_and_contexts_pass_the_equality_fallback():
    # string identifiers get a fresh sort per call
    ctx = Context(["v"])
    v = Var(ctx, 0)
    assert v.sort is not TOY["val.v"].args[0].sort
    assert Op(TOY["val.v"], ctx, [v]).args == (v,)
    # an unpickled term has sorts and contexts of its own, equal to those of
    # the table that minted its operators
    cfg = config(("functions", "sequential"))
    gen = TermGen(CbvOperatorTable(cfg), random.Random(3))
    for _ in range(20):
        _, term = gen.random_item(3, 4)
        copy_ = pickle.loads(pickle.dumps(term))
        if type(term) is not Op:
            continue
        rebuilt = Op(term.op, Context(term.ctx.entries), copy_.args)
        assert rebuilt == term
        assert all(a.sort is not d.sort and a.sort == d.sort
                   for a, d in zip(copy_.args, term.op.args))


ILL_SORTED = {
    "operator argument sort": (
        lambda: Op(TOY["val.arrow"], Context(["v"]), [Var(Context(["v"]), 0)]),
        "val.arrow argument 0: sort Fst('v'), expected Fst('arrow')"),
    "operator argument context": (
        lambda: lam(Context(["v"]), val(Context(["v"]), Var(Context(["v"]), 0))),
        "lam argument 0: context Context['v'], expected Context['v', 'v']"),
    "hole entry sort": (
        lambda: Meta(HoleDecl("h", second("v"), Context(["arrow"])),
                     Context(["v"]), [Var(Context(["v"]), 0)]),
        "hole h: entry 0 has sort Fst('v')"),
    "hole entry context": (
        lambda: Meta(HoleDecl("h", second("v"), Context(["v"])),
                     Context(["v"]), [Var(Context(["v", "v"]), 0)]),
        "hole h: entry 0 over Context['v', 'v'], expected Context['v']"),
    "substitution entry sort": (
        lambda: SubstEnv(Context(["arrow"]), Context(["v"]),
                         [Var(Context(["v"]), 0)]),
        "entry 0: sort Fst('v'), expected Fst('arrow')"),
    "substitution entry context": (
        lambda: SubstEnv(Context(["v"]), Context(["v"]),
                         [Var(Context(["v", "v"]), 0)]),
        "entry 0 over Context['v', 'v'], expected Context['v']"),
    "sort over a type": (
        lambda: Op(CbvOperatorTable(config(("functions",))).val(Base("b")),
                   Context((fun(Base("b"), Base("b")),)),
                   [Var(Context((fun(Base("b"), Base("b")),)), 0)]),
        "val<b> argument 0: sort Fst(Fun(dom=Base(name='b'), "
        "cod=Base(name='b'))), expected Fst(Base(name='b'))"),
    "operator arity": (
        lambda: Op(TOY["val.v"], Context(["v"]),
                   [Var(Context(["v"]), 0), Var(Context(["v"]), 0)]),
        "val.v: expected 1 arguments, got 2"),
    "variable out of range": (
        lambda: Var(Context(["v"]), 1),
        "variable 1 out of range for Context['v']"),
    "operator argument sort after a good one": (
        lambda: app(Context(["arrow"]), val(Context(["arrow"]),
                                            Var(Context(["arrow"]), 0), "arrow"),
                    val(Context(["arrow"]), Var(Context(["arrow"]), 0), "arrow")),
        "app argument 1: sort Snd('arrow'), expected Snd('v')"),
    "operator argument context after a good one": (
        lambda: Op(TOY["let"], Context(["v"]),
                   [val(Context(["v"]), Var(Context(["v"]), 0))] * 2),
        "let argument 1: context Context['v'], expected Context['v', 'v']"),
    "hole entry sort after a good one": (
        lambda: Meta(HoleDecl("h", second("v"), Context(["v", "arrow"])),
                     Context(["v"]), [Var(Context(["v"]), 0)] * 2),
        "hole h: entry 1 has sort Fst('v')"),
    "substitution entry context after a good one": (
        lambda: SubstEnv(Context(["v", "v"]), Context(["v"]),
                         [Var(Context(["v"]), 0), Var(Context(["v", "v"]), 0)]),
        "entry 1 over Context['v', 'v'], expected Context['v']"),
}


@pytest.mark.parametrize("case", ILL_SORTED)
def test_mismatched_sorts_and_contexts_raise_the_same_message(case):
    build, message = ILL_SORTED[case]
    with pytest.raises(IllSorted) as err:
        build()
    assert str(err.value) == message


def test_sorts_types_and_terms_round_trip_through_pickle_and_deepcopy():
    t = fun(Base("b"), record((("A", Base("b")),)))
    for copier in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        for s in (first("v"), second("v"), first(t), second(t)):
            c = copier(s)
            assert c == s and hash(c) == hash(s) and repr(c) == repr(s)
        u, s = copier((t, first(t)))
        assert u == t and s == first(u) and s.ident is u
        cfg = config(("functions", "sequential", "records", "variants"))
        gen = TermGen(CbvOperatorTable(cfg), random.Random(5))
        for _ in range(20):
            ctx, term = gen.random_item(3, 4, holes={}, hole_prob=0.2)
            c = copier(term)
            assert c == term and hash(c) == hash(term) and c.sort == term.sort
            env = identity_env(ctx)
            assert copier(env) == env
            assert substitute(c, copier(env)) == term
