"""Term construction, renaming/substitution laws, metavariables, fold."""

import itertools
import random

import pytest

from conftest import (TOY, all_renamings, env_of_renaming, random_toy_context,
                      random_toy_env, random_toy_term, reference_fold,
                      swap_first_pair)
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.gen import TermGen
from substkit.cbv.types import all_fragment_configs, config
from substkit.sorts import Context, Renaming, compose_renamings, identity_renaming, second
from substkit import suites
from substkit.suites import check_meta_laws, check_term_laws
from substkit.terms import (HoleDecl, IllSorted, Meta, MetaSubst, Op, SubstEnv,
                            UnknownHole, Var, compose_meta_subst,
                            compose_subst, fold,
                            identity_env, identity_meta_subst, meta_substitute,
                            rename, substitute, substitute_direct,
                            MissingAlgebraCase, TermCarrier)


def lam(ctx, body):
    return Op(TOY.op("lam"), ctx, [body])


def val(ctx, v, s="v"):
    return Op(TOY.op(f"val.{s}"), ctx, [v])


def app(ctx, f, a):
    return Op(TOY.op("app"), ctx, [f, a])


def test_smart_constructors_enforce_sorting():
    ctx = Context(["v"])
    with pytest.raises(IllSorted):
        Var(ctx, 1)
    with pytest.raises(IllSorted):
        Op(TOY.op("val.v"), ctx, [Var(ctx, 0), Var(ctx, 0)])
    with pytest.raises(IllSorted):
        Op(TOY.op("val.arrow"), ctx, [Var(ctx, 0)])
    # binder context must be extended on the right
    with pytest.raises(IllSorted):
        Op(TOY.op("lam"), ctx, [val(ctx, Var(ctx, 0))])


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
        gen = TermGen(cfg, CbvOperatorTable(cfg), random.Random(20260810 + n))
        for i in range(24):
            ctx, term = gen.random_item(3, 4, {}, hole_prob=0.35 * (i % 2))
            sigma = gen.random_subst(ctx)
            assert substitute(term, sigma) == reference_fold(
                term, rebuild, rebuild_meta, sigma.entries, sigma.target,
                TermCarrier)


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


def test_fold_missing_algebra_case():
    ctx = Context(["v"])
    t = val(ctx, Var(ctx, 0))
    with pytest.raises(MissingAlgebraCase):
        fold(t, {"app": lambda op, vs, c: None}, {}, identity_env(ctx).entries,
             ctx, TermCarrier)


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
