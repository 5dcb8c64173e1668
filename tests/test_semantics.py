"""Type interpretation, denotation clauses, compatibility, substitution lemma."""

import importlib
import itertools
import random

import pytest

from conftest import all_renamings, contexts_upto, reference_fold, swap_first_pair
from substkit.cbv import Base, NAT, config, fun, maybe_shape, record, variant
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.gen import TermGen, enumerate_terms
from substkit.cbv.surface import parse
from substkit.cbv.typecheck import typecheck
from substkit.cbv.types import valid_type
from substkit.semantics import (IdentityMonad, OptionMonad, UnsupportedCapability,
                                interp_size, interpret_type, model, precompose)
from substkit.semantics.checks import (check_compatibility, check_sem_action_axioms,
                                       check_substitution_lemma_exhaustive,
                                       check_substitution_lemma_random)
from substkit.semantics.denote import DenotationCarrier, Interpreter, denote
from substkit.semantics.model import (Denotation, context_space, identity_sem_env,
                                      projection)
from substkit.sorts import Context, Renaming, first, second
from substkit.terms import Op, Var, substitute

B = Base("b")
# the package re-exports functions named like these modules
denote_module = importlib.import_module("substkit.semantics.denote")
model_module = importlib.import_module("substkit.semantics.model")


def same_table(d1: Denotation, d2: Denotation) -> bool:
    return d1.ctx == d2.ctx and d1.sort == d2.sort and d1.table() == d2.table()


def test_interpret_type_spec_examples():
    m = model(OptionMonad(), {"b": 2})
    # empty record: a singleton
    assert interpret_type(record(()), m, 8).size == 1
    # function space: (option over 2)^2 = 9
    assert interpret_type(fun(B, B), m, 8).size == 9
    assert interp_size(fun(B, B), m, 8) == 9
    # the zero/successor variant at bound 3: 1 + 3 = 4
    assert interpret_type(maybe_shape(NAT), m, 3).size == 4
    # labelled product
    assert interpret_type(record((("A", B), ("Z", B))), m, 8).size == 4


def test_variable_denotes_projection():
    cfg = config(())
    m = model(IdentityMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    d = denote(Var(Context((B,)), 0), m, cfg, table)
    assert d.table() == ("b0", "b1")


def test_val_under_identity_is_identity():
    cfg = config(())
    m = model(IdentityMonad(), {"b": 3})
    table = CbvOperatorTable(cfg)
    t = typecheck(parse("val x0"), Context((B,)), second(B), cfg, table)
    d = denote(t, m, cfg, table)
    assert d.table() == tuple(p[0] for p in d.space)


@pytest.mark.parametrize("monad_name", ["identity", "option", "exception",
                                        "writer", "state", "powerset"])
def test_let_of_val_collapses(monad_name):
    from substkit.semantics import monad_by_name
    cfg = config(("sequential",))
    m = model(monad_by_name(monad_name), {"b": 2})
    table = CbvOperatorTable(cfg)
    ctx = Context((B,))
    t1 = typecheck(parse("let y = val x0 in val y"), ctx, second(B), cfg, table)
    t2 = typecheck(parse("val x0"), ctx, second(B), cfg, table)
    assert same_table(denote(t1, m, cfg, table), denote(t2, m, cfg, table))


def test_app_beta_on_identity_function():
    cfg = config(("functions",))
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    ctx = Context((B,))
    t = typecheck(parse("(val fn y: b . val y) (val x0)"), ctx, second(B),
                  cfg, table)
    d = denote(t, m, cfg, table)
    assert d.table() == tuple(("some", p[0]) for p in d.space)


def test_records_and_variants_evaluate():
    cfg = config(("records", "variants"), ("b",))
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    src = ("case (val <A: b, Z: b>.A x0) of "
           "{A u -> val {L = u, R = x0} | Z w -> val {L = w, R = w}}")
    t = typecheck(parse(src), Context((B,)),
                  second(record((("L", B), ("R", B)))), cfg, table)
    d = denote(t, m, cfg, table)
    assert d.at(("b1",)) == ("some", ("b1", "b1"))


def test_roll_overflow_is_absence_under_option():
    cfg = config(("naturals",), nat_bound=2)
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    t = typecheck(parse("roll (val <0: {}, 1+: Nat>.1+ 1)"), Context(()),
                  second(NAT), cfg, table)
    assert denote(t, m, cfg, table).at(()) == ("none",)


def test_roll_overflow_errors_without_partiality():
    cfg = config(("naturals",), nat_bound=2)
    m = model(IdentityMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    t = typecheck(parse("roll (val <0: {}, 1+: Nat>.1+ 1)"), Context(()),
                  second(NAT), cfg, table)
    with pytest.raises(UnsupportedCapability):
        denote(t, m, cfg, table).at(())


def test_while_requires_elgot_capability():
    cfg = config(("while",))
    m = model(IdentityMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    src = "for i = val x0 do val (<Done: b, Cont: b>.Done i)"
    t = typecheck(parse(src), Context((B,)), second(B), cfg, table)
    with pytest.raises(UnsupportedCapability):
        denote(t, m, cfg, table)


def test_sem_action_axioms_both_monads():
    for mon in (IdentityMonad(), OptionMonad()):
        rep = check_sem_action_axioms(model(mon, {"b": 2}),
                                      config(("sequential",)), cap=60)
        assert rep.ok, rep.to_text()


@pytest.mark.parametrize("fragment,exts", [("base", ()),
                                           ("sequential", ("sequential",)),
                                           ("functions", ("functions",))])
def test_compatibility(fragment, exts):
    for mon in (IdentityMonad(), OptionMonad()):
        rep = check_compatibility(fragment, model(mon, {"b": 2}), config(exts))
        assert rep.ok, rep.to_text()


@pytest.mark.parametrize("fragment,exts,fam", [("base", (), "val"),
                                               ("sequential", ("sequential",), "let"),
                                               ("functions", ("functions",), "lam"),
                                               ("functions", ("functions",), "app")])
def test_compatibility_mutations_fail(fragment, exts, fam, corrupt_clause):
    corrupt_clause(fam)
    rep = check_compatibility(fragment, model(OptionMonad(), {"b": 2}),
                              config(exts))
    failure = rep.first_failure()
    assert failure is not None and failure.witness


def test_substitution_lemma_exhaustive_small():
    rep = check_substitution_lemma_exhaustive(
        config(("sequential",)), model(OptionMonad(), {"b": 2}))
    assert rep.ok, rep.to_text()


def test_substitution_lemma_random_heavy_fragments():
    m = model(OptionMonad(), {"b": 2})
    for exts in (("naturals", "while"), ("recursion", "records"),
                 ("variants", "naturals", "while", "recursion")):
        cfg = config(exts, ("b",), nat_bound=4)
        rep = check_substitution_lemma_random(cfg, m, seed=11, count=25)
        assert rep.ok, rep.to_text()


def test_swapping_act_fails_substitution_lemma_with_witness(monkeypatch):
    """A well-sorted mutant of the denotation carrier's action: it
    pre-composes with a renaming whose images of two same-typed positions are
    swapped."""
    cfg = config(("sequential", "functions"))
    m, identity = model(OptionMonad(), {"b": 2}), model(IdentityMonad(), {"b": 2})
    assert check_substitution_lemma_random(cfg, m, seed=20260810, count=50).ok
    assert check_substitution_lemma_exhaustive(cfg, identity).ok
    monkeypatch.setattr(DenotationCarrier, "act", lambda self, d, rho: precompose(
        d, swap_first_pair(rho), self.m, self.nat_bound))
    failure = check_substitution_lemma_random(cfg, m, seed=20260810,
                                              count=50).first_failure()
    assert failure is not None and failure.witness.startswith("term ")
    assert " env " in failure.witness
    failure = check_substitution_lemma_exhaustive(cfg, identity).first_failure()
    assert failure is not None and failure.witness


def test_denotation_points_are_natural_along_projections():
    """The projection at position ``j`` of ``c``, pre-composed with the
    projection of ``c ++ d`` onto ``c``, has the table of the projection at
    ``j`` of ``c ++ d``: every context of length up to 3."""
    m, nb = model(OptionMonad(), {"b": 2}), 4
    for size in range(4):
        for entries in itertools.product((B, fun(B, B)), repeat=size):
            big = Context(entries)
            for k in range(size + 1):
                small = Context(entries[:k])
                pi = Renaming(big, small, range(k))
                for j in range(k):
                    moved = precompose(projection(small, j, m, nb), pi, m, nb)
                    assert same_table(moved, projection(big, j, m, nb))


def test_precompose_reindexes_as_the_generator_reference():
    """Every renaming between contexts of length up to 3 over two types: the
    prefix path and the general path give the table of the reindexing that
    builds the point with a generator expression."""
    m, nb = model(IdentityMonad(), {"b": 2}), 4
    for tgt in contexts_upto((B, fun(B, B)), 3):
        d = Denotation(second(B), tgt, m, nb, lambda p: p)
        for src in contexts_upto((B, fun(B, B)), 3):
            for rho in all_renamings(src, tgt):
                want = tuple(d.at(tuple(p[rho.mapping[y]]
                                        for y in range(len(rho.target))))
                             for p in context_space(src, m, nb))
                assert precompose(d, rho, m, nb).table() == want, rho


def test_prefix_precompose_reading_the_suffix_fails_the_lemma_with_witness(
        monkeypatch):
    """A mutant of the prefix path of ``precompose``: it reads the last
    ``k`` components of the point instead of the first ``k``."""
    def precompose_suffix(d, rho, m, nat_bound):
        at, mapping, k = d.at, rho.mapping, len(rho.target)
        if mapping == tuple(range(k)):
            fn = lambda point: at(point[-k:])
        else:
            fn = lambda point: at(tuple([point[x] for x in mapping]))
        return Denotation(d.sort, rho.source, m, nat_bound, fn)

    cfg = config(("sequential", "functions"))
    m, identity = model(OptionMonad(), {"b": 2}), model(IdentityMonad(), {"b": 2})
    assert check_substitution_lemma_random(cfg, m, seed=20260810, count=50).ok
    monkeypatch.setattr(DenotationCarrier, "act", lambda self, d, rho:
                        precompose_suffix(d, rho, self.m, self.nat_bound))
    failure = check_substitution_lemma_random(cfg, m, seed=20260810,
                                              count=50).first_failure()
    assert failure is not None and failure.witness.startswith("term ")
    failure = check_substitution_lemma_exhaustive(cfg, identity).first_failure()
    assert failure is not None and failure.witness


def _subterms(t):
    yield t
    if type(t) is Op:
        for arg in t.args:
            yield from _subterms(arg)


@pytest.mark.parametrize("exts", [
    ("sequential", "functions"),
    ("records", "variants", "naturals"),
    ("naturals", "while", "recursion"),
])
def test_every_denotation_has_the_sort_of_its_term(exts):
    """Seeded subst-lemma cases: each term, its substituted form and the
    substitution's entries, and every subterm of them."""
    cfg = config(exts, ("b",), nat_bound=4)
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    gen = TermGen(cfg, table, random.Random(20260810), interp_cap=40, model=m)
    checked = 0
    for _ in range(12):
        ctx = gen.random_context(2)
        target = gen.random_target(ctx)
        term = (gen.random_value if target.is_first else gen.random_term)(
            ctx, target.ident, 3)
        env = gen.random_subst(ctx)
        if context_space(env.target, m, cfg.nat_bound).size > 256:
            continue
        for whole in (term, substitute(term, env), *env.entries):
            for t in _subterms(whole):
                assert denote(t, m, cfg, table).sort == t.sort, t
                checked += 1
    assert checked


def test_lazy_denotations_match_the_eager_reference():
    """Subst-lemma cases: every term of the exhaustive corpus's configurations
    to depth 3, and random terms with their substituted forms, under the
    identity and option models."""
    for exts in ((), ("sequential",), ("functions",), ("sequential", "functions")):
        cfg = config(exts)
        table = CbvOperatorTable(cfg)
        universe = tuple(t for t in (B, fun(B, B)) if valid_type(t, cfg))
        ctxs = [Context(c) for k in range(3)
                for c in itertools.product(universe, repeat=k)]
        memo = {}
        terms = [term for ctx in ctxs for t in universe
                 for term in enumerate_terms(table, ctx, t, 3, universe, memo,
                                             max_ctx=3)]
        for mon in (IdentityMonad(), OptionMonad()):
            m = model(mon, {"b": 2})
            gen = TermGen(cfg, table, random.Random(20260810), model=m)
            cases = list(terms)
            while len(cases) < len(terms) + 40:
                ctx = gen.random_context(2)
                target = gen.random_target(ctx)
                term = (gen.random_value if target.is_first else gen.random_term)(
                    ctx, target.ident, 3)
                env = gen.random_subst(ctx)
                if context_space(env.target, m, cfg.nat_bound).size <= 256:
                    cases += [term, substitute(term, env)]
            interp = Interpreter(m, cfg, table)
            for term in cases:
                env = identity_sem_env(term.ctx, m, cfg.nat_bound)
                eager = reference_fold(term, interp.alg, interp._alg_hole, env,
                                       term.ctx, interp.carrier)
                assert interp.denote(term).table() == eager.table(), term


def count_context_spaces(monkeypatch) -> list:
    """Record every ``context_space`` lookup that goes through the model
    module, where ``Denotation.space`` looks it up."""
    calls = []
    real = model_module.context_space

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(model_module, "context_space", counted)
    return calls


def test_denoting_looks_up_no_space_and_a_table_one(monkeypatch):
    cfg = config(("sequential", "functions"))
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    ctx = Context((B, B))
    term = typecheck(parse("let y = (val fn z: b . val z) (val x1) in val y"),
                     ctx, second(B), cfg, table)
    calls = count_context_spaces(monkeypatch)
    d = Interpreter(m, cfg, table).denote(term)
    assert calls == []
    nb = cfg.nat_bound
    assert d.table() == tuple(("some", p[1]) for p in context_space(ctx, m, nb))
    assert calls == [(ctx, m, nb)]


class CountingPoint(tuple):
    """A context point that records which components are read."""
    reads: list

    def __getitem__(self, i):
        self.reads.append(i)
        return tuple.__getitem__(self, i)


def test_views_store_no_points_and_memoized_clauses_do():
    """A projection and a ``val`` read their input on every read; a ``let``
    reads its bound term once per point."""
    cfg = config(("sequential",))
    m = model(IdentityMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    ctx = Context((B, B))
    point = CountingPoint(("b0", "b1"))
    point.reads = []
    d = projection(ctx, 1, m, 8)
    assert d.at(point) == d.at(point) == "b1"
    assert point.reads == [1, 1]

    runs = []
    child = Denotation(first(B), ctx, m, 8,
                       lambda p: runs.append(p) or p[0])
    val = Interpreter(m, cfg, table).alg(table.val(B), [child], ctx)
    assert val.at(("b0", "b1")) == val.at(("b0", "b1")) == "b0"
    assert runs == [("b0", "b1")] * 2

    runs.clear()
    bound = Denotation(second(B), ctx, m, 8, lambda p: runs.append(p) or p[1])
    body = projection(ctx.extend(Context((B,))), 2, m, 8)
    let = Interpreter(m, cfg, table).alg(table.let((B,), B), [bound, body], ctx)
    assert let.at(("b0", "b1")) == let.at(("b0", "b1")) == "b1"
    assert runs == [("b0", "b1")]


def test_memo_keyed_on_a_prefix_of_the_point_fails_the_lemma_with_witness(
        monkeypatch):
    """A mutant of ``memoized`` that stores each answer under the first
    component of the point, so points that share it share an answer."""
    def memoized_by_first(fn):
        memo = {}

        def at(point):
            key = point[:1]
            if key not in memo:
                memo[key] = fn(point)
            return memo[key]
        return at

    cfg = config(("functions",))
    assert check_substitution_lemma_exhaustive(
        cfg, model(IdentityMonad(), {"b": 2})).ok
    monkeypatch.setattr(denote_module, "memoized", memoized_by_first)
    failure = check_substitution_lemma_exhaustive(
        cfg, model(IdentityMonad(), {"b": 2})).first_failure()
    assert failure is not None and failure.witness


def test_lemma_var_and_identity_cases():
    # M = Var x: both sides are the entry's table; identity env: both sides M
    cfg = config(())
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    from substkit.semantics.checks import lemma_holds
    from substkit.terms import SubstEnv, identity_env
    ctx = Context((B, B))
    denoted: dict = {}
    term = typecheck(parse("val x1"), ctx, second(B), cfg, table)
    ok, _ = lemma_holds(term, identity_env(ctx), m, cfg, table, denoted)
    assert ok
    swap = SubstEnv(ctx, ctx, (Var(ctx, 1), Var(ctx, 0)))
    ok, _ = lemma_holds(term, swap, m, cfg, table, denoted)
    assert ok


def test_joint_cotupled_compatibility():
    """Compatibility of the cotupled algebra over a multi-fragment config
    agrees with the per-fragment checks: every clause's square passes in the
    joint interpreter too."""
    cfg = config(("sequential", "functions"))
    for mon in (IdentityMonad(), OptionMonad()):
        rep = check_compatibility("joint", model(mon, {"b": 2}), cfg)
        assert rep.ok, rep.to_text()
