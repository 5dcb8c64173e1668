"""Type interpretation, denotation clauses, compatibility, substitution lemma."""

import importlib
import itertools
import random
import sys
from pathlib import Path

import pytest

from conftest import all_renamings, contexts_upto, reference_fold, swap_first_pair
from substkit import suites
from substkit.cbv import Base, NAT, config, fun, maybe_shape, record, variant
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.gen import Enumeration, TermGen, enumerate_terms
from substkit.cbv.surface import parse
from substkit.cbv.typecheck import typecheck
from substkit.cbv.types import EXTENSIONS, Fun, types_upto
from substkit.semantics import (IdentityMonad, OptionMonad, UnsupportedCapability,
                                interp_size, interpret_type, model, precompose)
from substkit.semantics import checks
from substkit.semantics.checks import (check_compatibility, check_sem_action_axioms,
                                       check_substitution_lemma_exhaustive,
                                       check_substitution_lemma_random)
from substkit.semantics.denote import DenotationCarrier, Interpreter, denote
from substkit.semantics.finset import ENUM_CAP, EnumerationTooLarge, FinSet
from substkit.semantics.monads import BUNDLED
from substkit.semantics.model import (Denotation, context_space, identity_sem_env,
                                      projection, subst_denotation)
from substkit.sorts import Context, Renaming, first, second
from substkit import terms
from substkit.terms import IllSorted, Op, Var, identity_env, substitute

B = Base("b")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the Op nodes substitute builds in one exhaustive lemma check, below
BUILT_AFTER_SHARING = 1470
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


@pytest.mark.parametrize("name", BUNDLED)
def test_sizes_are_the_sizes_of_the_sets(name):
    """``apply_size`` and ``interp_size`` count what ``apply`` and
    ``interpret_type`` build: every set of up to 3 elements, and every type
    of the depth-2 universe of the full fragment at nat bound 3."""
    monad = BUNDLED[name]()
    for n in range(4):
        assert monad.apply_size(n) == monad.apply(FinSet(range(n))).size, n
    cfg = config(EXTENSIONS, ("b",), nat_bound=3)
    m = model(monad, {"b": 2})
    for t in types_upto(cfg, 2):
        assert interp_size(t, m, 3) == interpret_type(t, m, 3).size, t


def test_sizes_past_the_cap_read_one_past_it():
    """A function or product space past the enumeration cap reads
    ``ENUM_CAP + 1`` and refuses to be enumerated; an empty factor keeps a
    product empty."""
    m = model(OptionMonad(), {"b": 2})
    nat_nat = fun(NAT, NAT)
    assert interp_size(nat_nat, m, 25) == 26 ** 25
    assert interpret_type(nat_nat, m, 25).size == ENUM_CAP + 1
    space = context_space(Context((B, nat_nat)), m, 25)
    assert space.size == ENUM_CAP + 1
    with pytest.raises(EnumerationTooLarge):
        iter(space)
    with pytest.raises(EnumerationTooLarge):
        iter(interpret_type(nat_nat, m, 25))
    assert context_space(Context((nat_nat, variant(()))), m, 25).size == 0


@pytest.mark.parametrize("name", BUNDLED)
def test_function_spaces_index_and_contain_their_elements(name):
    """Every function space of the depth-2 universe of the functional
    fragment with naturals: ``index`` is the position in iteration order,
    every element is in the space, and a tuple of the wrong length or with a
    value outside the codomain is not."""
    cfg = config(("functions", "naturals"), ("b",), nat_bound=3)
    m = model(BUNDLED[name](), {"b": 2})
    spaces = [interpret_type(t, m, 3) for t in types_upto(cfg, 2)
              if type(t) is Fun]
    assert len(spaces) == 9
    for space in spaces:
        elements = list(space)
        assert len(elements) == space.size
        for i, f in enumerate(elements):
            assert space.index(f) == i and f in space
            assert f[:-1] not in space and f + f[:1] not in space
            assert f[:-1] + ("foreign",) not in space


def test_higher_order_application_reads_the_function_table():
    """An application whose domain is a function type finds its argument's
    table by ``FunSpace.index``."""
    cfg = config(("functions",))
    term = typecheck(parse("(val fn g: b -> b . (val g) (val x)) "
                           "(val fn y: b . val y)"),
                     Context((B,)), second(B), CbvOperatorTable(cfg), ["x"])
    assert denote(term, model(OptionMonad(), {"b": 2}), cfg).table() == \
        (("some", "b0"), ("some", "b1"))
    assert denote(term, model(IdentityMonad(), {"b": 2}), cfg).table() == \
        ("b0", "b1")


def test_variable_denotes_projection():
    cfg = config(())
    m = model(IdentityMonad(), {"b": 2})
    d = denote(Var(Context((B,)), 0), m, cfg)
    assert d.table() == ("b0", "b1")


def test_val_under_identity_is_identity():
    cfg = config(())
    m = model(IdentityMonad(), {"b": 3})
    table = CbvOperatorTable(cfg)
    t = typecheck(parse("val x0"), Context((B,)), second(B), table)
    d = denote(t, m, cfg)
    assert d.table() == tuple(p[0] for p in d.space)


@pytest.mark.parametrize("monad_name", ["identity", "option", "exception",
                                        "writer", "state", "powerset"])
def test_let_of_val_collapses(monad_name):
    from substkit.semantics import monad_by_name
    cfg = config(("sequential",))
    m = model(monad_by_name(monad_name), {"b": 2})
    table = CbvOperatorTable(cfg)
    ctx = Context((B,))
    t1 = typecheck(parse("let y = val x0 in val y"), ctx, second(B), table)
    t2 = typecheck(parse("val x0"), ctx, second(B), table)
    assert same_table(denote(t1, m, cfg), denote(t2, m, cfg))


def test_app_beta_on_identity_function():
    cfg = config(("functions",))
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    ctx = Context((B,))
    t = typecheck(parse("(val fn y: b . val y) (val x0)"), ctx, second(B),
                  table)
    d = denote(t, m, cfg)
    assert d.table() == tuple(("some", p[0]) for p in d.space)


def test_records_and_variants_evaluate():
    cfg = config(("records", "variants"), ("b",))
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    src = ("case (val <A: b, Z: b>.A x0) of "
           "{A u -> val {L = u, R = x0} | Z w -> val {L = w, R = w}}")
    t = typecheck(parse(src), Context((B,)),
                  second(record((("L", B), ("R", B)))), table)
    d = denote(t, m, cfg)
    assert d.at(("b1",)) == ("some", ("b1", "b1"))


def test_roll_overflow_is_absence_under_option():
    cfg = config(("naturals",), nat_bound=2)
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    t = typecheck(parse("roll (val <0: {}, 1+: Nat>.1+ 1)"), Context(()),
                  second(NAT), table)
    assert denote(t, m, cfg).at(()) == ("none",)


def test_roll_overflow_errors_without_partiality():
    cfg = config(("naturals",), nat_bound=2)
    m = model(IdentityMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    t = typecheck(parse("roll (val <0: {}, 1+: Nat>.1+ 1)"), Context(()),
                  second(NAT), table)
    with pytest.raises(UnsupportedCapability):
        denote(t, m, cfg).at(())


def test_while_requires_elgot_capability():
    cfg = config(("while",))
    m = model(IdentityMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    src = "for i = val x0 do val (<Done: b, Cont: b>.Done i)"
    t = typecheck(parse(src), Context((B,)), second(B), table)
    with pytest.raises(UnsupportedCapability):
        denote(t, m, cfg)


def test_sem_action_axioms_both_monads():
    for mon in (IdentityMonad(), OptionMonad()):
        rep = check_sem_action_axioms(model(mon, {"b": 2}),
                                      config(("sequential",)), cap=60)
        assert rep.ok, rep.to_text()


def sem_action_failures() -> dict:
    """The failing ``check_sem_action_axioms`` records under the option
    monad, as record name -> witness."""
    rep = check_sem_action_axioms(model(OptionMonad(), {"b": 2}),
                                  config(("sequential",)), cap=60)
    return {r.name: r.witness for r in rep.records if r.status == "fail"}


def test_precompose_that_ignores_a_swap_fails_only_the_coend_axiom(monkeypatch):
    """Renaming by the swap of [b, b] as by the identity is a presheaf of
    its own, so only the coend condition, which compares renaming with
    reindexing, sees it; the witness gives the point and both values."""
    real = checks.precompose

    def ignoring_swaps(d, rho):
        if rho.mapping == (1, 0):
            rho = Renaming(rho.source, rho.target, (0, 1))
        return real(d, rho)

    monkeypatch.setattr(checks, "precompose", ignoring_swaps)
    failures = sem_action_failures()
    assert list(failures) == ["coend well-definedness (renaming vs reindexing)"]
    witness = next(iter(failures.values()))
    assert witness.startswith("Renaming(Context[")
    assert ", (1, 0)) into Context[" in witness
    assert ": point (" in witness and " vs " in witness
    assert ", environment [(" in witness


def test_subst_denotation_that_swaps_two_entries_fails_both_units_and_coend(
        monkeypatch):
    """A substitution that reads a two-entry environment the other way round
    still composes, so associativity holds; the two units and the coend
    condition fail, each with the point and both values."""
    real = checks.subst_denotation

    def swapping(d, env, target):
        if len(env) == 2:
            env = [env[1], env[0]]
        return real(d, env, target)

    monkeypatch.setattr(checks, "subst_denotation", swapping)
    failures = sem_action_failures()
    assert list(failures) == [
        "left unit (x[s] = s_x)", "right unit (d[id] = d)",
        "coend well-definedness (renaming vs reindexing)"]
    for witness in failures.values():
        assert ": point (" in witness and " vs " in witness, witness
    left = failures["left unit (x[s] = s_x)"]
    assert left.startswith("Context[") and " pos 0 into Context[" in left
    assert ", environment [(" in left
    assert failures["right unit (d[id] = d)"].startswith("Context[")


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
        d, swap_first_pair(rho)))
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
                    moved = precompose(projection(small, j, m, nb), pi)
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
                assert precompose(d, rho).table() == want, rho


def test_prefix_precompose_reading_the_suffix_fails_the_lemma_with_witness(
        monkeypatch):
    """A mutant of the prefix path of ``precompose``: it reads the last
    ``k`` components of the point instead of the first ``k``."""
    def precompose_suffix(d, rho):
        at, mapping, k = d.at, rho.mapping, len(rho.target)
        if mapping == tuple(range(k)):
            fn = lambda point: at(point[-k:])
        else:
            fn = lambda point: at(tuple([point[x] for x in mapping]))
        return Denotation(d.sort, rho.source, d.m, d.nat_bound, fn)

    cfg = config(("sequential", "functions"))
    m, identity = model(OptionMonad(), {"b": 2}), model(IdentityMonad(), {"b": 2})
    assert check_substitution_lemma_random(cfg, m, seed=20260810, count=50).ok
    monkeypatch.setattr(DenotationCarrier, "act", lambda self, d, rho:
                        precompose_suffix(d, rho))
    failure = check_substitution_lemma_random(cfg, m, seed=20260810,
                                              count=50).first_failure()
    assert failure is not None and failure.witness.startswith("term ")
    failure = check_substitution_lemma_exhaustive(cfg, identity).first_failure()
    assert failure is not None and failure.witness


def test_a_closed_denotation_substituted_by_no_entries_lands_in_the_target():
    """The empty environment into ``[b]``: the result is over ``[b]``, not the
    empty context, and its table is the closed denotation's one value at
    every point."""
    m, nb = model(OptionMonad(), {"b": 2}), 4
    closed = Denotation(second(B), Context(()), m, nb, lambda p: ("some", "b1"))
    target = Context((B,))
    got = subst_denotation(closed, [], target)
    assert got.ctx == target and got.sort == closed.sort
    assert got.table() == (("some", "b1"),) * 2


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
    gen = TermGen(table, random.Random(20260810), interp_cap=(m, 40))
    checked = 0
    for _ in range(12):
        ctx = gen.random_context(2)
        target = gen.random_target(ctx)
        term = gen.random_at(ctx, target, 3)
        env = gen.random_subst(ctx)
        if context_space(env.target, m, cfg.nat_bound).size > 256:
            continue
        for whole in (term, substitute(term, env), *env.entries):
            for t in _subterms(whole):
                assert denote(t, m, cfg).sort == t.sort, t
                checked += 1
    assert checked


def test_lazy_denotations_match_the_eager_reference():
    """Subst-lemma cases: every term of the exhaustive corpus's configurations
    to depth 3, and random terms with their substituted forms, under the
    identity and option models."""
    for exts in ((), ("sequential",), ("functions",), ("sequential", "functions")):
        cfg = config(exts)
        table = CbvOperatorTable(cfg)
        universe = types_upto(cfg, 2)
        ctxs = [Context(c) for k in range(3)
                for c in itertools.product(universe, repeat=k)]
        corpus = Enumeration(table, max_ctx=3)
        terms = [term for ctx in ctxs for t in universe
                 for term in enumerate_terms(corpus, ctx, t, 3)]
        for mon in (IdentityMonad(), OptionMonad()):
            m = model(mon, {"b": 2})
            gen = TermGen(table, random.Random(20260810))
            cases = list(terms)
            while len(cases) < len(terms) + 40:
                ctx = gen.random_context(2)
                target = gen.random_target(ctx)
                term = gen.random_at(ctx, target, 3)
                env = gen.random_subst(ctx)
                if context_space(env.target, m, cfg.nat_bound).size <= 256:
                    cases += [term, substitute(term, env)]
            interp = Interpreter(m, cfg)
            carrier = DenotationCarrier(m, cfg.nat_bound)
            for term in cases:
                env = identity_sem_env(term.ctx, m, cfg.nat_bound)
                eager = reference_fold(term, interp.alg, interp._alg_hole, env,
                                       term.ctx, carrier)
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
                     ctx, second(B), table)
    calls = count_context_spaces(monkeypatch)
    d = Interpreter(m, cfg).denote(term)
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
    val = Interpreter(m, cfg).alg(table.val(B), [child], ctx)
    assert val.at(("b0", "b1")) == val.at(("b0", "b1")) == "b0"
    assert runs == [("b0", "b1")] * 2

    runs.clear()
    bound = Denotation(second(B), ctx, m, 8, lambda p: runs.append(p) or p[1])
    body = projection(ctx.extend(Context((B,))), 2, m, 8)
    let = Interpreter(m, cfg).alg(table.let((B,), B), [bound, body], ctx)
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


def test_sharing_key_without_the_operator_label_fails_the_lemma(monkeypatch):
    """A mutant of the sharing key that drops the operator label, so two
    operators over one context with the same children share a denotation:
    with variants, injections with different tags do.  On the base,
    sequential and functions corpora the mutant is equivalent, because there
    the context and the children fix the operator."""
    def build_without_label(self, op, values, ctx):
        key = (ctx, *values)
        got = self._built.get(key)
        if got is None:
            got = self._built[key] = self.alg(op, values, ctx)
        return got

    cfg = config(("variants",), ("b",), nat_bound=4)
    m = model(OptionMonad(), {"b": 2})
    assert check_substitution_lemma_random(cfg, m, seed=20260810, count=100).ok
    monkeypatch.setattr(Interpreter, "_build", build_without_label)
    try:
        ok = check_substitution_lemma_random(cfg, m, seed=20260810,
                                             count=100).ok
    except KeyError:  # a match reads a tag its scrutinee's type lacks
        ok = False
    assert not ok


def _unguarded_substitute(t, env, memo=None):
    """``substitute`` without its check that ``memo`` serves ``env``."""
    return terms.fold(t, terms._rebuild_ops, terms._rebuild_hole, env.entries,
                      env.target, terms.TermCarrier, memo)


def test_a_substitution_memo_reused_across_the_pool_is_refused_or_fails(
        monkeypatch):
    """A mutant of the check that hands one substitution memo to every
    substitution of the pool with the same source and target, so a subterm
    substituted under one answers for it under another.  ``substitute``
    refuses a memo made for another substitution; with that guard gone, the
    lemma fails with a witness, since the rotating value substitutions into
    ``b`` send ``f: b -> b`` to functions with different tables."""
    cfg = config(("sequential", "functions"))
    m = model(IdentityMonad(), {"b": 2})
    assert check_substitution_lemma_exhaustive(cfg, m, subst_ctx_len=1).ok
    shared = {}

    def one_per_target(env):
        key = env.source, env.target
        if key not in shared:
            shared[key] = terms.FoldMemo(env)
        return shared[key]

    monkeypatch.setattr(checks, "FoldMemo", one_per_target)
    with pytest.raises(ValueError, match="cannot serve"):
        check_substitution_lemma_exhaustive(cfg, m, subst_ctx_len=1)
    shared.clear()
    monkeypatch.setattr(checks, "substitute", _unguarded_substitute)
    failure = check_substitution_lemma_exhaustive(
        cfg, m, subst_ctx_len=1).first_failure()
    assert failure is not None and failure.witness.startswith("term ")
    assert " env " in failure.witness


def test_a_fold_memo_keyed_on_the_operator_label_fails_the_lemma(monkeypatch):
    """A mutant of the fold's memo that keys an operator node's result on
    its operator's label, not on the subterm's identity, so two different
    subterms with one operator share a result.  It reaches both memo owners:
    a substituted term or a denotation over the wrong context is refused
    where it meets another (``IllSorted``, ``ValueError``), and one over the
    right context fails the lemma with a witness."""
    real = terms._fold

    def fold_by_label(t, alg_ops, alg_hole, hooks, env, out_ctx, ctx, memo):
        if memo is None or type(t) is not Op:
            return real(t, alg_ops, alg_hole, hooks, env, out_ctx, ctx, memo)
        got = memo.get(t.op.label)
        if got is None:
            values = [fold_by_label(arg, alg_ops, alg_hole, hooks, env,
                                    out_ctx, ctx.extend(decl.binder), memo)
                      for arg, decl in zip(t.args, t.op.args)]
            got = memo[t.op.label] = (t, alg_ops(t.op, values, ctx))
        return got[1]

    cfg = config(("sequential", "functions"))
    m = model(IdentityMonad(), {"b": 2})
    assert check_substitution_lemma_exhaustive(cfg, m, subst_ctx_len=1).ok
    monkeypatch.setattr(terms, "_fold", fold_by_label)
    try:
        failure = check_substitution_lemma_exhaustive(
            cfg, m, subst_ctx_len=1).first_failure()
    except (IllSorted, ValueError):
        return
    assert failure is not None and failure.witness.startswith("term ")
    assert " env " in failure.witness


def test_the_exhaustive_lemma_builds_each_shared_substituted_node_once(
        monkeypatch):
    """The Op nodes ``substitute`` builds in the exhaustive lemma of the
    sequential and functional fragment under identity, at substitution
    contexts of length 1.  Without the substitution memos it built 7,759,
    one per operator node of every substituted case; with one memo per pool
    substitution it builds 1,470, one per distinct pair of an operator
    subterm and a substitution."""
    built = 0
    real = terms._rebuild_ops

    def counted(op, values, ctx):
        nonlocal built
        built += 1
        return real(op, values, ctx)

    monkeypatch.setattr(terms, "_rebuild_ops", counted)
    rep = check_substitution_lemma_exhaustive(
        config(("sequential", "functions")), model(IdentityMonad(), {"b": 2}),
        subst_ctx_len=1)
    assert rep.ok, rep.to_text()
    assert 0 < built <= BUILT_AFTER_SHARING


def test_the_workload_runs_the_registry_exhaustive_lemma_configurations():
    """The benchmark's subst-lemma workload keeps its own copy of the
    exhaustive configurations, which must be the registry's."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import LEMMA_EXHAUSTIVE
    finally:
        sys.path.remove(str(PERFBENCH))
    assert tuple(LEMMA_EXHAUSTIVE) == suites.LEMMA_EXHAUSTIVE


def sharing_cases():
    """Two ``let`` terms over one context whose bound subterm is one object."""
    cfg = config(("sequential", "functions"))
    table = CbvOperatorTable(cfg)
    ctx = Context((B, B))
    app = typecheck(parse("(val fn z: b . val z) (val x1)"), ctx, second(B),
                    table)
    inner = ctx.extend(Context((B,)))
    bodies = [typecheck(parse(f"val x{i}"), inner, second(B), table)
              for i in (2, 0)]
    let = table.let((B,), B)
    return cfg, [Op(let, ctx, [app, body]) for body in bodies]


def test_an_interpreter_denotes_a_shared_subterm_once():
    cfg, (t1, t2) = sharing_cases()
    interp = Interpreter(model(OptionMonad(), {"b": 2}), cfg)
    built = []
    real = interp.alg

    def recording(op, values, ctx):
        built.append((op.label, values))
        return real(op, values, ctx)
    interp.alg = recording
    interp.denote(t1)
    interp.denote(t2)
    lets = [values for label, values in built if label.startswith("let<")]
    assert len(lets) == 2 and lets[0][0] is lets[1][0]
    assert [label for label, _ in built].count("app<b;b>") == 1


def test_an_interpreter_shares_with_an_equal_term_substitute_rebuilt():
    cfg, (t1, _) = sharing_cases()
    m = model(OptionMonad(), {"b": 2})
    interp = Interpreter(m, cfg)
    rebuilt = substitute(t1, identity_env(t1.ctx))
    assert rebuilt == t1 and rebuilt is not t1
    assert interp.denote(rebuilt) is interp.denote(t1)


def test_fold_memos_walk_a_shared_subterm_object_once():
    """Without ``fresh_fold_memos`` ``denote`` walks every occurrence of a
    subterm; after it, a subterm object met before under the same ambient
    context is read back, not walked, and its denotation is the same."""
    cfg, (t1, t2) = sharing_cases()
    m = model(OptionMonad(), {"b": 2})
    walked = {}
    for memos in (False, True):
        interp = Interpreter(m, cfg)
        if memos:
            interp.fresh_fold_memos()
        labels, real = [], interp._build

        def build(op, values, ctx, labels=labels, real=real):
            labels.append(op.label)
            return real(op, values, ctx)
        interp._build = build
        d1 = interp.denote(t1)
        shared = interp.denote(t2.args[0])
        interp.denote(t2)
        assert d1.table() == denote(t1, m, cfg).table()
        assert shared is interp.denote(t1.args[0])
        walked[memos] = labels.count("app<b;b>")
    assert walked == {False: 4, True: 1}


def test_two_interpreters_share_nothing():
    cfg, (t1, _) = sharing_cases()
    m = model(OptionMonad(), {"b": 2})
    one, two = Interpreter(m, cfg), Interpreter(m, cfg)
    assert one.denote(t1) is not two.denote(t1)
    assert one.denote(t1).table() == two.denote(t1).table()
    mine = {id(d) for d in one._built.values()}
    assert mine and mine.isdisjoint(id(d) for d in two._built.values())


def test_lemma_var_and_identity_cases():
    # M = Var x: both sides are the entry's table; identity env: both sides M
    cfg = config(())
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    from substkit.semantics.checks import lemma_holds
    from substkit.terms import SubstEnv, identity_env
    ctx = Context((B, B))
    interp = Interpreter(m, cfg)
    term = typecheck(parse("val x1"), ctx, second(B), table)
    ok, _ = lemma_holds(term, identity_env(ctx), interp)
    assert ok
    swap = SubstEnv(ctx, ctx, (Var(ctx, 1), Var(ctx, 0)))
    ok, _ = lemma_holds(term, swap, interp)
    assert ok


def test_joint_cotupled_compatibility():
    """Compatibility of the cotupled algebra over a multi-fragment config
    agrees with the per-fragment checks: every clause's square passes in the
    joint interpreter too."""
    cfg = config(("sequential", "functions"))
    for mon in (IdentityMonad(), OptionMonad()):
        rep = check_compatibility(model(mon, {"b": 2}), cfg)
        assert rep.ok, rep.to_text()


@pytest.mark.parametrize("mon", [IdentityMonad(), OptionMonad()],
                         ids=lambda mon: mon.name)
@pytest.mark.parametrize("exts", suites.COMPATIBILITY_EXTENSIONS
                         + (("sequential", "functions"),),
                         ids=lambda exts: config(exts).name())
def test_compatibility_squares_every_operator_within_the_universe(
        monkeypatch, exts, mon):
    """The squares take their operators from ``table.operators()``: the labels
    the interpreter sees are those of every listed operator whose sorts and
    binder types lie in the universe, so a family added to the enumeration
    gets squares without an edit to the check.  Every family the
    configuration mints has at least one square."""
    seen = set()

    class Recording(Interpreter):
        def alg(self, op, values, ctx):
            seen.add(op.label)
            return super().alg(op, values, ctx)

    monkeypatch.setattr(checks, "Interpreter", Recording)
    cfg = config(exts)
    m = model(mon, {"b": 2})
    assert check_compatibility(m, cfg).ok
    universe = {t for t in types_upto(cfg, 2)
                if interp_size(t, m, cfg.nat_bound) <= 12}
    table = CbvOperatorTable(cfg)
    ops = table.operators()
    within = {op.label for op in ops
              if op.result_sort.ident in universe
              and all(a.sort.ident in universe
                      and set(a.binder.entries) <= universe for a in op.args)}
    assert seen == within
    family = {op.label: op.family for op in ops}
    assert {family[label] for label in seen} == set(family.values())
