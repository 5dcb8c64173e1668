"""Type inhabitation and seeded draws: the numbered kernel against the full
re-sweep, with seeded mutants of the kernel, each candidate record against the
scans it replaces, and golden digests of seeded corpora and of the exhaustive
lemma's cases."""

import hashlib
import random
import re

import pytest

from substkit.cbv.gen import (_MAYBE_NAT, Enumeration, TermGen, _Kernel, _ones,
                              enumerate_terms, enumerate_values)
from substkit.cbv.ops import CbvOperatorTable, vmatch_allowed
from substkit.cbv.types import (EXTENSIONS, NAT, UNIT, Base, Fun, NatType,
                                Record, Variant, all_fragment_configs, config,
                                done_cont_shape, fun, is_context_row,
                                is_done_cont_shape, is_maybe_shape, maybe_shape,
                                record, type_depth, types_upto, valid_type,
                                variant)
from substkit.semantics import model, monads
from substkit.sorts import Context
from substkit.terms import Meta, Op

CONFIGS = all_fragment_configs(("b", "c"), 4)


def _subtypes(t):
    yield t
    if isinstance(t, Fun):
        yield from _subtypes(t.dom)
        yield from _subtypes(t.cod)
    elif isinstance(t, (Record, Variant)):
        for _, v in t.row:
            yield from _subtypes(v)


def record_allowed(cfg, row: tuple) -> bool:
    """The sweep's own statement of record formation: any row under
    ``records``, the unit row under ``naturals``, binder rows under
    ``recursion``."""
    if cfg.has("records"):
        return True
    if row == () and cfg.has("naturals"):
        return True
    return cfg.has("recursion") and is_context_row(Record(row))


def variant_allowed(cfg, t: Variant) -> bool:
    """Variant formation: any row under ``variants``, option shapes under
    ``naturals``, done/continue shapes under ``while``."""
    if cfg.has("variants"):
        return True
    if cfg.has("naturals") and is_maybe_shape(t):
        return True
    return cfg.has("while") and is_done_cont_shape(t)


def sweep_inhabited(gen: TermGen, avail: frozenset, memo: dict) -> frozenset:
    """The reference: close the valid subtypes of the universe and of
    ``avail``, then re-sweep the whole pool until nothing changes."""
    got = memo.get(avail)
    if got is not None:
        return got
    cfg = gen.cfg
    pool = set(gen.universe) | set(avail)
    for t in list(pool):
        pool.update(_subtypes(t))
    pool = {t for t in pool if valid_type(t, cfg)}
    current = set(avail) & pool

    def step(t) -> bool:
        if isinstance(t, NatType):
            return cfg.has("naturals")
        if isinstance(t, Fun):
            if not cfg.has("functions"):
                return False
            if t.dom in avail or t.dom in current:
                return t.cod in current
            if len(avail) >= 5:
                return False
            return t.cod in sweep_inhabited(gen, avail | {t.dom}, memo)
        if isinstance(t, Record):
            return (record_allowed(cfg, t.row)
                    and all(v in current for _, v in t.row))
        if isinstance(t, Variant):
            return (variant_allowed(cfg, t)
                    and any(v in current for _, v in t.row))
        return False

    changed = True
    while changed:
        changed = False
        for t in pool:
            if t not in current and step(t):
                current.add(t)
                changed = True
    memo[avail] = result = frozenset(current)
    return result


def _gen(cfg, seed=0, **kw) -> TermGen:
    return TermGen(CbvOperatorTable(cfg), random.Random(seed), **kw)


def _named(gen: TermGen, avail) -> str:
    return f"{gen.cfg.name()}: avail {sorted(map(repr, avail))}"


def _assert_agrees(gen: TermGen, avails) -> None:
    memo: dict = {}
    for avail in avails:
        assert gen.inhabited(avail) == sweep_inhabited(gen, avail, memo), \
            _named(gen, avail)


def _assert_memo_agrees(gen: TermGen) -> None:
    """Every entry of the kernel's mask memo, decoded, recursive queries
    included: the generator's own ``inhabited`` sees only top-level ones."""
    kernel, memo = gen._kernel, {}

    def types(mask):
        return frozenset(kernel.types[n] for n in _ones(mask))

    for avail, got in kernel.memo.items():
        avail = types(avail)
        assert types(got) == sweep_inhabited(gen, avail, memo), \
            _named(gen, avail)


def _seeded_avails(rng: random.Random, candidates: list, per_size: int = 3):
    """``per_size`` seeded sets of each size 0-5 (fewer when the candidates
    run out), so the five-variable cutoff is crossed."""
    out = []
    for size in range(6):
        for _ in range(per_size):
            out.append(frozenset(rng.sample(candidates,
                                            min(size, len(candidates)))))
    return out


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name())
def test_inhabited_agrees_with_the_sweep(cfg):
    gen = _gen(cfg)
    _assert_agrees(gen, _seeded_avails(random.Random(cfg.name()), gen.universe))


def _outside_and_invalid(cfg, universe: list, rng: random.Random) -> list:
    """Types deeper than the universe, fused shapes, and types the fragment
    cannot form, some of them with valid subtypes."""
    a, b = rng.choice(universe), rng.choice(universe)
    out = [fun(a, b), fun(fun(a, b), b), maybe_shape(fun(a, b)),
           done_cont_shape(a, fun(b, a)), record((("0", fun(a, b)),)),
           fun(record((("0", a), ("1", b))), b), record((("A", a), ("B", fun(b, a)))),
           variant((("A", fun(a, a)),)), Variant(()), UNIT, NAT,
           Base("z"), fun(Base("z"), a), record((("A", Base("z")), ("B", b))),
           maybe_shape(Base("z"))]
    assert any(not valid_type(t, cfg) for t in out)
    return out


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name())
def test_inhabited_agrees_outside_the_universe(cfg):
    gen = _gen(cfg)
    rng = random.Random(cfg.name())
    candidates = gen.universe + _outside_and_invalid(cfg, gen.universe, rng)
    _assert_agrees(gen, _seeded_avails(rng, candidates, per_size=4))


def test_inhabited_agrees_under_an_interpretation_cap():
    """As ``semantics.checks`` builds its generators: the cap drops large
    types from the universe, and the rule table is read off after it."""
    cfg = config(EXTENSIONS, ("b",), nat_bound=4)
    m = model(monads.monad_by_name("option"), {"b": 2})
    gen = _gen(cfg, interp_cap=(m, 40))
    assert len(gen.universe) < len(_gen(cfg).universe)
    rng = random.Random(1)
    candidates = gen.universe + _outside_and_invalid(cfg, gen.universe, rng)
    _assert_agrees(gen, _seeded_avails(rng, candidates, per_size=6))


HOLED = [EXTENSIONS, ("functions", "records"),
         ("sequential", "naturals", "while"), "capped"]


@pytest.mark.parametrize("exts", HOLED,
                         ids=lambda e: e if e == "capped" else "+".join(e))
def test_inhabited_agrees_on_every_call_of_a_holed_corpus(exts):
    """Every query a seeded generation makes: each top-level one, asked again
    of a fresh generator, and each recursive one through the kernel's memo.
    ``capped`` is a generator as ``semantics.checks`` builds them."""
    kw = {}
    if exts == "capped":
        cfg = config(EXTENSIONS, ("b",), nat_bound=4)
        m = model(monads.monad_by_name("option"), {"b": 2})
        kw["interp_cap"] = (m, 40)
    else:
        cfg = config(exts, ("b", "c"), nat_bound=4)
    gen = _gen(cfg, seed=3, **kw)
    calls = []
    real = gen.inhabited

    def recording(avail):
        calls.append(avail)
        return real(avail)

    gen.inhabited = recording
    for _ in range(20):
        gen.random_item(3, 3, holes={}, hole_prob=0.35)
    assert len(calls) > 20
    _assert_agrees(_gen(cfg, **kw), calls)
    # with functions, the fallback's recursive queries are memo entries too
    assert (len(gen._kernel.memo) > len(set(calls))) == cfg.has("functions")
    _assert_memo_agrees(gen)


class _Uncounted(int):
    """A mask whose variable types count as none, so the fallback never
    meets its cutoff; a union with it is another such mask."""

    def bit_count(self):
        return 0

    def __or__(self, other):
        return _Uncounted(int(self) | other)


C = Base("c")
# five variable types without ``b``, so only a fallback with a variable of
# type ``b`` inhabits ``b -> b``; fewer than five would take that fallback
FIVE = frozenset({C, fun(C, C), fun(C, fun(C, C)), fun(fun(C, C), C),
                  fun(fun(C, C), fun(C, C))})


def test_fallback_ignoring_the_cutoff_fails_agreement(monkeypatch):
    """A seeded mutant of the kernel whose fallback ignores the
    five-variable cutoff: it inhabits ``b -> b`` over five variable types,
    and the agreement check names that set."""
    cfg = config(("functions",), ("b", "c"), nat_bound=4)
    b_to_b = fun(Base("b"), Base("b"))
    assert b_to_b in _gen(cfg).inhabited(FIVE - {C})
    _assert_agrees(_gen(cfg), [FIVE])
    real = _Kernel.inhabited
    monkeypatch.setattr(_Kernel, "inhabited",
                        lambda self, avail: real(self, _Uncounted(avail)))
    gen = _gen(cfg)
    assert b_to_b in gen.inhabited(FIVE)
    with pytest.raises(AssertionError, match=re.escape(_named(gen, FIVE))):
        _assert_agrees(_gen(cfg), [FIVE])


def _leaky_pool(real):
    """A mutant pool: every out-of-universe type an earlier query walked
    joins it."""
    def pool(self, avail):
        got, funs, todo = real(self, avail)
        for walked, _, _ in self.extras.values():
            got |= walked
        return got, funs, todo
    return pool


def _pool_without_start(real):
    """A mutant pool whose extra rule types are left out of the starting
    worklist."""
    def pool(self, avail):
        got, funs, _ = real(self, avail)
        return got, funs, 0
    return pool


B = Base("b")
# the extra type of the first mutant is the depth-3 ``((b -> b) -> b) -> b``,
# built from ``b`` once the second query makes ``b`` a variable; the second
# mutant's is a depth-3 record of ``{}``, built from nothing
MUTANT_POOLS = {
    "earlier extras leak": (_leaky_pool, ("functions",), [
        frozenset({fun(fun(fun(B, B), B), B)}), frozenset({B})]),
    "no extra rules at the start": (_pool_without_start,
                                    ("functions", "records"), [
        frozenset({B}),
        frozenset({fun(record((("A", record((("A", UNIT),))),)), B)})]),
}


@pytest.mark.parametrize("case", MUTANT_POOLS)
def test_mutant_query_pools_fail_agreement(monkeypatch, case):
    """Seeded mutants of a query's pool: the agreement check fails on the
    last of the queries, and names it."""
    mutant, exts, avails = MUTANT_POOLS[case]
    cfg = config(exts, ("b", "c"), nat_bound=4)
    _assert_agrees(_gen(cfg), avails)
    monkeypatch.setattr(_Kernel, "_pool", mutant(_Kernel._pool))
    gen = _gen(cfg)
    with pytest.raises(AssertionError,
                       match=re.escape(_named(gen, avails[-1]))):
        _assert_agrees(gen, avails)


def test_letrec_falls_back_only_on_a_too_deep_definition():
    """The letrec production becomes a ``val`` only when its mint exceeds the
    type depth; any other error from the mint propagates."""
    cfg = config(("recursion",), nat_bound=4)
    gen = _gen(cfg)

    def broken(defs, result):
        raise ZeroDivisionError

    gen.table.letrec = broken
    with pytest.raises(ZeroDivisionError):
        for _ in range(50):
            gen.random_term(Context((Base("b"),)), Base("b"), 3)


def scanned_candidates(gen: TermGen, w: frozenset):
    """The reference: the scans of the sorted inhabited set that each draw
    made before the generator kept one candidate record per set.  They give
    ``vmatch``'s variants, the record-row pool, ``app``'s domains and ``for``'s
    states of a target ``t`` (with its gate), and ``natfold``'s gate."""
    cfg = gen.cfg
    ws = gen._w_sorted(w)
    fits = lambda t: type_depth(t) <= cfg.type_depth
    variants = [t for t in ws
                if isinstance(t, Variant) and vmatch_allowed(cfg, t)]
    rows = [t for t in ws if type_depth(t) < cfg.type_depth]

    def doms(t):
        return [a for a in ws if (f := fun(a, t)) in w and fits(f)]

    def for_gate(t):
        return any(fits(done_cont_shape(t, s)) for s in w)

    def states(t):
        return [s for s in ws if fits(done_cont_shape(t, s))]

    def natfold_gate(t):
        return fits(maybe_shape(t))

    return variants, rows, doms, for_gate, states, natfold_gate


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name())
def test_candidates_agree_with_the_scans(cfg):
    """Each candidate record, and each gate read off a type's depth, against
    the scans it replaces, for every target in the inhabited set."""
    gen = _gen(cfg)
    avails = _seeded_avails(random.Random(cfg.name()), gen.universe)
    for w in {gen.inhabited(avail) for avail in avails}:
        cands = gen._cands(w)
        variants, rows, doms, for_gate, states, natfold_gate = \
            scanned_candidates(gen, w)
        assert (cands.variants, cands.shallow) == (variants, rows)
        for t in gen._w_sorted(w):
            assert [f.dom for f in cands.funs.get(t, ())] == doms(t)
            gate = bool(w) and gen._fits(t._d, cands.least_depth)
            assert gate == for_gate(t), t
            if gate:
                assert cands.shallow == states(t), t
            assert gen._fits(UNIT._d, t._d) == natfold_gate(t), t
    assert _MAYBE_NAT == maybe_shape(NAT)


def _corpus_digest() -> str:
    """sha256 over the ``repr`` of seeded draws: ``random_item`` and
    ``random_subst`` for each configuration over two base types, with holes
    and without, then the capped lemma generator of ``semantics.checks``."""
    h = hashlib.sha256()

    def draw(gen, ctx_bound, depth, holed):
        holes = {} if holed else None
        ctx, term = gen.random_item(ctx_bound, depth, holes,
                                    0.35 if holed else 0.0)
        env = gen.random_subst(ctx)
        h.update(repr((ctx, term, env.target, env, holes)).encode())

    for i, cfg in enumerate(CONFIGS):
        for holed in (False, True):
            gen = _gen(cfg, seed=20260810 + i)
            for _ in range(4):
                # the depths of the meta-law and term-law suites
                draw(gen, 3, 3 if holed else 4, holed)
    cfg = config(EXTENSIONS, ("b",), nat_bound=4)
    m = model(monads.monad_by_name("option"), {"b": 2})
    gen = _gen(cfg, seed=20260810, interp_cap=(m, 40))
    for _ in range(100):
        draw(gen, 2, 3, False)
    return h.hexdigest()


GOLDEN_CORPUS = "d26969a8032ef7d53e1cd57f5b8ac0b9ebeef29ec97fc93986838c7e2aab0939"


def test_seeded_corpora_match_golden_digest():
    """Passing reports name no terms, so a generator change that alters a
    corpus shows only here: every RNG draw and every term must stay the
    same."""
    assert _corpus_digest() == GOLDEN_CORPUS


def test_sampled_arguments_live_on_the_shared_extension():
    """Every argument of a sampled node lies over the very context object
    ``Op`` checks it against, ``node.ctx.extend(binder)``, not over an equal
    copy: the sampler fills each node from its operator's arguments."""
    def walk(term):
        if isinstance(term, Op):
            for arg, decl in zip(term.args, term.op.args):
                assert arg.ctx is term.ctx.extend(decl.binder), term.op.label
                walk(arg)
        elif isinstance(term, Meta):
            for entry in term.env:
                walk(entry)

    for i, cfg in enumerate(CONFIGS):
        gen = _gen(cfg, seed=20260810 + i)
        for holed in (False, True):
            for _ in range(3):
                holes = {} if holed else None
                ctx, term = gen.random_item(3, 4, holes, 0.35 if holed else 0.0)
                walk(term)
                for entry in gen.random_subst(ctx).entries:
                    walk(entry)


def test_random_contexts_draw_every_entry_from_the_universe():
    """A context entry is a universe object, the base type added to an
    uninhabited draw included, so a variable's type is the one the table's
    operators name."""
    added = 0
    for i, cfg in enumerate(CONFIGS):
        gen = _gen(cfg, seed=i)
        universe = {id(t) for t in gen.universe}
        for _ in range(20):
            ctx = gen.random_context(3)
            assert all(id(e) in universe for e in ctx.entries), ctx
        if not gen.inhabited(frozenset()):
            # a draw of no entries gets the first base type
            (entry,) = gen.random_context(0).entries
            assert entry == Base("b") and id(entry) in universe
            added += 1
    assert added > 0


@pytest.mark.parametrize("exts", [("records", "variants"), ("naturals",),
                                  ("recursion",)])
def test_enumeration_reaches_every_listed_family(exts):
    """The enumerator has no productions of its own: every family the
    operator table lists shows up among the values and terms of depth 2 and
    3 over the empty context."""
    cfg = config(exts, nat_bound=2)
    table = CbvOperatorTable(cfg)
    enum = Enumeration(table, max_ctx=2)
    seen = set()

    def walk(term):
        if isinstance(term, Op):
            seen.add(term.op.family)
            for arg in term.args:
                walk(arg)

    for t in types_upto(cfg, 2):
        for depth in (2, 3):
            for term in (enumerate_values(enum, Context(()), t, depth)
                         + enumerate_terms(enum, Context(()), t, depth)):
                walk(term)
    assert seen == {op.family for op in table.operators(types_upto(cfg, 3))}


# sha256 of the exhaustive lemma's cases, ``f"{term!r}|{env!r}"`` joined by
# newlines, per combination and substitution context bound, with the case
# count; the enumerated terms, their order and the pools decide every case
GOLDEN_EXHAUSTIVE = {
    ((), 1): (3, "d950cf71e6652d32b7082e0858f053bc393fa0f46d5b616d4c7a0ccd87ce06ed"),
    (("sequential",), 1):
        (315, "e354ece4f94e3d77e680c776a27d9c8b9eb411e8c5d67121b1386f884076bf6b"),
    (("functions",), 1):
        (33, "5a924c5583e71d7f9f72ea36712cb913bdd48eec9ecf5cf75fb5955a7230bb29"),
    (("sequential", "functions"), 1):
        (1095, "76d97ec1beb563470a38a2e1e194ee7848ec328764836538d241cdeda5fd7b06"),
    ((), 2): (13, "c34be358ec3932dd06e1734e8b9e65bee43e1b24967a90fb9b3a6bdf613c491a"),
    (("sequential",), 2):
        (997, "c6c267067b9163be827886cfe2927df4e86c99560e819e4c17758961fdfff194"),
    (("functions",), 2):
        (129, "67724f74577fcff6a8c137ceeb47717f97c993584136b00ef385fa4ee3dec1d0"),
    (("sequential", "functions"), 2):
        (4035, "dac087a8d3a9dd275b65905c58ea2c07b92e3da4439b3992f509e45a04e663d1"),
}


@pytest.mark.parametrize(
    "exts,subst_ctx_len", GOLDEN_EXHAUSTIVE,
    ids=[f"{'+'.join(e) or 'base'}-{n}" for e, n in GOLDEN_EXHAUSTIVE])
def test_exhaustive_corpus_matches_golden_digest(exts, subst_ctx_len,
                                                 monkeypatch):
    """Every case the exhaustive substitution lemma visits, in order, at the
    registry's (2) and the benchmark's (1) substitution context bound.
    Passing reports name no terms, so a change to the enumerator shows
    here.  The lemma itself is criterion 3's: the cases are recorded, not
    checked."""
    from substkit.semantics import checks
    cases = []

    def record(term, env, *_):
        cases.append(f"{term!r}|{env!r}")
        return True, None

    monkeypatch.setattr(checks, "_lemma_at", record)
    checks.check_substitution_lemma_exhaustive(
        config(exts), model(monads.monad_by_name("identity"), {"b": 2}),
        subst_ctx_len=subst_ctx_len)
    digest = hashlib.sha256("\n".join(cases).encode()).hexdigest()
    assert (len(cases), digest) == GOLDEN_EXHAUSTIVE[exts, subst_ctx_len]
