"""Semantic law suites: action axioms, compatibility squares, substitution lemma.

Compatibility quantifies over arbitrary sub-denotation tables, not just
denotations of terms, so the squares genuinely test an algebra clause's
naturality in the context.  They take their operators from the operator
table's enumeration; the configurations the registry runs mint ``val``,
``let``, ``lam`` and ``app``, and the other clauses rest on the sampled
substitution lemma.  The substitution lemma suite compares the table of
a substituted term with the composite of tables, exhaustively on corpora
enumerated from the operator table for the small fragments and on seeded
random corpora elsewhere.

The squares and the action axioms draw their tables and environments
through one sampler: ``_tables`` gives every table of a sort over a context
and ``_combos`` every choice of one item per pool, each past its bound a
number of seeded draws.  The draws decide which cases are checked, so their
order is part of every report.  Both checks act and point through the one
``DenotationCarrier``.
"""

from __future__ import annotations

import itertools
import math
import random

from ..cbv.gen import (Enumeration, TermGen, enumerate_terms,
                       enumerate_values)
from ..cbv.ops import CbvOperatorTable
from ..cbv.types import NAT, Base, FragmentConfig, done_cont_shape, types_upto
from ..report import Report
from ..signatures import route_environment
from ..sorts import (Context, enumerate_contexts, enumerate_renamings, first,
                     second)
from ..terms import FoldMemo, Op, SubstEnv, Term, Var, substitute
from .denote import (DenotationCarrier, Interpreter, NonConvergence, denote,
                     elgot_unrolling_oracle, kleene_fixpoint)
from .monads import NONE, OptionMonad
from .model import (Denotation, Model, context_space, identity_sem_env,
                    interp_size, interpret_type, model, precompose, projection,
                    subst_denotation)


def _combos(pools: list, limit: int, count: int, rng) -> list:
    """Every choice of one item per pool, or ``count`` seeded draws once
    there are more than ``limit`` choices."""
    if math.prod(map(len, pools)) <= limit:
        return list(itertools.product(*pools))
    return [tuple(rng.choice(p) for p in pools) for _ in range(count)]


def _tables(sort, ctx: Context, m: Model, nb: int, cap: int, rng) -> list:
    """Every table of ``sort`` over ``ctx``, or ``cap`` seeded draws past
    ``cap``; each is a view that looks its point up."""
    space = context_space(ctx, m, nb)
    outs = interpret_type(sort.ident, m, nb)
    outs = tuple(outs if sort.is_first else m.monad.apply(outs))
    return [Denotation(sort, ctx, m, nb, dict(zip(space, combo)).__getitem__)
            for combo in _combos([outs] * space.size, cap, cap, rng)]


def _sem_envs(src: Context, tgt: Context, m: Model, nat_bound: int,
              cap: int, rng) -> list:
    """Semantic substitutions: tuples of tables, one per source position."""
    pools = [_tables(first(t), tgt, m, nat_bound, cap, rng)
             for t in src.entries]
    return _combos(pools, cap, cap, rng)


# --- semantic substitution structure axioms -------------------------------------

def _sem_witness(where: str, diff: tuple, envs: tuple = ()) -> str:
    """Where two tables differ: the place, the first point at which they
    differ and the two values there (``Denotation.difference_witness``),
    and the tables of every entry of each environment of ``envs``."""
    point, got, want = diff
    tables = "".join(f", environment {[e.table() for e in env]!r}"
                     for env in envs)
    return f"{where}: point {point!r}: {got!r} vs {want!r}{tables}"


def check_sem_action_axioms(m: Model, cfg: FragmentConfig, cap: int = 300,
                            seed: int = 0, report: Report | None = None) -> Report:
    """Semantic substitution is an action: left and right unit,
    associativity and the coend condition, each witnessed by its first
    failing case (:func:`_sem_witness`)."""
    rep = report if report is not None else Report()
    suite = "sem-action"
    rng = random.Random(seed)
    nb = cfg.nat_bound
    b = Base(cfg.base_types[0])
    ctxs = enumerate_contexts((b,), 2)

    witness = {}
    for src in ctxs:
        ident = identity_sem_env(src, m, nb)
        for tgt in ctxs:
            envs = _sem_envs(src, tgt, m, nb, cap, rng)
            for env in envs:
                # left unit: a variable's table after substitution is the entry
                for pos in range(len(src)):
                    lhs = subst_denotation(projection(src, pos, m, nb), env, tgt)
                    diff = lhs.difference_witness(env[pos])
                    if diff is not None and "left" not in witness:
                        witness["left"] = _sem_witness(
                            f"{src!r} pos {pos} into {tgt!r}", diff, (env,))
                # pick representative tables over src to substitute into
                for d in _tables(second(b), src, m, nb, 12, rng):
                    diff = subst_denotation(d, ident, src).difference_witness(d)
                    if diff is not None and "right" not in witness:
                        witness["right"] = _sem_witness(f"{src!r}", diff)
                    for tgt2 in ctxs[:2]:
                        for env2 in _sem_envs(tgt, tgt2, m, nb, 4, rng):
                            one = subst_denotation(
                                subst_denotation(d, env, tgt), env2, tgt2)
                            composed = [subst_denotation(e, env2, tgt2)
                                        for e in env]
                            two = subst_denotation(d, composed, tgt2)
                            diff = one.difference_witness(two)
                            if diff is not None and "assoc" not in witness:
                                witness["assoc"] = _sem_witness(
                                    f"{src!r} into {tgt!r} into {tgt2!r}", diff,
                                    (env, env2))
                    # coend well-definedness: renaming then substituting equals
                    # substituting the reindexed environment
                    for src0 in ctxs:
                        for rho in enumerate_renamings(src0, src):
                            for env0 in _sem_envs(src0, tgt, m, nb, 2, rng):
                                lhs = subst_denotation(precompose(d, rho),
                                                       env0, tgt)
                                reindexed = [env0[rho.mapping[y]]
                                             for y in range(len(src))]
                                rhs = subst_denotation(d, reindexed, tgt)
                                diff = lhs.difference_witness(rhs)
                                if diff is not None and "coend" not in witness:
                                    witness["coend"] = _sem_witness(
                                        f"{rho!r} into {tgt!r}", diff, (env0,))

    rep.record(suite, "left unit (x[s] = s_x)", "left" not in witness,
               witness.get("left"))
    rep.record(suite, "right unit (d[id] = d)", "right" not in witness,
               witness.get("right"))
    rep.record(suite, "associativity (d[s1][s2] = d[s1[s2]])",
               "assoc" not in witness, witness.get("assoc"))
    rep.record(suite, "coend well-definedness (renaming vs reindexing)",
               "coend" not in witness, witness.get("coend"))

    # pointed/plain agreement: the carrier's variable images are the unit
    carrier = DenotationCarrier(m, nb)
    agree = True
    for ctx in ctxs:
        for pos in range(len(ctx)):
            if carrier.var(ctx, pos).table() != \
                    projection(ctx, pos, m, nb).table():
                agree = False
    rep.record(suite, "point equals the unit projections", agree, None)
    return rep


# --- compatibility ---------------------------------------------------------------

def check_compatibility(m: Model, cfg: FragmentConfig, seed: int = 0,
                        report: Report | None = None) -> Report:
    """The compatibility square for every operator of ``table.operators()``
    whose sorts and binder types lie in the universe: substituting after
    interpreting equals interpreting the strength-routed substitution.

    The universe is the types of depth at most 2 whose interpretation has at
    most 12 elements; source and target contexts have length at most 2, each
    argument takes at most 12 tables, each square at most 6 environments."""
    rep = report if report is not None else Report()
    suite = f"compatibility[{cfg.name()},{m.monad.name}]"
    rng = random.Random(seed)
    nb = cfg.nat_bound
    table = CbvOperatorTable(cfg)
    universe = {t for t in types_upto(cfg, 2) if interp_size(t, m, nb) <= 12}
    ops = [op for op in table.operators()
           if op.result_sort.ident in universe
           and all(a.sort.ident in universe
                   and universe.issuperset(a.binder.entries) for a in op.args)]
    table_cap = 12
    b = Base(cfg.base_types[0])
    ctxs = enumerate_contexts((b,), 2)
    interp = Interpreter(m, cfg)
    carrier = DenotationCarrier(m, nb)

    checked = 0
    for op in ops:
        for src in ctxs:
            # candidate argument tables, one pool per argument
            pools = [_tables(arg.sort, src.extend(arg.binder), m, nb,
                             table_cap, rng) for arg in op.args]
            combos = _combos(pools, table_cap ** 2, table_cap, rng)
            for values in combos:
                lhs_base = interp.alg(op, list(values), src)
                for tgt in ctxs:
                    for env in _sem_envs(src, tgt, m, nb, 6, rng):
                        lhs = subst_denotation(lhs_base, env, tgt)
                        routed_values = []
                        for arg, d in zip(op.args, values):
                            new_ctx, routed = route_environment(
                                arg.binder, tgt, env, carrier)
                            routed_values.append(
                                subst_denotation(d, routed, new_ctx))
                        rhs = interp.alg(op, routed_values, tgt)
                        checked += 1
                        diff = lhs.difference_witness(rhs)
                        if diff is not None:
                            rep.record(suite, f"{op.label} over {src.entries}",
                                       False,
                                       f"point {diff[0]!r}: {diff[1]!r} vs "
                                       f"{diff[2]!r} under a substitution "
                                       f"into {tgt.entries}")
                            return rep
    families = dict.fromkeys(op.family for op in ops)
    rep.record(suite, f"{', '.join(families)}: {checked} squares", True, None)
    return rep


# --- the substitution lemma ---------------------------------------------------------

def lemma_holds(t: Term, env: SubstEnv, interp: Interpreter) -> tuple:
    """Whether the table of ``t[env]`` equals the table of ``t`` composed with
    the entries' tables, and the first point where they differ.  ``interp`` is
    the caller's: the substituted term, ``t`` and the entries are denoted
    through it, so each shares what the others and earlier cases built."""
    return _lemma_at(t, env, interp, _denote(t, interp), _entries(env, interp))


def _denote(t: Term, interp: Interpreter):
    return denote(t, interp.m, interp.cfg, interp)


def _entries(env: SubstEnv, interp: Interpreter) -> list:
    return [_denote(e, interp) for e in env.entries]


def _lemma_at(t: Term, env: SubstEnv, interp: Interpreter, t_den,
              entry_dens: list, memo: FoldMemo | None = None) -> tuple:
    """``lemma_holds`` given the denotations of ``t`` and of the entries,
    which a caller that meets them in many cases denotes once; ``memo``, the
    caller's ``FoldMemo(env)``, shares the substituted subterms of its
    cases."""
    lhs = _denote(substitute(t, env, memo), interp)
    rhs = subst_denotation(t_den, entry_dens, env.target)
    diff = lhs.difference_witness(rhs)
    return (diff is None), diff


def check_substitution_lemma_exhaustive(cfg: FragmentConfig, m: Model,
                                        subst_ctx_len: int = 2,
                                        report: Report | None = None) -> Report:
    """All terms of depth at most 3 of the types of depth at most 2, over
    source contexts of those types of length at most 2 (binder extensions up
    to length 3), against the variable-entry substitutions plus a
    deterministic rotation through the pool of substitutions into contexts
    of length at most ``subst_ctx_len`` whose entries are values of depth at
    most 2 (binder extensions up to length 2).  Both are enumerated from the
    operator table's instances at result types up to the fragment's depth.

    The corpus terms share subterm objects, and the check folds each shared
    subterm once per substitution and once per ambient context.  The check
    owns one ``FoldMemo`` per substitution of a source context's pool,
    freed with that pool once the next source context's replaces it, and
    hands it through ``_lemma_at`` to ``substitute``.  The check's
    interpreter owns the fold memos of the denotations, one per ambient
    context, which the check renews at the same point.  Each distinct
    substituted node is still built, and checked, by ``Op``, and every case
    is still compared at every point of its space."""
    rep = report if report is not None else Report()
    suite = f"subst-lemma[{cfg.name()},{m.monad.name}]"
    table = CbvOperatorTable(cfg)
    # one interpreter for the whole corpus, whose terms share subterms
    interp = Interpreter(m, cfg)
    universe = types_upto(cfg, 2)
    ctxs = enumerate_contexts(universe, 2)
    sub_ctxs = enumerate_contexts(universe, subst_ctx_len)
    values = Enumeration(table, max_ctx=2)
    corpus = Enumeration(table, max_ctx=3)
    checked = 0
    for src in ctxs:
        # the substitution pool for this source context
        pool = []
        for tgt in sub_ctxs:
            entry_pools = [enumerate_values(values, tgt, t, 2)
                           for t in src.entries]
            if any(not p for p in entry_pools):
                continue
            for combo in itertools.product(*entry_pools):
                pool.append(SubstEnv(src, tgt, combo))
        if not pool:
            continue
        # the corpus terms of earlier source contexts, and the terms
        # substituted into them, do not recur
        interp.fresh_fold_memos()
        # every term meets every variable-entry substitution and one value
        # entry, rotating through the rest; each term and each substitution's
        # entries are denoted once, not once per case
        var_only, rest = [], []
        for env in pool:
            (var_only if all(isinstance(e, Var) for e in env.entries)
             else rest).append(env)
        var_only = [(env, _entries(env, interp), FoldMemo(env))
                    for env in var_only]
        rest_cases: dict = {}
        rotate = 0
        for t in universe:
            for term in enumerate_terms(corpus, src, t, 3):
                cases = var_only
                if rest:
                    k = rotate % len(rest)
                    if k not in rest_cases:
                        rest_cases[k] = (rest[k], _entries(rest[k], interp),
                                         FoldMemo(rest[k]))
                    cases = var_only + [rest_cases[k]]
                term_den = _denote(term, interp)
                for env, entry_dens, memo in cases:
                    ok, diff = _lemma_at(term, env, interp, term_den,
                                         entry_dens, memo)
                    checked += 1
                    if not ok:
                        rep.record(suite, "exhaustive corpus", False,
                                   f"term {term!r} env {env!r} at {diff!r}")
                        return rep
                rotate += 1
    rep.record(suite, f"exhaustive corpus ({checked} checks)", True, None)
    return rep


def check_substitution_lemma_random(cfg: FragmentConfig, m: Model, seed: int,
                                    count: int = 100,
                                    report: Report | None = None) -> Report:
    """``count`` random terms of depth 3 over contexts of length at most 2,
    with types whose interpretation has at most 40 elements."""
    rep = report if report is not None else Report()
    suite = f"subst-lemma[{cfg.name()},{m.monad.name}]"
    rng = random.Random(seed)
    gen = TermGen(CbvOperatorTable(cfg), rng, interp_cap=(m, 40))
    checked = 0
    while checked < count:
        ctx, term = gen.random_item(2, 3)
        env = gen.random_subst(ctx)
        if context_space(env.target, m, cfg.nat_bound).size > 256:
            continue
        # one interpreter per case: random cases share little, and a table
        # kept for the whole corpus would keep every case alive
        ok, diff = lemma_holds(term, env, Interpreter(m, cfg))
        checked += 1
        if not ok:
            rep.record(suite, f"random corpus (seed {seed})", False,
                       f"term {term!r} env {env!r} at {diff!r}")
            return rep
    rep.record(suite, f"random corpus ({checked} cases, seed {seed})", True, None)
    return rep


# --- iteration and fixpoints -----------------------------------------------------

class _UnrollingInterpreter(Interpreter):
    """Replaces Elgot iteration by a bounded unrolling: the reference route."""

    def _iteration(self, state):
        unrollings = interp_size(state, self.m, self.cfg.nat_bound) + 1
        return lambda step, x0: elgot_unrolling_oracle(step, x0, unrollings)


def check_elgot_against_unrolling(m: Model, seed: int, count: int = 50,
                                  report: Report | None = None) -> Report:
    """Random while-programs: the cycle-detecting iteration must agree with the
    (|state|+1)-step unrolling on every context point."""
    rep = report if report is not None else Report()
    suite = "elgot"
    cfg = FragmentConfig(frozenset({"while", "naturals", "sequential"}), ("b",),
                         nat_bound=3, type_depth=3)
    table = CbvOperatorTable(cfg)
    rng = random.Random(seed)
    gen = TermGen(table, rng, interp_cap=(m, 12))
    unrolling = _UnrollingInterpreter(m, cfg)
    checked = 0
    while checked < count:
        ctx = gen.random_context(2)
        w = sorted(gen.inhabited(frozenset(ctx.entries)), key=repr)
        state = rng.choice(w)
        result = rng.choice(w)
        if interp_size(state, m, cfg.nat_bound) > 8:
            continue
        init = gen.random_term(ctx, state, 2)
        inner = ctx.extend(Context((state,)))
        body = gen.random_term(inner, done_cont_shape(result, state), 3)
        term = Op(table.forloop(state, result), ctx, [init, body])
        lhs = denote(term, m, cfg)
        rhs = unrolling.denote(term)
        diff = lhs.difference_witness(rhs)
        checked += 1
        if diff is not None:
            rep.record(suite, f"unrolling agreement (seed {seed})", False,
                       f"term {term!r} at {diff!r}")
            return rep
    rep.record(suite, f"unrolling agreement ({checked} programs, seed {seed})",
               True, None)

    # a self-loop diverges: its value is the absent element everywhere
    self_loop = "for i = val 0 do val (<Done: Nat, Cont: Nat>.Cont i)"
    from ..cbv.surface import parse
    from ..cbv.typecheck import typecheck
    term = typecheck(parse(self_loop), Context(()), second(NAT), table)
    d = denote(term, m, cfg)
    ok = d.at(()) == NONE
    rep.record(suite, "self-loop yields the divergence value", ok,
               None if ok else repr(d.at(())))
    return rep


FACTORIAL = """
letrec fact[m: Nat]: Nat =
  case (unroll (val m)) of {
    0 z -> val 1
  | 1+ p -> let r = (val fact) (val {0 = p}) in
            fold (val r) acc .
              case (val acc) of {
                0 z2 -> val 0
              | 1+ prev -> fold (val m) acc2 .
                  case (val acc2) of {
                    0 z3 -> val prev
                  | 1+ q -> roll (<0: {}, 1+: Nat>.1+ (val q)) } } }
in (val fact) (val {0 = x0})
"""

EVEN_ODD = """
letrec even[m: Nat]: Nat =
  case (unroll (val m)) of {0 z -> val 1 | 1+ p -> (val odd) (val {0 = p})};
       odd[m: Nat]: Nat =
  case (unroll (val m)) of {0 z -> val 0 | 1+ p -> (val even) (val {0 = p})}
in (val even) (val {0 = x0})
"""


def _ref_factorial(n: int, bound: int):
    out = 1
    for k in range(2, n + 1):
        out *= k
        if out >= bound:
            return NONE
    return ("some", out) if out < bound else NONE


def check_letrec_references(report: Report | None = None) -> Report:
    """Factorial and mutual even/odd against direct reference evaluators."""
    from ..cbv.surface import parse
    from ..cbv.typecheck import typecheck
    rep = report if report is not None else Report()
    suite = "fixpoints"
    m = model(OptionMonad())

    cfg = FragmentConfig(
        frozenset({"recursion", "naturals", "sequential", "functions"}),
        ("b",), nat_bound=25, type_depth=4)
    ctx = Context((NAT,))
    term = typecheck(parse(FACTORIAL), ctx, second(NAT), CbvOperatorTable(cfg))
    d = denote(term, m, cfg)
    ok, witness = True, None
    for n in range(6):
        got = d.at((n,))
        want = _ref_factorial(n, 25)
        if got != want:
            ok, witness = False, f"factorial({n}) = {got!r}, expected {want!r}"
    rep.record(suite, "letrec factorial at nat_bound 25 (inputs 0..5)", ok, witness)

    cfg2 = FragmentConfig(
        frozenset({"recursion", "naturals", "sequential", "functions"}),
        ("b",), nat_bound=4, type_depth=4)
    term2 = typecheck(parse(EVEN_ODD), ctx, second(NAT),
                      CbvOperatorTable(cfg2))
    d2 = denote(term2, m, cfg2)
    ok, witness = True, None
    for n in range(4):
        want = ("some", 1 if n % 2 == 0 else 0)
        if d2.at((n,)) != want:
            ok, witness = False, f"even({n}) = {d2.at((n,))!r}"
    rep.record(suite, "mutual even/odd at nat_bound 4", ok, witness)
    return rep


def check_kleene_properties(seed: int, report: Report | None = None) -> Report:
    """Fixed-point equations and leastness on tiny random monotone maps, and
    the non-convergence guard on a non-monotone one."""
    rep = report if report is not None else Report()
    suite = "fixpoints"
    rng = random.Random(seed)
    values = [NONE, ("some", 0), ("some", 1)]

    def leq(a, b):
        return a == NONE or a == b

    ok, witness = True, None
    for trial in range(30):
        n = rng.randrange(1, 4)
        # random monotone map: entry i upgrades to its target once its
        # dependency is set; self-dependent entries seed the iteration
        targets = [rng.choice(values) for _ in range(n)]
        deps = [rng.randrange(n) for _ in range(n)]

        def phi2(tab):
            return tuple(targets[i] if (deps[i] == i or tab[deps[i]] != NONE)
                         else tab[i] for i in range(n))

        bottom = tuple(NONE for _ in range(n))
        fix = kleene_fixpoint(phi2, bottom, n + 2)
        if phi2(fix) != fix:
            ok, witness = False, f"phi(fix) != fix on trial {trial}"
        # leastness: any other fixed point dominates ours pointwise
        for cand in itertools.product(values, repeat=n):
            if phi2(cand) == cand and not all(leq(a, b)
                                              for a, b in zip(fix, cand)):
                ok, witness = False, f"not least on trial {trial}"
    rep.record(suite, "Kleene: phi(fix) = fix and leastness (30 random maps)",
               ok, witness)

    flip = {NONE: ("some", 0), ("some", 0): NONE, ("some", 1): ("some", 1)}
    try:
        kleene_fixpoint(lambda tab: (flip[tab[0]],), (NONE,), 8)
        rep.record(suite, "non-monotone map raises NonConvergence", False,
                   "no exception")
    except NonConvergence:
        rep.record(suite, "non-monotone map raises NonConvergence", True, None)
    return rep
