"""Semantic law suites: action axioms, compatibility squares, substitution lemma.

Compatibility quantifies over arbitrary sub-denotation tables, not just
denotations of terms, so the squares genuinely test each algebra clause's
naturality in the context.  The substitution lemma suite compares the table of
a substituted term with the composite of tables, exhaustively on enumerated
corpora for the small fragments and on seeded random corpora elsewhere.
"""

from __future__ import annotations

import itertools
import random

from ..cbv.gen import TermGen, enumerate_terms, enumerate_values
from ..cbv.ops import CbvOperatorTable
from ..cbv.types import (NAT, Base, FragmentConfig, Fun, done_cont_shape, fun,
                         types_upto, valid_type)
from ..report import Report
from ..signatures import route_environment
from ..sorts import (Context, enumerate_contexts, enumerate_renamings, first,
                     second)
from ..terms import Op, SubstEnv, Term, Var, substitute
from .denote import (DenotationCarrier, Interpreter, NonConvergence, denote,
                     elgot_unrolling_oracle, kleene_fixpoint)
from .finset import FinSet
from .monads import NONE, OptionMonad
from .model import (Denotation, Model, context_space, identity_sem_env,
                    interp_size, interpret_type, model, precompose, projection,
                    subst_denotation)


def _all_tables(space: FinSet, outs: FinSet, cap: int, rng) -> list:
    """Every output tuple over the space, or a seeded sample past the cap."""
    total = outs.size ** space.size
    if total <= cap:
        return [dict(zip(space, combo))
                for combo in itertools.product(outs.elements, repeat=space.size)]
    out = []
    for _ in range(cap):
        out.append({p: rng.choice(outs.elements) for p in space})
    return out


def _table_denotation(sort, ctx, m: Model, nat_bound: int,
                      mapping: dict) -> Denotation:
    """A fixed table as a view: reading a point looks it up."""
    return Denotation(sort, ctx, m, nat_bound, mapping.__getitem__)


def _sem_envs(src: Context, tgt: Context, m: Model, nat_bound: int,
              cap: int, rng) -> list:
    """Semantic substitutions: tuples of tables, one per source position."""
    tgt_space = context_space(tgt, m, nat_bound)
    pools = []
    for t in src.entries:
        outs = interpret_type(t, m, nat_bound)
        pools.append(_all_tables(tgt_space, FinSet(outs), cap, rng))
    total = 1
    for p in pools:
        total *= len(p)
    combos = (itertools.product(*pools) if total <= cap
              else (tuple(rng.choice(p) for p in pools) for _ in range(cap)))
    out = []
    for combo in combos:
        out.append([_table_denotation(first(t), tgt, m, nat_bound, mapping)
                    for t, mapping in zip(src.entries, combo)])
    return out


# --- semantic substitution structure axioms -------------------------------------

def check_sem_action_axioms(m: Model, cfg: FragmentConfig, cap: int = 300,
                            seed: int = 0, report: Report | None = None) -> Report:
    rep = report if report is not None else Report()
    suite = "sem-action"
    rng = random.Random(seed)
    nb = cfg.nat_bound
    b = Base(cfg.base_types[0])
    ctxs = enumerate_contexts((b,), 2)

    left_ok = right_ok = assoc_ok = coend_ok = True
    witness = {}
    for src in ctxs:
        src_space = context_space(src, m, nb)
        for tgt in ctxs:
            envs = _sem_envs(src, tgt, m, nb, cap, rng)
            for env in envs:
                # left unit: a variable's table after substitution is the entry
                for pos in range(len(src)):
                    lhs = subst_denotation(projection(src, pos, m, nb), env, m, nb,
                                           target=tgt)
                    if lhs.table() != env[pos].table():
                        left_ok, witness["left"] = False, f"{src!r} pos {pos}"
                # pick representative tables over src to substitute into
                outs = FinSet(m.monad.apply(interpret_type(b, m, nb)))
                for mapping in _all_tables(src_space, outs, 12, rng):
                    d = _table_denotation(second(b), src, m, nb, mapping)
                    ident = identity_sem_env(src, m, nb)
                    if subst_denotation(d, ident, m, nb).table() != d.table():
                        right_ok, witness["right"] = False, f"{src!r}"
                    for tgt2 in ctxs[:2]:
                        for env2 in _sem_envs(tgt, tgt2, m, nb, 4, rng):
                            one = subst_denotation(
                                subst_denotation(d, env, m, nb, target=tgt),
                                env2, m, nb, target=tgt2)
                            composed = [subst_denotation(e, env2, m, nb,
                                                          target=tgt2)
                                        for e in env]
                            two = subst_denotation(d, composed, m, nb,
                                                   target=tgt2)
                            if one.table() != two.table():
                                assoc_ok, witness["assoc"] = False, f"{src!r}"
                    # coend well-definedness: renaming then substituting equals
                    # substituting the reindexed environment
                    for src0 in ctxs:
                        for rho in enumerate_renamings(src0, src):
                            for env0 in _sem_envs(src0, tgt, m, nb, 2, rng):
                                lhs = subst_denotation(
                                    precompose(d, rho, m, nb), env0, m, nb,
                                    target=tgt)
                                reindexed = [env0[rho.mapping[y]]
                                             for y in range(len(src))]
                                rhs = subst_denotation(d, reindexed, m, nb,
                                                        target=tgt)
                                if lhs.table() != rhs.table():
                                    coend_ok, witness["coend"] = False, f"{rho!r}"

    rep.record(suite, "left unit (x[s] = s_x)", left_ok, witness.get("left"))
    rep.record(suite, "right unit (d[id] = d)", right_ok, witness.get("right"))
    rep.record(suite, "associativity (d[s1][s2] = d[s1[s2]])", assoc_ok,
               witness.get("assoc"))
    rep.record(suite, "coend well-definedness (renaming vs reindexing)",
               coend_ok, witness.get("coend"))

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

FRAGMENT_FAMILIES = {
    "base": ("val",),
    "sequential": ("let",),
    "functions": ("lam", "app"),
    # the cotupled algebra of several fragments at once: compatibility of the
    # coproduct equals per-summand compatibility, checked jointly here
    "joint": ("val", "let", "lam", "app"),
}


def _op_instances(family: str, table: CbvOperatorTable, universe):
    cfg = table.cfg
    if family == "val":
        return [table.val(t) for t in universe]
    if family == "let":
        out = []
        for n in (1, 2):
            for bound in itertools.product(universe, repeat=n):
                for res in universe:
                    out.append(table.let(bound, res))
        return out
    if family == "lam":
        return [table.lam(t.dom, t.cod) for t in universe if isinstance(t, Fun)]
    if family == "app":
        return [table.app(t.dom, t.cod) for t in universe if isinstance(t, Fun)]
    raise ValueError(family)


def check_compatibility(fragment: str, m: Model, cfg: FragmentConfig,
                        ctx_len: int = 1, seed: int = 0,
                        report: Report | None = None) -> Report:
    """The compatibility square for every operator of the fragment: substituting
    after interpreting equals interpreting the strength-routed substitution.

    Operators range over the types of depth at most 2 whose interpretation has
    at most 12 elements; each argument takes at most 12 tables, each square at
    most 6 environments."""
    rep = report if report is not None else Report()
    suite = f"compatibility[{fragment},{m.monad.name}]"
    rng = random.Random(seed)
    nb = cfg.nat_bound
    table = CbvOperatorTable(cfg)
    universe = [t for t in types_upto(cfg, 2) if interp_size(t, m, nb) <= 12]
    table_cap = 12
    b = Base(cfg.base_types[0])
    ctxs = enumerate_contexts((b,), ctx_len)
    interp = Interpreter(m, cfg, table)
    carrier = DenotationCarrier(m, nb)

    checked = 0
    for family in FRAGMENT_FAMILIES[fragment]:
        for op in _op_instances(family, table, universe):
            for src in ctxs:
                # candidate argument tables, one pool per argument
                pools = []
                for arg in op.args:
                    arg_ctx = src.extend(arg.binder)
                    space = context_space(arg_ctx, m, nb)
                    if arg.sort.is_first:
                        outs = FinSet(interpret_type(arg.sort.ident, m, nb))
                    else:
                        outs = FinSet(m.monad.apply(
                            interpret_type(arg.sort.ident, m, nb)))
                    pool = _all_tables(space, outs, table_cap, rng)
                    pools.append([_table_denotation(arg.sort, arg_ctx, m, nb, t)
                                  for t in pool])
                total = 1
                for p in pools:
                    total *= len(p)
                tuples = (itertools.product(*pools) if total <= table_cap ** 2
                          else [tuple(rng.choice(p) for p in pools)
                                for _ in range(table_cap)])
                for values in tuples:
                    lhs_base = interp.alg(op, list(values), src)
                    for tgt in ctxs:
                        for env in _sem_envs(src, tgt, m, nb, 6, rng):
                            lhs = subst_denotation(lhs_base, env, m, nb,
                                                   target=tgt)
                            routed_values = []
                            for arg, d in zip(op.args, values):
                                new_ctx, routed = route_environment(
                                    arg.binder, tgt, env, carrier)
                                routed_values.append(
                                    subst_denotation(d, routed, m, nb,
                                                     target=new_ctx))
                            rhs = interp.alg(op, routed_values, tgt)
                            checked += 1
                            diff = lhs.difference_witness(rhs)
                            if diff is not None:
                                rep.record(
                                    suite, f"{op.label} over {src.entries}",
                                    False,
                                    f"point {diff[0]!r}: {diff[1]!r} vs "
                                    f"{diff[2]!r} under a substitution into "
                                    f"{tgt.entries}")
                                return rep
    rep.record(suite, f"{fragment}: {checked} squares", True, None)
    return rep


# --- the substitution lemma ---------------------------------------------------------

def lemma_holds(t: Term, env: SubstEnv, m: Model, cfg: FragmentConfig,
                table: CbvOperatorTable, denoted: dict) -> tuple:
    """Whether the table of ``t[env]`` equals the table of ``t`` composed with
    the entries' tables, and the first point where they differ.  ``denoted``
    maps terms to their denotations; the caller owns it and this fills it."""
    # the substituted term is one-shot: interpret it without keeping it
    lhs = denote(substitute(t, env), m, cfg, table)
    for e in (*env.entries, t):
        if e not in denoted:
            denoted[e] = denote(e, m, cfg, table)
    rhs = subst_denotation(denoted[t], [denoted[e] for e in env.entries], m,
                           cfg.nat_bound, target=env.target)
    diff = lhs.difference_witness(rhs)
    return (diff is None), diff


def check_substitution_lemma_exhaustive(cfg: FragmentConfig, m: Model,
                                        subst_ctx_len: int = 2,
                                        report: Report | None = None) -> Report:
    """All terms of depth at most 3 over source contexts of length at most 2
    (binder extensions up to length 3), against the variable-entry
    substitutions plus a deterministic rotation through the pool of
    substitutions whose entries are values of depth at most 2."""
    rep = report if report is not None else Report()
    suite = f"subst-lemma[{cfg.name()},{m.monad.name}]"
    table = CbvOperatorTable(cfg)
    denoted: dict = {}
    b = Base(cfg.base_types[0])
    universe = tuple(t for t in (b, fun(b, b)) if valid_type(t, cfg))
    ctxs = enumerate_contexts(universe, 2)
    sub_ctxs = enumerate_contexts(universe, subst_ctx_len)
    memo: dict = {}
    checked = 0
    for src in ctxs:
        # the substitution pool for this source context
        pool = []
        for tgt in sub_ctxs:
            entry_pools = []
            for t in src.entries:
                vals = enumerate_values(table, tgt, t, 2, universe, memo)
                entry_pools.append(vals)
            if any(not p for p in entry_pools):
                continue
            for combo in itertools.product(*entry_pools):
                pool.append(SubstEnv(src, tgt, combo))
        if not pool:
            continue
        # every term meets every variable-entry substitution and one value
        # entry, rotating through the rest
        var_only, rest = [], []
        for env in pool:
            (var_only if all(isinstance(e, Var) for e in env.entries)
             else rest).append(env)
        rotate = 0
        for t in universe:
            for term in enumerate_terms(table, src, t, 3, universe, memo,
                                        max_ctx=3):
                envs = var_only + [rest[rotate % len(rest)]] if rest else var_only
                for env in envs:
                    ok, diff = lemma_holds(term, env, m, cfg, table, denoted)
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
    table = CbvOperatorTable(cfg)
    denoted: dict = {}
    gen = TermGen(cfg, table, rng, interp_cap=40, model=m)
    checked = 0
    while checked < count:
        ctx, term = gen.random_item(2, 3)
        env = gen.random_subst(ctx)
        if context_space(env.target, m, cfg.nat_bound).size > 256:
            continue
        ok, diff = lemma_holds(term, env, m, cfg, table, denoted)
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

    def _alg_for(self, op, params, values, ctx):
        state, _ = params
        self._require(self.m.monad.elgot_capable, "unbounded iteration")
        monad = self.m.monad
        init, body = values
        state_size = interp_size(state, self.m, self.cfg.nat_bound)
        conv = lambda tv: ("inl", tv[1]) if tv[0] == "Done" else ("inr", tv[1])

        def fn(point):
            step = lambda v: monad.tmap(conv, body.at(point + (v,)))
            return monad.bind(
                lambda g, v0: elgot_unrolling_oracle(step, v0, state_size + 1),
                point, init.at(point))

        return self._den(op, ctx, fn)


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
    gen = TermGen(cfg, table, rng, interp_cap=12, model=m)
    unrolling = _UnrollingInterpreter(m, cfg, table)
    checked = 0
    while checked < count:
        ctx = gen.random_context(2)
        w = sorted(gen.inhabited(frozenset(ctx.entries)), key=repr)
        state = rng.choice(w)
        result = rng.choice(w)
        if interp_size(state, m, cfg.nat_bound) > 8:
            continue
        init = gen.random_term(ctx, state, 2)
        inner = Context(ctx.entries + (state,))
        body = gen.random_term(inner, done_cont_shape(result, state), 3)
        term = Op(table.forloop(state, result), ctx, [init, body])
        lhs = denote(term, m, cfg, table)
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
    term = typecheck(parse(self_loop), Context(()), second(NAT), cfg, table)
    d = denote(term, m, cfg, table)
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
    table = CbvOperatorTable(cfg)
    ctx = Context((NAT,))
    term = typecheck(parse(FACTORIAL), ctx, second(NAT), cfg, table)
    d = denote(term, m, cfg, table)
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
    table2 = CbvOperatorTable(cfg2)
    term2 = typecheck(parse(EVEN_ODD), ctx, second(NAT), cfg2, table2)
    d2 = denote(term2, m, cfg2, table2)
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
