"""Seeded law suites and the registry that ``substkit check`` runs.

``SUITES`` maps each ``check`` name to its parts, run in order; the acceptance
tests call the same parts at their own seed and sizes.  Everything is
deterministic given the seed; reports carry one record per (config, law).
Parts import the semantic and presheaf layers when they run, so importing
this module stays cheap.
"""

from __future__ import annotations

import random

from .cbv.gen import TermGen
from .cbv.ops import CbvOperatorTable
from .cbv.types import FragmentConfig, all_fragment_configs, config, parse_fragment
from .report import Report
from .sorts import Context, first, second
from .terms import (MetaSubst, Var, compose_meta_subst, compose_subst,
                    identity_env, identity_meta_subst, meta_substitute,
                    substitute, substitute_direct)


def check_term_laws(cfg: FragmentConfig, seed: int, count: int = 200,
                    depth: int = 4, ctx_bound: int = 3,
                    report: Report | None = None) -> Report:
    """Left/right unit, associativity, and agreement with the independent
    index-shifting substitution, on a seeded corpus."""
    rep = report if report is not None else Report()
    suite = f"term-laws[{cfg.name()}]"
    rng = random.Random(seed)
    gen = TermGen(CbvOperatorTable(cfg), rng)
    fails = {}
    for i in range(count):
        ctx, term = gen.random_item(ctx_bound, depth)
        s1 = gen.random_subst(ctx)
        s2 = gen.random_subst(s1.target)
        if len(ctx) and "left unit" not in fails:
            pos = rng.randrange(len(ctx))
            if substitute(Var(ctx, pos), s1) != s1.entries[pos]:
                fails["left unit"] = f"item {i}"
        if substitute(term, identity_env(ctx)) != term:
            fails.setdefault("right unit", f"item {i}")
        by_s1 = substitute(term, s1)
        if substitute(by_s1, s2) != substitute(term, compose_subst(s1, s2)):
            fails.setdefault("associativity", f"item {i}")
        if by_s1 != substitute_direct(term, s1):
            fails.setdefault("oracle agreement", f"item {i}")
    for law in ("left unit", "right unit", "associativity", "oracle agreement"):
        rep.record(suite, f"{law} ({count} terms, seed {seed})",
                   law not in fails, fails.get(law))
    return rep


def check_meta_laws(cfg: FragmentConfig, seed: int, count: int = 200,
                    depth: int = 3, ctx_bound: int = 3,
                    report: Report | None = None) -> Report:
    """Kleisli unit and associativity of metavariable substitution, and its
    commutation with simultaneous substitution, on a holed corpus."""
    rep = report if report is not None else Report()
    suite = f"meta-laws[{cfg.name()}]"
    rng = random.Random(seed)
    gen = TermGen(CbvOperatorTable(cfg), rng)
    fails = {}
    for i in range(count):
        holes: dict = {}
        ctx, term = gen.random_item(ctx_bound, depth, holes, hole_prob=0.35)
        if meta_substitute(term, identity_meta_subst(holes.values())) != term:
            fails.setdefault("Kleisli unit", f"item {i}")
        mid_holes: dict = {}
        ms1 = MetaSubst({ident: (h, gen.random_at(h.ctx, h.sort, 2,
                                                  mid_holes, 0.3))
                         for ident, h in holes.items()})
        ms2 = MetaSubst({ident: (h, gen.random_at(h.ctx, h.sort, 2))
                         for ident, h in mid_holes.items()})
        lhs = meta_substitute(meta_substitute(term, ms1), ms2)
        if lhs != meta_substitute(term, compose_meta_subst(ms1, ms2)):
            fails.setdefault("Kleisli associativity", f"item {i}")
        ms_closed = MetaSubst({ident: (h, gen.random_at(h.ctx, h.sort, 2))
                               for ident, h in holes.items()})
        sigma = gen.random_subst(ctx)
        if substitute(meta_substitute(term, ms_closed), sigma) != \
                meta_substitute(substitute(term, sigma), ms_closed):
            fails.setdefault("commutation with substitution", f"item {i}")
    for law in ("Kleisli unit", "Kleisli associativity",
                "commutation with substitution"):
        rep.record(suite, f"{law} ({count} terms, seed {seed})",
                   law not in fails, fails.get(law))
    return rep


# --- the registry -------------------------------------------------------------

def _configs(fragment: str | None, nat_bound: int) -> list[FragmentConfig]:
    """One parsed fragment, or all 128 configurations over two base types."""
    if fragment is None:
        return all_fragment_configs(("b", "c"), nat_bound)
    return [parse_fragment(fragment, nat_bound)]


def term_laws(rep: Report, seed: int, count: int, depth: int = 4,
              ctx_bound: int = 3, nat_bound: int = 4,
              fragment: str | None = None) -> None:
    for i, cfg in enumerate(_configs(fragment, nat_bound)):
        check_term_laws(cfg, seed + i, count, depth, ctx_bound, report=rep)


def meta_laws(rep: Report, seed: int, count: int, nat_bound: int = 4,
              fragment: str | None = None) -> None:
    for i, cfg in enumerate(_configs(fragment, nat_bound)):
        check_meta_laws(cfg, seed + i, count, report=rep)


def _homogeneous(rng):
    """A seeded free structure at the first-class sort a."""
    from .finpresheaf import free_structure
    return free_structure(rng, (first("a"),), ("a",), 2,
                          ensure=[(first("a"), Context(("a",)))])


def _computations(rng):
    """A seeded free structure at the second-class sort k."""
    from .finpresheaf import free_structure
    return free_structure(rng, (second("k"),), ("a",), 2,
                          ensure=[(second("k"), Context(()))])


def presheaf_laws(rep: Report, seed: int, structures: int) -> None:
    """Actegory axioms and the shift strength on seeded free structures."""
    from .finpresheaf import check_action_axioms
    from .finpresheaf.laws import check_shift_strength, pointed_free
    for i in range(structures):
        rng = random.Random(seed + i)
        p = _computations(rng)
        q, l = _homogeneous(rng), _homogeneous(rng)
        check_action_axioms(p, q, l, report=rep, suite=f"presheaf[{i}]")
        check_shift_strength(p, Context(("a",)), pointed_free(rng, ("a",), 2),
                             pointed_free(rng, ("a",), 2), report=rep,
                             suite=f"strength[{i}]")


def coend_quotient(rep: Report, seed: int) -> None:
    """The three motivating identifications, then 100 random generator pairs
    (rho acting on the term versus on the environment) on the term structure,
    and every generator pair into the cells the identifications live in; all
    of them must land in equal quotient classes."""
    from .finpresheaf import tensor
    from .finpresheaf.structures import (enumerate_envs, enumerate_renamings,
                                         reindex_env)
    from .termstruct import cbv_term_structure, motivating_identifications
    P, Q, table = cbv_term_structure()
    t = tensor(P, Q)
    idents = motivating_identifications(table)
    apart = [f"{s!r} over {amb!r}: {left!r} and {right!r} stay apart"
             for s, amb, left, right in idents
             if t.class_of(s, amb, left) != t.class_of(s, amb, right)]
    rep.record("coend", "the three motivating identifications merge", not apart,
               apart[0] if apart else None)

    def symmetric(s, amb, rho, elem, env) -> bool:
        left = (rho.source.entries, P.act(s, rho, elem), env)
        right = (rho.target.entries, elem, reindex_env(env, rho))
        return t.class_of(s, amb, left) == t.class_of(s, amb, right)

    rng = random.Random(seed)
    ctxs = P.contexts()
    confirmed = 0
    while confirmed < 100:
        g1, g2, amb = (rng.choice(ctxs) for _ in range(3))
        rhos = enumerate_renamings(g1, g2)
        s = rng.choice(P.sorts)
        if not rhos or not P.cell(s, g2):
            continue
        envs = list(enumerate_envs(Q, g1, amb))
        if not envs:
            continue
        rho, elem, env = rng.choice(rhos), rng.choice(P.cell(s, g2)), rng.choice(envs)
        if not symmetric(s, amb, rho, elem, env):
            rep.record("coend", "random generator pairs symmetric", False,
                       f"{rho!r} on {elem!r}")
            return
        confirmed += 1
    # uniform draws rarely hit the one renaming an identification needs, such
    # as the swap of [b -> b, b -> b], so the cells of both sides of each
    # identification are checked in full
    cells = dict.fromkeys((s, Context(side[0]), amb)
                          for s, amb, *sides in idents for side in sides)
    for s, g2, amb in cells:
        for g1 in ctxs:
            for rho in enumerate_renamings(g1, g2):
                for elem in P.cell(s, g2):
                    for env in enumerate_envs(Q, g1, amb):
                        if not symmetric(s, amb, rho, elem, env):
                            rep.record("coend", "random generator pairs symmetric",
                                       False, f"{rho!r} on {elem!r}")
                            return
    rep.record("coend", f"random generator pairs symmetric ({confirmed})", True, None)


def skew(rep: Report, seed: int, structures: int) -> None:
    from .finpresheaf import PairObject, check_skew
    for i in range(structures):
        rng = random.Random(seed + i)
        objects = [PairObject(_homogeneous(rng), _computations(rng))
                   for _ in range(4)]
        check_skew(("a",), ("k",), 2, objects, report=rep, suite=f"skew[{i}]")


def pointed(rep: Report, seed: int, structures: int) -> None:
    from .finpresheaf import check_pointed_tensor
    from .finpresheaf.laws import pointed_free, pointed_variables
    for i in range(structures):
        rng = random.Random(seed + i)
        check_pointed_tensor(pointed_free(rng, ("a",), 2),
                             pointed_free(rng, ("a",), 2), report=rep,
                             suite=f"pointed[{i}]")
    check_pointed_tensor(pointed_variables(("a",), 2),
                         pointed_free(random.Random(seed), ("a",), 2),
                         report=rep, suite="pointed[variables]")


def monad_laws(rep: Report, seed: int, monad: str | None = None) -> None:
    """The four strong-monad laws for one bundled monad, or for all six."""
    from .semantics.monads import BUNDLED, check_monad_laws, monad_by_name
    for name in [monad] if monad else BUNDLED:
        check_monad_laws(monad_by_name(name), report=rep, seed=seed)


# the extensions of the configurations whose compatibility squares
# ``compatibility`` checks, under identity and option
COMPATIBILITY_EXTENSIONS = ((), ("sequential",), ("functions",))


def compatibility(rep: Report, seed: int) -> None:
    """Compatibility squares of the base/sequential/functional fragments under
    identity and option, then the semantic action axioms."""
    from .semantics.checks import check_compatibility, check_sem_action_axioms
    from .semantics.model import model
    from .semantics.monads import IdentityMonad, OptionMonad
    for exts in COMPATIBILITY_EXTENSIONS:
        for mon in (IdentityMonad(), OptionMonad()):
            check_compatibility(model(mon, {"b": 2}), config(exts), seed=seed,
                                report=rep)
    check_sem_action_axioms(model(OptionMonad(), {"b": 2}),
                            config(("sequential",)), seed=seed, report=rep)


# the extensions of the configurations whose substitution lemma
# ``substitution_lemma`` checks exhaustively, each with the size of ``b``
LEMMA_EXHAUSTIVE = (((), 3), (("sequential",), 3), (("functions",), 2),
                    (("sequential", "functions"), 2))


def substitution_lemma(rep: Report, seed: int, count: int) -> None:
    """Exhaustive for the base/sequential/functional combinations under
    identity and option; ``count`` random cases for each other config."""
    from .semantics.checks import (check_substitution_lemma_exhaustive,
                                   check_substitution_lemma_random)
    from .semantics.model import model
    from .semantics.monads import IdentityMonad, OptionMonad
    for exts, size in LEMMA_EXHAUSTIVE:
        for mon in (IdentityMonad(), OptionMonad()):
            check_substitution_lemma_exhaustive(
                config(exts), model(mon, {"b": size}), report=rep)
    small = {frozenset(e) for e, _ in LEMMA_EXHAUSTIVE}
    mdl = model(OptionMonad(), {"b": 2})
    for i, cfg in enumerate(all_fragment_configs(("b",), nat_bound=4)):
        if cfg.extensions not in small:
            check_substitution_lemma_random(cfg, mdl, seed=seed + i,
                                            count=count, report=rep)


def elgot_and_fixpoints(rep: Report, seed: int) -> None:
    """Elgot iteration against bounded unrolling, the letrec reference
    programs, and the Kleene fixed-point equations."""
    from .semantics.checks import (check_elgot_against_unrolling,
                                   check_kleene_properties,
                                   check_letrec_references)
    from .semantics.model import model
    from .semantics.monads import OptionMonad
    check_elgot_against_unrolling(model(OptionMonad(), {"b": 2}), seed=seed,
                                  report=rep)
    check_letrec_references(report=rep)
    check_kleene_properties(seed, report=rep)


SUITES = {
    "term-laws": (term_laws,),
    "meta-laws": (meta_laws,),
    "presheaf-laws": (presheaf_laws, coend_quotient),
    "skew": (skew,),
    "pointed": (pointed,),
    "monad-laws": (monad_laws,),
    "compatibility": (compatibility,),
    "subst-lemma": (substitution_lemma, elgot_and_fixpoints),
}
