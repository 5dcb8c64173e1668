"""The four law-checking workloads of the benchmark.

Each workload turns an input seed into a list of units.  A unit is one call a
user of substkit waits on: one suite call for one fragment configuration
(``term-corpus``, ``subst-lemma``), one bundled monad (``monad-laws``), or one
seeded structure, plus the coend quotient (``presheaf``).  Units append their
check records to the pass's ``Report``.

Nothing here imports substkit at module level: ``prepare`` does, so the
imports count towards set-up time.  Units look substkit functions up through
their modules at call time, so the tracer's wrappers are seen by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# The seed offset of the acceptance tests; run seed 0 uses it exactly.
ACCEPTANCE_SEED = 20260810

SIZING = ("one pass takes 4-6 s on a 2-vCPU Xeon with Python 3.11 (up to 1.4 "
          "times that while the shared host is busy), so that a workload's "
          "4-5 passes, each on its own input, fit in a 30 s run; at these "
          "sizes each layer's share of traced time is close to its share at the "
          "user-facing sizes (substkit check: 50 terms per config; acceptance "
          "tests: 100 lemma cases per config, monad defaults f_cap 2048 / pair "
          "budget 10000, 20 presheaf structures)")
TERM_COUNT = 4
LEMMA_RANDOM_COUNT = 8
LEMMA_SUBST_CTX_LEN = 1
MONAD_F_CAP = 512
MONAD_PAIR_BUDGET = 2000
PRESHEAF_STRUCTURES = 12
COEND_PAIRS = 100

LEMMA_EXHAUSTIVE = [((), 3), (("sequential",), 3), (("functions",), 2),
                    (("sequential", "functions"), 2)]
MONADS = ("identity", "option", "exception", "writer", "state", "powerset")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: str
    records_per_pass: int
    passes: int  # per untraced run, each on its own input
    prepare: Callable[[int], list]


def _term_corpus(seed: int) -> list:
    from substkit import suites
    from substkit.cbv import all_fragment_configs
    units = []
    for i, cfg in enumerate(all_fragment_configs(("b", "c"), nat_bound=4)):
        units.append((f"term-laws[{cfg.name()}]", lambda rep, cfg=cfg, s=seed + i:
                      suites.check_term_laws(cfg, s, count=TERM_COUNT, depth=4,
                                             ctx_bound=3, report=rep)))
        units.append((f"meta-laws[{cfg.name()}]", lambda rep, cfg=cfg, s=seed + i:
                      suites.check_meta_laws(cfg, s, count=TERM_COUNT, depth=3,
                                             ctx_bound=3, report=rep)))
    return units


def _subst_lemma(seed: int) -> list:
    from substkit.cbv import all_fragment_configs, config
    from substkit.semantics import checks, model, monads
    units = []
    for exts, size in LEMMA_EXHAUSTIVE:
        for name in ("identity", "option"):
            mdl = model(monads.monad_by_name(name), {"b": size})
            units.append((f"exhaustive[{'+'.join(exts) or 'base'},{name}]",
                          lambda rep, cfg=config(exts, ("b",)), mdl=mdl:
                          checks.check_substitution_lemma_exhaustive(
                              cfg, mdl, subst_ctx_len=LEMMA_SUBST_CTX_LEN,
                              report=rep)))
    small = {frozenset(e) for e, _ in LEMMA_EXHAUSTIVE}
    mdl = model(monads.monad_by_name("option"), {"b": 2})
    for i, cfg in enumerate(all_fragment_configs(("b",), nat_bound=4)):
        if cfg.extensions in small:
            continue
        units.append((f"random[{cfg.name()}]", lambda rep, cfg=cfg, s=seed + i:
                      checks.check_substitution_lemma_random(
                          cfg, mdl, seed=s, count=LEMMA_RANDOM_COUNT,
                          report=rep)))
    return units


def _monad_laws(seed: int) -> list:
    from substkit.semantics import monads
    return [(name, lambda rep, name=name: monads.check_monad_laws(
                monads.monad_by_name(name), report=rep, seed=seed,
                f_cap=MONAD_F_CAP, pair_budget=MONAD_PAIR_BUDGET))
            for name in MONADS]


def _structure_unit(rep, seed: int, i: int):
    import random
    from substkit import finpresheaf as fp
    from substkit.finpresheaf import laws
    from substkit.sorts import Context, first, second
    rng = random.Random(seed)
    homog = lambda: fp.free_structure(rng, (first("a"),), ("a",), 2,
                                      ensure=[(first("a"), Context(("a",)))])
    p = fp.free_structure(rng, (second("k"),), ("a",), 2,
                          ensure=[(second("k"), Context(()))])
    q, l = homog(), homog()
    fp.check_action_axioms(p, q, l, report=rep, suite=f"action[{i}]")
    pairs = [fp.PairObject(homog(), fp.free_structure(
                 rng, (second("k"),), ("a",), 2,
                 ensure=[(second("k"), Context(()))]))
             for _ in range(4)]
    fp.check_skew(("a",), ("k",), 2, pairs, report=rep, suite=f"skew[{i}]")
    fp.check_pointed_tensor(laws.pointed_free(rng, ("a",), 2),
                            laws.pointed_free(rng, ("a",), 2), report=rep,
                            suite=f"pointed[{i}]")
    laws.check_shift_strength(p, Context(("a",)), laws.pointed_free(rng, ("a",), 2),
                              laws.pointed_free(rng, ("a",), 2), report=rep,
                              suite=f"strength[{i}]")


def _coend_unit(rep, seed: int):
    """The coend quotient on the term structure (acceptance criterion 7)."""
    import random
    from substkit import finpresheaf as fp
    from substkit import termstruct
    P, Q, table = termstruct.cbv_term_structure()
    t = fp.tensor(P, Q)
    ok = all(t.class_of(s, amb, left) == t.class_of(s, amb, right)
             for s, amb, left, right in termstruct.motivating_identifications(table))
    rep.record("coend", "the three motivating identifications merge", ok, None)
    rng = random.Random(seed)
    ctxs = P.contexts()
    confirmed, witness = 0, None
    while confirmed < COEND_PAIRS:
        g1, g2, amb = (rng.choice(ctxs) for _ in range(3))
        rhos = fp.enumerate_renamings(g1, g2)
        s = rng.choice(P.sorts)
        if not rhos or not P.cell(s, g2):
            continue
        envs = list(fp.enumerate_envs(Q, g1, amb))
        if not envs:
            continue
        rho, elem, env = rng.choice(rhos), rng.choice(P.cell(s, g2)), rng.choice(envs)
        left = (g1.entries, P.act(s, rho, elem), env)
        right = (g2.entries, elem, fp.structures.reindex_env(env, rho))
        if witness is None and t.class_of(s, amb, left) != t.class_of(s, amb, right):
            witness = f"{rho!r} on {elem!r}"
        confirmed += 1
    rep.record("coend", f"random generator pairs symmetric ({confirmed})",
               witness is None, witness)


def _presheaf(seed: int) -> list:
    import substkit.finpresheaf  # noqa: F401  (import cost belongs to set-up)
    import substkit.termstruct  # noqa: F401
    units = [(f"structure[{i}]", lambda rep, i=i: _structure_unit(rep, seed + i, i))
             for i in range(PRESHEAF_STRUCTURES)]
    units.append(("coend", lambda rep: _coend_unit(rep, seed)))
    return units


WORKLOADS = {w.name: w for w in (
    Workload("term-corpus",
             "generation, fold substitution and the index-shifting oracle over "
             "all 128 configs; no semantics or presheaf code runs",
             f"128 configs x {TERM_COUNT} terms, term and meta laws",
             128 * 7, 4, _term_corpus),
    Workload("subst-lemma",
             "denotation and table comparison; one substitution per case and "
             "option/identity binds inside denotation",
             f"8 exhaustive combos (subst contexts <= {LEMMA_SUBST_CTX_LEN}) + "
             f"124 random configs x {LEMMA_RANDOM_COUNT} cases",
             132, 4, _subst_lemma),
    Workload("monad-laws",
             "the six bundled monads' law loops, dominated by the state monad's "
             "bind; no terms involved",
             f"6 monads, f_cap {MONAD_F_CAP}, pair budget {MONAD_PAIR_BUDGET}",
             6 * 5, 5, _monad_laws),
    Workload("presheaf",
             "tensor/union-find and the presheaf law checks, kept apart from "
             "monad-laws so the state monad does not hide them",
             f"{PRESHEAF_STRUCTURES} seeded structures (action, skew, pointed, "
             f"strength) + coend quotient with {COEND_PAIRS} pairs",
             32 * PRESHEAF_STRUCTURES + 2, 5, _presheaf),
)}
