"""Acceptance criteria, one test per criterion, at the stated bounds.

Each test prints a single PASS line on success; failures carry the first
witness from the structured report.  Criteria and tolerances:

1. term-level action/monoid axioms: all 128 fragment configs, >=200 seeded
   random terms each (depth <=4, contexts <=3, <=2 base types), exact
   structural equality, within 5 minutes;
2. oracle equivalence of the fold-derived substitution with the independent
   index-shifting one, on the same corpus;
3. semantic substitution lemma: exhaustive for the base/sequential/functional
   combinations under the identity and option monads (base sets <=3, all
   terms of depth <=3 over contexts <=2), randomized (>=100 cases/config)
   for the remaining 124 configs under the option monad at nat bound 4;
4. the four strong-monad laws for all six bundled monads, exhaustive at
   sizes <=2 (seeded sweeps where a pair space exceeds the budget) and
   sampled at size 3;
5. compatibility squares for the base/sequential/functional fragments under
   identity and option, over contexts of length <=2, for the families those
   fragments mint (``val``, ``let``, ``lam``, ``app``), the semantic action
   axioms, plus one failing mutation per family (the other families rest on
   criterion 3's sampled lemma);
6. finite-presheaf laws on >=20 seeded random structures plus the
   non-invertibility witness;
7. the coend quotient: the three motivating identifications and >=100 random
   generator pairs on the hand-encoded term structure;
8. Elgot iteration against the bounded-unrolling oracle, divergence on
   self-loops, letrec factorial/even-odd against reference evaluators, and
   the Kleene fixed-point equations;
9. metavariable Kleisli laws and commutation with substitution: all 128
   fragment configs, 20 seeded holed terms each (2,560 terms).

Criteria 1 and 3-9 run the parts that ``substkit check`` runs (the registry in
``substkit.suites``), at the acceptance seed and sizes.
"""

import time

import pytest

from substkit import suites
from substkit.cbv import config
from substkit.cbv.ops import CbvOperatorTable
from substkit.report import Report
from substkit.semantics import OptionMonad, model
from substkit.semantics.checks import check_compatibility

SEED = 20260810


def _assert_ok(rep: Report, label: str):
    failure = rep.first_failure()
    assert failure is None, f"{label}: {failure.suite} / {failure.name}: {failure.witness}"
    print(f"PASS {label}")


@pytest.fixture(scope="module")
def term_law_report():
    t0 = time.time()
    rep = Report()
    suites.term_laws(rep, SEED, count=200)
    rep.elapsed = time.time() - t0
    return rep


def test_criterion_1_term_action_axioms(term_law_report):
    rep = term_law_report
    laws = [r for r in rep.records if "oracle" not in r.name]
    assert len(laws) == 128 * 3
    bad = [r for r in laws if not r.ok]
    assert not bad, bad[0]
    assert rep.elapsed < 300, f"term-law sweep took {rep.elapsed:.0f}s"
    print(f"PASS criterion 1: 128 configs x 200 terms, unit/assoc laws exact "
          f"({rep.elapsed:.0f}s)")


def test_criterion_2_oracle_equivalence(term_law_report):
    oracle = [r for r in term_law_report.records if "oracle" in r.name]
    assert len(oracle) == 128
    bad = [r for r in oracle if not r.ok]
    assert not bad, bad[0]
    print("PASS criterion 2: fold-derived substitution equals the "
          "index-shifting reference on the full corpus")


def test_criterion_3_substitution_lemma():
    rep = Report()
    suites.substitution_lemma(rep, SEED, count=100)
    assert len([r for r in rep.records if "random" in r.name]) == 124
    # base, sequential, functions, both: identity then option
    assert [r.name for r in rep.records if "exhaustive" in r.name] == [
        f"exhaustive corpus ({n} checks)"
        for n in (13, 13, 997, 997, 129, 129, 4035, 4035)]
    _assert_ok(rep, "criterion 3: substitution lemma "
                    "(8 exhaustive combinations + 124 randomized configs)")


def test_criterion_4_strong_monad_laws():
    rep = Report()
    suites.monad_laws(rep, SEED)
    _assert_ok(rep, "criterion 4: four strong-monad laws, six monads")


def test_criterion_5_compatibility_and_mutations(corrupt_clause):
    rep = Report()
    suites.compatibility(rep, SEED)
    _assert_ok(rep, "criterion 5a: compatibility squares, base/sequential/"
                    "functions under identity and option")
    mutants = 0
    for exts in suites.COMPATIBILITY_EXTENSIONS:
        cfg = config(exts)
        table = CbvOperatorTable(cfg)
        for fam in dict.fromkeys(op.family for op in table.operators()):
            corrupt_clause(fam)
            broken = check_compatibility(model(OptionMonad(), {"b": 2}), cfg,
                                         seed=SEED)
            failure = broken.first_failure()
            assert failure is not None and failure.witness, \
                f"mutation {fam} in {cfg.name()} unexpectedly passed"
            mutants += 1
    print(f"PASS criterion 5b: {mutants} corrupted clauses fail with "
          "witnesses (remaining families subsumed by criterion 3)")


def test_criterion_6_finite_presheaf_laws():
    rep = Report()
    for part in (suites.presheaf_laws, suites.skew, suites.pointed):
        part(rep, SEED, structures=20)
    assert any("not invertible" in r.name for r in rep.records)
    _assert_ok(rep, "criterion 6: actegory/pointed/skew laws on 20 seeded "
                    "random structures, with the empty-cell witness")


def test_criterion_7_coend_quotient():
    rep = Report()
    suites.coend_quotient(rep, SEED)
    assert rep.ok, rep.first_failure()
    assert rep.records[-1].name == "random generator pairs symmetric (100)"
    print("PASS criterion 7: the three identifications merge; 100 random "
          "generator pairs symmetric")


def test_criterion_8_elgot_and_fixpoints():
    rep = Report()
    suites.elgot_and_fixpoints(rep, SEED)
    _assert_ok(rep, "criterion 8: Elgot vs unrolling oracle, divergence, "
                    "letrec references, Kleene fixed points")


def test_criterion_9_metavariable_laws():
    rep = Report()
    suites.meta_laws(rep, SEED, count=20)
    assert len(rep.records) == 128 * 3
    _assert_ok(rep, "criterion 9: metavariable Kleisli laws and commutation, "
                    "128 configs x 20 holed terms")
