"""Elgot iteration, bounded unrolling, Kleene fixed points, letrec references."""

import sys

import pytest

from substkit.semantics import OptionMonad, model
from substkit.semantics.checks import (check_elgot_against_unrolling,
                                       check_kleene_properties,
                                       check_letrec_references)
from substkit.semantics.denote import (NonConvergence, elgot_iterate,
                                       elgot_unrolling_oracle, kleene_fixpoint)
from substkit.semantics.monads import NONE


def some(v):
    return ("some", v)


def test_elgot_immediate_exit():
    f = lambda x: some(("inl", "done"))
    assert elgot_iterate(f, 0) == some("done")


def test_elgot_self_loop_detected():
    f = lambda x: some(("inr", x))
    assert elgot_iterate(f, 0) == NONE


def test_elgot_absent_step():
    assert elgot_iterate(lambda x: NONE, 0) == NONE


def test_elgot_countdown_matches_oracle():
    # three-state countdown reaching the answer at state 0
    def f(x):
        return some(("inl", "hit")) if x == 0 else some(("inr", x - 1))

    for start in range(3):
        assert elgot_iterate(f, start) == \
            elgot_unrolling_oracle(f, start, 4) == some("hit")


def test_elgot_random_programs_against_unrolling():
    rep = check_elgot_against_unrolling(model(OptionMonad()), seed=17, count=60)
    assert rep.ok, rep.to_text()


def test_elgot_revisit_mutant_fails_unrolling_agreement(monkeypatch):
    """A mutant of ``elgot_iterate`` that answers a revisited state with that
    state instead of divergence."""
    def revisit_is_an_answer(f, x0):
        seen, x = set(), x0
        while x not in seen:
            seen.add(x)
            m = f(x)
            if m == NONE:
                return NONE
            tag, v = m[1]
            if tag == "inl":
                return some(v)
            x = v
        return some(x)

    m = model(OptionMonad(), {"b": 2})
    assert check_elgot_against_unrolling(m, seed=20260810).ok
    # the package attribute ``substkit.semantics.denote`` is the function
    monkeypatch.setattr(sys.modules["substkit.semantics.denote"],
                        "elgot_iterate", revisit_is_an_answer)
    failure = check_elgot_against_unrolling(m, seed=20260810).first_failure()
    assert failure is not None
    assert failure.name.startswith("unrolling agreement")
    assert failure.witness.startswith("term ")


def test_kleene_identity_map_stays_at_bottom():
    assert kleene_fixpoint(lambda t: t, (NONE, NONE), 4) == (NONE, NONE)


def test_kleene_nonconvergence():
    flip = {NONE: some(0), some(0): NONE}
    with pytest.raises(NonConvergence):
        kleene_fixpoint(lambda t: (flip[t[0]],), (NONE,), 6)


def test_one_step_fixpoint_fails_the_fixpoint_records_with_witness(monkeypatch):
    """A ``kleene_fixpoint`` that stops after one step fails every fixpoint
    record of the registry part, each with a witness, and no Elgot record."""
    from substkit import suites
    from substkit.report import Report
    from substkit.semantics import checks
    rep = Report()
    suites.elgot_and_fixpoints(rep, 20260810)
    assert rep.ok, rep.to_text()
    one_step = lambda phi, bottom, max_steps: phi(bottom)
    monkeypatch.setattr(checks, "kleene_fixpoint", one_step)
    # the package attribute ``substkit.semantics.denote`` is the function
    monkeypatch.setattr(sys.modules["substkit.semantics.denote"],
                        "kleene_fixpoint", one_step)
    rep = Report()
    suites.elgot_and_fixpoints(rep, 20260810)
    failed = {r.name: r.witness for r in rep.records if not r.ok}
    assert failed == {
        "letrec factorial at nat_bound 25 (inputs 0..5)":
            "factorial(4) = ('none',), expected ('some', 24)",
        "mutual even/odd at nat_bound 4": "even(3) = ('none',)",
        "Kleene: phi(fix) = fix and leastness (30 random maps)":
            "phi(fix) != fix on trial 25",
        "non-monotone map raises NonConvergence": "no exception",
    }


def test_kleene_properties_suite():
    rep = check_kleene_properties(23)
    assert rep.ok, rep.to_text()


def test_letrec_reference_evaluators():
    rep = check_letrec_references()
    assert rep.ok, rep.to_text()
