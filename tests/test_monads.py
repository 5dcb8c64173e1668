"""Strong monad laws for the bundled monads, plus a broken-bind mutation."""

import pytest

from substkit.report import Report
from substkit.semantics.monads import (BUNDLED, ExceptionMonad, IdentityMonad,
                                       NONE, OptionMonad, PowersetMonad,
                                       StateMonad, StrongMonad, WriterMonad,
                                       check_monad_laws, monad_by_name)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_laws(name):
    budget = dict(f_cap=256, pair_budget=2000, sample_size3=20)
    rep = check_monad_laws(monad_by_name(name), **budget)
    assert rep.ok, rep.to_text()


def test_option_bind_none_propagates():
    m = OptionMonad()
    assert m.bind(lambda a, v: ("some", v + 1), None, NONE) == NONE
    assert m.bind(lambda a, v: ("some", v + 1), None, ("some", 1)) == ("some", 2)


def test_exception_propagates():
    m = ExceptionMonad(("e0",))
    assert m.bind(lambda a, v: ("ok", v), None, ("exn", "e0")) == ("exn", "e0")


def test_writer_accumulates():
    m = WriterMonad()
    out = m.bind(lambda a, v: (2, v), None, (1, "x"))
    assert out == ((1 + 2) % 3, "x")


def test_powerset_bind_is_union_of_images():
    m = PowersetMonad()
    out = m.bind(lambda a, v: frozenset({v, v + 10}), None, frozenset({1, 2}))
    assert out == frozenset({1, 2, 11, 12})


def test_state_threads_state():
    m = StateMonad(("s0", "s1"))
    prog = (("s1", "a"), ("s0", "b"))  # swap the state, produce a or b
    out = m.bind(lambda _, v: m.unit(v + v), None, prog)
    assert out == (("s1", "aa"), ("s0", "bb"))


class _BrokenBind(WriterMonad):
    """Drops the incoming log: the unit-projection law must fail."""
    name = "broken-writer"

    def bind(self, f, a, m):
        return f(a, m[1])


def test_broken_bind_fails_with_witness():
    budget = dict(f_cap=64, pair_budget=500, sample_size3=5)
    assert check_monad_laws(WriterMonad(), **budget).ok
    rep = check_monad_laws(_BrokenBind(), **budget)
    assert not rep.ok
    assert all(r.witness for r in rep.failures)
    unit = [r for r in rep.failures if r.name.startswith("unit projection")]
    assert unit and "bind(unit)" in unit[0].witness
