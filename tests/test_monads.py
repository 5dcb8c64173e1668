"""Strong monad laws for the bundled monads, plus broken-bind mutations.

``reference_monad_laws`` keeps the law loops as they were before the Kleisli
extension was tabulated: every bind is a real call and every function space
is listed.  The tabulated checker must give the same records.
"""

import itertools
import random
import re
import subprocess
import sys

import pytest

from conftest import child_env

from substkit.report import Report
from substkit.semantics.monads import (BUNDLED, ExceptionMonad, IdentityMonad,
                                       NONE, Monoid, OptionMonad, PowersetMonad,
                                       StateMonad, StrongMonad, WriterMonad,
                                       _abstract_set, _flat, _FunctionSpace,
                                       _witness, check_monad_laws,
                                       monad_by_name)


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


@pytest.mark.parametrize("prog", [(("s1", "a"),),
                                  (("s1", "a"), ("s0", "b"), ("s0", "c"))])
def test_state_bind_rejects_a_value_of_the_wrong_length(prog):
    m = StateMonad(("s0", "s1"))
    with pytest.raises(ValueError, match="length"):
        m.bind(lambda _, v: m.unit(v), None, prog)


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


def _magma_writer() -> WriterMonad:
    """A writer over a unital magma that is not associative: (1.1).2 = 1 but
    1.(1.2) = 2, so only parameterized associativity can fail."""
    table = {(1, 1): 2, (2, 2): 1, (1, 2): 1, (2, 1): 2}
    return WriterMonad(Monoid((0, 1, 2), 0,
                              lambda u, v: table.get((u, v), u or v)))


def test_nonassociative_writer_fails_associativity_only():
    rep = check_monad_laws(_magma_writer(), f_cap=64, pair_budget=500,
                           sample_size3=5)
    assert [(r.name, r.witness) for r in rep.failures] == [
        ("associativity (exhaustive-f/sampled-g, <=2)",
         "sizes (1, 1, 1): f={('a0', 'x0'): (1, 'y0')}, "
         "g={('b0', 'y0'): (0, 'z0'), ('b1', 'y0'): (1, 'z0')}, b='b1', "
         "a='a0', m=(1, 'x0'), lhs=(2, 'z0'), rhs=(1, 'z0')")]


def test_broken_bind_witnesses_name_the_first_case():
    """The unit-projection law has no f: its witness names the parameter, the
    point and what bind gave, at the first point that fails."""
    rep = check_monad_laws(_BrokenBind(), f_cap=64, pair_budget=500,
                           sample_size3=5)
    assert [(r.name, r.witness) for r in rep.failures] == [
        ("unit projection law (seeded sample of 64, <=2)",
         "sizes (1, 1): a='a0', m=(1, 'x0'), bind(unit)=(0, 'x0')"),
        ("size-3 samples",
         "unit at size 3: a='a1', m=(1, 'x0'), bind(unit)=(0, 'x0')")]


def _functions(dom_elems, t_elems):
    """All graphs dom -> T-values, as dicts: the listed function space."""
    dom_elems = list(dom_elems)
    for outs in itertools.product(list(t_elems), repeat=len(dom_elems)):
        yield dict(zip(dom_elems, outs))


def reference_monad_laws(monad, max_size=2, pair_budget=10_000, f_cap=2048,
                         sample_size3=60, seed=0) -> Report:
    """The law loops with a real bind at every use and listed function
    spaces; a law keeps its first failure, in ``check_monad_laws``' format."""
    rep = Report()
    suite = f"monad-laws[{monad.name}]"
    rng = random.Random(seed)
    sizes = [(na, nx, ny) for na in (1, 2) for nx in (1, 2) for ny in (1, 2)
             if max(na, nx, ny) <= max_size]
    first = {}
    assoc_mode = f_mode = "exhaustive"

    def fail(law, where, **case):
        if law not in first:
            first[law] = _witness(where, **case)

    for na, nx, ny in sizes:
        where = f"sizes {na, nx, ny}"
        a, x, y = (_abstract_set(n, k) for n, k in (("a", na), ("x", nx),
                                                     ("y", ny)))
        tx, ty = monad.apply(x), monad.apply(y)
        for av in a:
            for m in tx:
                got = monad.bind(lambda _, v: monad.unit(v), av, m)
                if got != m:
                    fail("unit", f"sizes {na, nx}", a=av, m=m,
                         **{"bind(unit)": got})
        fs = list(_functions(itertools.product(a, x), ty))
        if len(fs) > f_cap:
            f_mode = f"seeded sample of {f_cap}"
            fs = rng.sample(fs, f_cap)
        aprime = _abstract_set("p", 2)
        for f in fs:
            for h_outs in itertools.product(list(a), repeat=aprime.size):
                h = dict(zip(aprime, h_outs))
                for ap in aprime:
                    for m in tx:
                        lhs = monad.bind(lambda q, v: f[(h[q], v)], ap, m)
                        rhs = monad.bind(lambda q, v: f[(q, v)], h[ap], m)
                        if lhs != rhs:
                            fail("nat", where, f=f, h=h, p=ap, m=m, lhs=lhs,
                                 rhs=rhs)
            for av in a:
                for xv in x:
                    got = monad.bind(lambda q, v: f[(q, v)], av, monad.unit(xv))
                    if got != f[(av, xv)]:
                        fail("kleisli", where, f=f, a=av, m=monad.unit(xv),
                             got=got, want=f[(av, xv)])
        b = _abstract_set("b", 2)
        tz = monad.apply(_abstract_set("z", 2))
        gs_all = list(_functions(itertools.product(b, y), tz))
        if len(fs) * len(gs_all) <= pair_budget:
            gs_iter = [(f, g) for f in fs for g in gs_all]
        else:
            assoc_mode = "exhaustive-f/sampled-g"
            gs_iter = [(f, rng.choice(gs_all)) for f in fs
                       for _ in range(max(1, pair_budget // max(len(fs), 1)))]
        for f, g in gs_iter:
            for bv in b:
                for av in a:
                    for m in tx:
                        lhs = monad.bind(lambda q, v: g[(q, v)], bv,
                                         monad.bind(lambda q, v: f[(q, v)], av, m))
                        rhs = monad.bind(
                            lambda q, v: monad.bind(lambda q2, w: g[(q2, w)],
                                                    q[0], f[(q[1], v)]),
                            (bv, av), m)
                        if lhs != rhs:
                            fail("assoc", where, f=f, g=g, b=bv, a=av, m=m,
                                 lhs=lhs, rhs=rhs)
    for law, name in (("unit", f"unit projection law ({f_mode}, <=2)"),
                      ("nat", f"parameter naturality ({f_mode}, <=2)"),
                      ("kleisli", f"Kleisli unit law ({f_mode}, <=2)"),
                      ("assoc", f"associativity ({assoc_mode}, <=2)")):
        rep.record(suite, name, law not in first, first.get(law))
    a, x, y = (_abstract_set(n, 3) for n in "axy")
    tx, ty = monad.apply(x), monad.apply(y)
    tz = monad.apply(_abstract_set("z", 3))
    for _ in range(sample_size3):
        f = {k: rng.choice(ty.elements) for k in itertools.product(a, x)}
        g = {k: rng.choice(tz.elements) for k in itertools.product(a, y)}
        av, bv = rng.choice(a.elements), rng.choice(a.elements)
        m = rng.choice(tx.elements)
        got = monad.bind(lambda q, v: monad.unit(v), av, m)
        if got != m:
            fail("size3", "unit at size 3", a=av, m=m, **{"bind(unit)": got})
        for xv in x:
            got = monad.bind(lambda q, v: f[(q, v)], av, monad.unit(xv))
            if got != f[(av, xv)]:
                fail("size3", "Kleisli unit at size 3", f=f, a=av,
                     m=monad.unit(xv), got=got, want=f[(av, xv)])
        lhs = monad.bind(lambda q, v: g[(q, v)], bv,
                         monad.bind(lambda q, v: f[(q, v)], av, m))
        rhs = monad.bind(lambda q, v: monad.bind(lambda q2, u: g[(q2, u)],
                                                 q[0], f[(q[1], v)]),
                         (bv, av), m)
        if lhs != rhs:
            fail("size3", "associativity at size 3", f=f, g=g, b=bv, a=av,
                 m=m, lhs=lhs, rhs=rhs)
    rep.record(suite, "size-3 samples", "size3" not in first, first.get("size3"))
    return rep


class _SkipsX1Option(OptionMonad):
    """Gives ``NONE`` at ``("some", "x1")`` without calling ``f``, so the
    tabulated checker computes binds of ``g`` that no law reads."""
    name = "skip-x1-option"

    def bind(self, f, a, m):
        return NONE if m in (NONE, ("some", "x1")) else f(a, m[1])


class _StaleState(StateMonad):
    """Reads ``f(a, v)`` at the starting state rather than at the state the
    computation moved to."""
    name = "stale-state"

    def bind(self, f, a, m):
        return tuple(f(a, v)[i] for i, (_, v) in enumerate(m))


class _NoneAtP1Option(OptionMonad):
    """Answers ``NONE`` whenever it is handed the parameter ``"p1"`` of
    ``a'``, so only naturality in the parameter can fail."""
    name = "none-at-p1-option"

    def bind(self, f, a, m):
        return NONE if a == "p1" else super().bind(f, a, m)


REFERENCE_BUDGET = dict(f_cap=64, pair_budget=500, sample_size3=5, seed=3)
REFERENCE_CASES = {**{name: (lambda name=name: monad_by_name(name))
                      for name in sorted(BUNDLED)},
                   "broken-writer": _BrokenBind, "magma-writer": _magma_writer,
                   "skip-x1-option": _SkipsX1Option, "stale-state": _StaleState,
                   "none-at-p1-option": _NoneAtP1Option}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_tabulated_laws_match_the_reference(case):
    got = check_monad_laws(REFERENCE_CASES[case](), **REFERENCE_BUDGET)
    want = reference_monad_laws(REFERENCE_CASES[case](), **REFERENCE_BUDGET)
    assert got.records == want.records


def test_size3_associativity_witness_matches_the_reference():
    """At 60 samples the magma writer fails associativity at size 3, so the
    witness prints the drawn ``f`` and ``g``: the curried draws must be the
    flat ones, in the same order."""
    budget = dict(REFERENCE_BUDGET, sample_size3=60)
    got = check_monad_laws(_magma_writer(), **budget)
    want = reference_monad_laws(_magma_writer(), **budget)
    assert got.records[-1].witness.startswith("associativity at size 3")
    assert got.records == want.records


# every bind call the law loops make at the reference budget, nested ones
# included: a tabulation that drops a real bind or adds one changes these
BIND_CALLS = {"identity": 4_623, "option": 26_623, "exception": 52_279,
              "writer": 77_713, "state": 176_739, "powerset": 37_213}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_law_loops_make_every_bind_call(name, monkeypatch):
    cls, calls = BUNDLED[name], []
    real = cls.bind

    def counted(self, f, a, m):
        calls.append(None)
        return real(self, f, a, m)

    monkeypatch.setattr(cls, "bind", counted)
    check_monad_laws(monad_by_name(name), **REFERENCE_BUDGET)
    assert len(calls) == BIND_CALLS[name]


def test_stale_state_fails_with_state_witnesses():
    rep = check_monad_laws(_StaleState(), **REFERENCE_BUDGET)
    witnesses = {r.name: r.witness for r in rep.failures}
    assert set(witnesses) == {"unit projection law (seeded sample of 64, <=2)",
                              "size-3 samples"}
    state = r"m=\(\('s[01]', 'x\d'\), \('s[01]', 'x\d'\)\)"
    for witness in witnesses.values():
        assert re.search(state, witness), witness


def test_none_at_p1_option_fails_parameter_naturality_only():
    rep = check_monad_laws(_NoneAtP1Option(), **REFERENCE_BUDGET)
    assert [(r.name, r.witness) for r in rep.failures] == [
        ("parameter naturality (seeded sample of 64, <=2)",
         "sizes (1, 1, 1): f={('a0', 'x0'): ('some', 'y0')}, "
         "h={'p0': 'a0', 'p1': 'a0'}, p='p1', m=('some', 'x0'), "
         "lhs=('none',), rhs=('some', 'y0')")]


SPACES = [((), ("t0", "t1")), (("d0",), ()), (("d0", "d1", "d2"), ("t0", "t1")),
          (tuple(itertools.product(("a0", "a1"), ("x0", "x1"))),
           StateMonad().apply(_abstract_set("y", 1)))]


@pytest.mark.parametrize("dom, cod", SPACES)
def test_function_space_indexes_the_listed_graphs(dom, cod):
    listed = list(_functions(dom, cod))
    space = _FunctionSpace(dom, cod)
    assert len(space) == len(listed)
    assert [space[i] for i in range(len(space))] == listed == list(space)
    with pytest.raises(IndexError):
        space[len(space)]


@pytest.mark.parametrize("na, nx", [(1, 1), (2, 1), (2, 2)])
def test_curried_space_indexes_the_flat_graphs(na, nx):
    """Graph ``i`` of ``a -> (x -> t)`` is graph ``i`` of ``a x x -> t``,
    curried, with its items in the same order."""
    a, x = _abstract_set("a", na), _abstract_set("x", nx)
    cod = StateMonad().apply(_abstract_set("y", 1))
    flat = _FunctionSpace(itertools.product(a, x), cod)
    curried = _FunctionSpace(a, _FunctionSpace(x, cod))
    items = [list(g.items()) for g in flat]
    assert len(curried) == len(flat)
    assert [list(_flat(g).items()) for g in curried] == items
    assert [list(_flat(curried[i]).items())
            for i in range(len(curried))] == items


@pytest.mark.parametrize("k", [1, 5, 64, 255])
def test_sampling_the_space_draws_the_listed_graphs(k):
    """Both branches of ``random.sample``: it lists a small population and
    indexes a large one; ``choice`` always indexes."""
    dom = tuple(itertools.product(("a0", "a1"), ("x0", "x1")))
    cod = StateMonad().apply(_abstract_set("y", 1))  # 4 ** 4 = 256 graphs
    listed, space = list(_functions(dom, cod)), _FunctionSpace(dom, cod)
    for seed in range(3):
        r1, r2 = random.Random(seed), random.Random(seed)
        assert r1.sample(listed, k) == r2.sample(space, k)
        assert ([r1.choice(listed) for _ in range(k)]
                == [r2.choice(space) for _ in range(k)])
        assert r1.random() == r2.random()


LOSSY_POWERSET = """
from substkit.semantics.monads import PowersetMonad, check_monad_laws

class Lossy(PowersetMonad):
    def bind(self, f, a, m):
        return f(a, min(m)) if len(m) > 1 else super().bind(f, a, m)

for r in check_monad_laws(Lossy(), f_cap=16, pair_budget=50,
                          sample_size3=3).failures:
    print(r.name, r.witness)
"""


def test_witnesses_do_not_depend_on_the_hash_seed():
    """Powerset values are frozensets; a witness prints them sorted."""
    outs = {subprocess.run([sys.executable, "-c", LOSSY_POWERSET],
                           capture_output=True, text=True, check=True,
                           env={**child_env(), "PYTHONHASHSEED": str(h)}).stdout
            for h in (1, 2, 3)}
    assert len(outs) == 1
    assert "m={'x0', 'x1'}" in outs.pop()
