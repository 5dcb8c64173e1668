"""Strong monads on finite sets, in parameterized-bind form, plus law checks.

A monad provides ``apply`` on sets, ``unit`` on elements, and ``bind(f, a, m)``
extending ``f : A x X -> T Y`` (a Python callable on elements) to ``A x T X``.
The four laws -- the unit-projection law, naturality in the parameter, the
Kleisli unit law, and parameterized associativity -- are checked pointwise by
enumerating whole function spaces at small sizes and sampling at size 3.
"""

from __future__ import annotations

import itertools
import random

from ..report import Report
from .finset import FinSet

NONE = ("none",)


class UnsupportedCapability(Exception):
    def __init__(self, feature, monad):
        super().__init__(f"{feature} needs a capability the {monad.name} monad "
                         f"does not provide")
        self.feature = feature


class StrongMonad:
    name = "abstract"
    elgot_capable = False
    fixpoint_capable = False

    def apply(self, x: FinSet) -> FinSet:
        raise NotImplementedError

    def apply_size(self, n: int) -> int:
        raise NotImplementedError

    def unit(self, v):
        raise NotImplementedError

    def bind(self, f, a, m):
        raise NotImplementedError

    def failure(self):
        raise UnsupportedCapability("partiality", self)

    def tmap(self, g, m):
        return self.bind(lambda _, v: self.unit(g(v)), None, m)


class IdentityMonad(StrongMonad):
    name = "identity"

    def apply(self, x):
        return FinSet(x)

    def apply_size(self, n):
        return n

    def unit(self, v):
        return v

    def bind(self, f, a, m):
        return f(a, m)


class OptionMonad(StrongMonad):
    name = "option"
    elgot_capable = True
    fixpoint_capable = True

    def apply(self, x):
        return FinSet([NONE] + [("some", v) for v in x])

    def apply_size(self, n):
        return n + 1

    def unit(self, v):
        return ("some", v)

    def bind(self, f, a, m):
        return NONE if m == NONE else f(a, m[1])

    def failure(self):
        return NONE


class ExceptionMonad(StrongMonad):
    def __init__(self, exceptions=("e0", "e1")):
        self.exceptions = tuple(exceptions)
        self.name = f"exception{len(self.exceptions)}"

    def apply(self, x):
        return FinSet([("exn", e) for e in self.exceptions]
                      + [("ok", v) for v in x])

    def apply_size(self, n):
        return n + len(self.exceptions)

    def unit(self, v):
        return ("ok", v)

    def bind(self, f, a, m):
        return m if m[0] == "exn" else f(a, m[1])


class Monoid:
    def __init__(self, elements, unit, mult):
        self.elements = tuple(elements)
        self.unit = unit
        self.mult = mult


def z3_monoid() -> Monoid:
    return Monoid((0, 1, 2), 0, lambda a, b: (a + b) % 3)


class WriterMonad(StrongMonad):
    def __init__(self, monoid: Monoid | None = None):
        self.monoid = monoid if monoid is not None else z3_monoid()
        self.name = f"writer{len(self.monoid.elements)}"

    def apply(self, x):
        return FinSet([(w, v) for w in self.monoid.elements for v in x])

    def apply_size(self, n):
        return n * len(self.monoid.elements)

    def unit(self, v):
        return (self.monoid.unit, v)

    def bind(self, f, a, m):
        w1, v = m
        w2, out = f(a, v)
        return (self.monoid.mult(w1, w2), out)


class StateMonad(StrongMonad):
    """T x = (S x X)^S; values are output tuples in state enumeration order."""

    def __init__(self, states=("s0", "s1")):
        self.states = FinSet(states)

    @property
    def name(self):
        return f"state{self.states.size}"

    def apply(self, x):
        pairs = [(s, v) for s in self.states for v in x]
        return FinSet(itertools.product(pairs, repeat=self.states.size))

    def apply_size(self, n):
        k = self.states.size
        return (k * n) ** k

    def unit(self, v):
        return tuple((s, v) for s in self.states)

    def bind(self, f, a, m):
        out = []
        for s in self.states:
            s1, v = m[self.states.index(s)]
            r = f(a, v)
            out.append(r[self.states.index(s1)])
        return tuple(out)


class PowersetMonad(StrongMonad):
    name = "powerset"

    def apply(self, x):
        elems = tuple(x)
        subsets = []
        for k in range(len(elems) + 1):
            subsets.extend(frozenset(c) for c in itertools.combinations(elems, k))
        return FinSet(subsets)

    def apply_size(self, n):
        return 2 ** n

    def unit(self, v):
        return frozenset([v])

    def bind(self, f, a, m):
        out = set()
        for v in m:
            out |= f(a, v)
        return frozenset(out)


BUNDLED = {
    "identity": IdentityMonad,
    "option": OptionMonad,
    "exception": ExceptionMonad,
    "writer": WriterMonad,
    "state": StateMonad,
    "powerset": PowersetMonad,
}


def monad_by_name(name: str, **kwargs) -> StrongMonad:
    return BUNDLED[name](**kwargs)


# --- the four laws -----------------------------------------------------------

def _abstract_set(name, n):
    return FinSet([f"{name}{i}" for i in range(n)])


def _functions(dom_elems, t_elems):
    """All graphs dom -> T-values, as dicts."""
    dom_elems = list(dom_elems)
    for outs in itertools.product(list(t_elems), repeat=len(dom_elems)):
        yield dict(zip(dom_elems, outs))


def check_monad_laws(monad: StrongMonad, report: Report | None = None,
                     max_size: int = 2, pair_budget: int = 10_000,
                     f_cap: int = 2048, sample_size3: int = 60,
                     seed: int = 0) -> Report:
    rep = report if report is not None else Report()
    suite = f"monad-laws[{monad.name}]"
    rng = random.Random(seed)

    sizes = [(na, nx, ny) for na in (1, 2) for nx in (1, 2) for ny in (1, 2)
             if max(na, nx, ny) <= max_size]
    unit_ok = nat_ok = kleisli_ok = assoc_ok = True
    unit_w = nat_w = kleisli_w = assoc_w = None
    assoc_mode = "exhaustive"
    f_mode = "exhaustive"

    for na, nx, ny in sizes:
        a = _abstract_set("a", na)
        x = _abstract_set("x", nx)
        y = _abstract_set("y", ny)
        tx = monad.apply(x)
        ty = monad.apply(y)

        # (1) unit projection: bind (unit . pi2) = pi2
        for av in a:
            for m in tx:
                got = monad.bind(lambda _, v: monad.unit(v), av, m)
                if got != m:
                    unit_ok, unit_w = False, f"sizes {na, nx}: bind(unit) {m!r} -> {got!r}"

        fs = list(_functions(itertools.product(a, x), ty))
        if len(fs) > f_cap:
            f_mode = f"seeded sample of {f_cap}"
            fs = rng.sample(fs, f_cap)
        # (2) naturality in the parameter, over all h : a' -> a
        aprime = _abstract_set("p", 2)
        for f in fs:
            for h_outs in itertools.product(list(a), repeat=aprime.size):
                h = dict(zip(aprime, h_outs))
                for ap in aprime:
                    for m in tx:
                        lhs = monad.bind(lambda q, v: f[(h[q], v)], ap, m)
                        rhs = monad.bind(lambda q, v: f[(q, v)], h[ap], m)
                        if lhs != rhs:
                            nat_ok, nat_w = False, f"sizes {na, nx, ny}"
            # (3) Kleisli unit: bind f . (id x unit) = f
            for av in a:
                for xv in x:
                    got = monad.bind(lambda q, v: f[(q, v)], av, monad.unit(xv))
                    if got != f[(av, xv)]:
                        kleisli_ok, kleisli_w = False, f"sizes {na, nx, ny}"

        # (4) parameterized associativity
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
                            assoc_ok, assoc_w = False, f"sizes {na, nx, ny}"

    rep.record(suite, f"unit projection law ({f_mode}, <=2)", unit_ok, unit_w)
    rep.record(suite, f"parameter naturality ({f_mode}, <=2)", nat_ok, nat_w)
    rep.record(suite, f"Kleisli unit law ({f_mode}, <=2)", kleisli_ok, kleisli_w)
    rep.record(suite, f"associativity ({assoc_mode}, <=2)", assoc_ok, assoc_w)

    # spot samples at size 3
    a = _abstract_set("a", 3)
    x = _abstract_set("x", 3)
    y = _abstract_set("y", 3)
    tx, ty = monad.apply(x), monad.apply(y)
    tz = monad.apply(_abstract_set("z", 3))
    ok, w = True, None
    for _ in range(sample_size3):
        f = {k: rng.choice(ty.elements)
             for k in itertools.product(a, x)}
        g = {k: rng.choice(tz.elements)
             for k in itertools.product(a, y)}
        av, bv = rng.choice(a.elements), rng.choice(a.elements)
        m = rng.choice(tx.elements)
        if monad.bind(lambda q, v: monad.unit(v), av, m) != m:
            ok, w = False, "unit at size 3"
        for xv in x:
            if monad.bind(lambda q, v: f[(q, v)], av, monad.unit(xv)) != f[(av, xv)]:
                ok, w = False, "Kleisli unit at size 3"
        lhs = monad.bind(lambda q, v: g[(q, v)], bv,
                         monad.bind(lambda q, v: f[(q, v)], av, m))
        rhs = monad.bind(lambda q, v: monad.bind(lambda q2, u: g[(q2, u)],
                                                 q[0], f[(q[1], v)]),
                         (bv, av), m)
        if lhs != rhs:
            ok, w = False, "associativity at size 3"
    rep.record(suite, "size-3 samples", ok, w)
    return rep
