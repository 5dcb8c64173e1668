"""Strong monads on finite sets, in parameterized-bind form, plus law checks.

A monad provides ``apply`` on sets, ``unit`` on elements, and ``bind(f, a, m)``
extending ``f : A x X -> T Y`` (a Python callable on elements) to ``A x T X``.
The four laws -- the unit-projection law, naturality in the parameter, the
Kleisli unit law, and parameterized associativity -- are checked pointwise by
enumerating whole function spaces at small sizes and sampling at size 3.

The laws are statements about the Kleisli extension ``bind(f, a, .)``, so the
checker tabulates it and reads it by position.  For each ``f`` it computes one
row of ``bind(f, a, m)`` per parameter ``a``, over the elements ``m`` of ``T x``
in order; naturality, the Kleisli unit law and the inner bind of
associativity read ``row[i]`` (a unit outside ``T x`` gets a real bind).
Associativity hands ``bind(g, b, .)`` only the rows' values and ``f``'s values,
so these are numbered once per ``f`` and ``bind(g, b, n)`` is computed once per
(f, g) pair for each ``b`` and each of them, where both sides read it.  The
outer bind of each right-hand side (and the left-hand side of naturality)
remains a real call per point.  Function spaces are indexed, not listed, so a
sampled space builds only the graphs it draws (over rows listed once).

Each ``f : a x x -> T y`` (and each ``g``) is drawn curried, as one dict per
parameter, ``f[q][v]``: from the space of functions ``a -> (x -> T y)``, whose
index ``i`` is the graph at index ``i`` of the flat space, and at size 3 in the
same draw order.  Every callable handed to ``bind`` reads through those rows,
so no call builds or hashes a ``(q, v)`` key; ``bind`` still gets a real
callable ``f(q, v)`` that reads the parameter it is handed.  Witnesses print
the flat graph.

A failing law records its first counterexample: the sizes, the functions and
the point, each printed with sets in sorted order.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence

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
        self._pos = {s: i for i, s in enumerate(self.states.elements)}

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
        # m holds one (next state, value) pair per state, in state order; a
        # loop, because a generator costs more than the two states it reads
        pos = self._pos
        if len(m) != len(pos):
            raise ValueError(f"state computation of length {len(m)} over "
                             f"{len(pos)} states")
        out = []
        for s1, v in m:
            out.append(f(a, v)[pos[s1]])
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


class _FunctionSpace(Sequence):
    """Every graph ``dom -> cod`` as a dict, in ``itertools.product`` order.

    Index ``i`` is decoded to its graph when it is read, so ``random.sample``
    and ``random.choice`` draw the graphs they would draw from the full list
    while building only those.  With ``cod`` the space ``y -> t``, graph ``i``
    is graph ``i`` of the space ``dom x y -> t``, curried; ``cod`` is listed
    once, and the graphs share its rows.
    """

    def __init__(self, dom, cod):
        self.dom, self.cod = tuple(dom), tuple(cod)
        self._len = len(self.cod) ** len(self.dom)

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        if not 0 <= i < self._len:
            raise IndexError(i)
        outs = []
        for _ in self.dom:
            i, r = divmod(i, len(self.cod))
            outs.append(self.cod[r])
        return dict(zip(self.dom, reversed(outs)))

    def __iter__(self):
        for outs in itertools.product(self.cod, repeat=len(self.dom)):
            yield dict(zip(self.dom, outs))


def _flat(rows):
    """The graph ``{(q, v): t}`` of a curried graph ``rows[q][v] = t``."""
    return {(q, v): t for q, row in rows.items() for v, t in row.items()}


def _show(v) -> str:
    """``repr`` with set elements sorted, so it does not depend on hash seeds."""
    if isinstance(v, (set, frozenset)):
        return "{" + ", ".join(sorted(map(_show, v))) + "}"
    if isinstance(v, tuple):
        inner = ", ".join(map(_show, v))
        return f"({inner},)" if len(v) == 1 else f"({inner})"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_show(k)}: {_show(x)}" for k, x in v.items()) + "}"
    return repr(v)


def _witness(where: str, **case) -> str:
    return where + ": " + ", ".join(f"{k}={_show(v)}" for k, v in case.items())


def check_monad_laws(monad: StrongMonad, report: Report | None = None,
                     pair_budget: int = 10_000,
                     f_cap: int = 2048, sample_size3: int = 60,
                     seed: int = 0) -> Report:
    """Record the four laws of ``monad`` at sizes <= 2, and size-3 samples.

    Every ``f : a x x -> T y`` is checked (a seeded sample of ``f_cap`` when
    there are more), and each ``f`` with every ``g : b x y -> T z`` while the
    pairs stay within ``pair_budget`` (else ``max(1, pair_budget // len(fs))``
    seeded draws of ``g`` per ``f``); ``sample_size3`` samples follow.  Each
    graph is drawn as one row per parameter, ``f[q][v]``; every bind the laws
    check stays a real call of ``monad.bind`` with a callable that reads the
    parameter it is handed.  Witnesses print the flat graphs.
    """
    rep = report if report is not None else Report()
    suite = f"monad-laws[{monad.name}]"
    rng = random.Random(seed)
    bind, unit = monad.bind, monad.unit

    first = {}  # law -> witness of its first failure
    assoc_mode = "exhaustive"
    f_mode = "exhaustive"

    for na, nx, ny in itertools.product((1, 2), repeat=3):
        where = f"sizes {na, nx, ny}"
        a = _abstract_set("a", na)
        x = _abstract_set("x", nx)
        y = _abstract_set("y", ny)
        tx = monad.apply(x)
        txl = tx.elements

        # (1) unit projection: bind (unit . pi2) = pi2
        for av in a:
            for m in tx:
                got = bind(lambda _, v: unit(v), av, m)
                if got != m and "unit" not in first:
                    first["unit"] = _witness(f"sizes {na, nx}", a=av, m=m,
                                             **{"bind(unit)": got})

        f_space = _FunctionSpace(a, _FunctionSpace(x, monad.apply(y)))
        if len(f_space) > f_cap:
            f_mode = f"seeded sample of {f_cap}"
            fs = rng.sample(f_space, f_cap)
        else:
            fs = list(f_space)
        aprime = _abstract_set("p", 2)
        hs = [dict(zip(aprime, outs))
              for outs in itertools.product(list(a), repeat=aprime.size)]
        b = _abstract_set("b", 2)
        g_space = _FunctionSpace(b, _FunctionSpace(
            y, monad.apply(_abstract_set("z", 2))))
        exhaustive_g = len(fs) * len(g_space) <= pair_budget
        if not exhaustive_g:
            assoc_mode = "exhaustive-f/sampled-g"
        draws = max(1, pair_budget // max(len(fs), 1))

        for f in fs:
            # the Kleisli extension of f: rows[q][i] is bind(f, q, txl[i]);
            # every closure below is used only in this iteration
            f_at = lambda q, v: f[q][v]
            rows = {av: [bind(f_at, av, m) for m in txl] for av in a}
            # (2) naturality in the parameter, over all h : a' -> a
            for h in hs:
                fh_row = {p: f[h[p]] for p in aprime}
                f_h = lambda q, v: fh_row[q][v]
                for ap in aprime:
                    for m, rhs in zip(txl, rows[h[ap]]):
                        lhs = bind(f_h, ap, m)
                        if lhs != rhs and "nat" not in first:
                            first["nat"] = _witness(
                                where, f=_flat(f), h=h, p=ap, m=m, lhs=lhs,
                                rhs=rhs)
            # (3) Kleisli unit: bind f . (id x unit) = f
            for av in a:
                for xv in x:
                    u = unit(xv)
                    got = (rows[av][tx.index(u)] if u in tx
                           else bind(f_at, av, u))
                    if got != f[av][xv] and "kleisli" not in first:
                        first["kleisli"] = _witness(
                            where, f=_flat(f), a=av, m=u, got=got,
                            want=f[av][xv])

            # (4) parameterized associativity, per g drawn for this f.  Both
            # sides hand bind(g, b, .) only the rows' values and f's values:
            # ns numbers them in first-seen order, f's in its item order, and
            # cols and f_col read rows and f as those numbers
            ns = {}
            cols = {av: [ns.setdefault(n, len(ns)) for n in rows[av]]
                    for av in a}
            f_col = {q: {v: ns.setdefault(n, len(ns)) for v, n in row.items()}
                     for q, row in f.items()}
            gs = g_space if exhaustive_g else [rng.choice(g_space)
                                               for _ in range(draws)]
            for g in gs:
                g_at = lambda q, w: g[q][w]
                ext_g = {bv: [bind(g_at, bv, n) for n in ns] for bv in b}
                f_then_g = lambda q, v: ext_g[q[0]][f_col[q[1]][v]]
                for bv in b:
                    eg = ext_g[bv]
                    for av in a:
                        ba = (bv, av)
                        for m, k in zip(txl, cols[av]):
                            lhs = eg[k]
                            rhs = bind(f_then_g, ba, m)
                            if lhs != rhs and "assoc" not in first:
                                first["assoc"] = _witness(
                                    where, f=_flat(f), g=_flat(g), b=bv,
                                    a=av, m=m, lhs=lhs, rhs=rhs)

    for law, name in (("unit", f"unit projection law ({f_mode}, <=2)"),
                      ("nat", f"parameter naturality ({f_mode}, <=2)"),
                      ("kleisli", f"Kleisli unit law ({f_mode}, <=2)"),
                      ("assoc", f"associativity ({assoc_mode}, <=2)")):
        rep.record(suite, name, law not in first, first.get(law))

    # spot samples at size 3
    a = _abstract_set("a", 3)
    x = _abstract_set("x", 3)
    y = _abstract_set("y", 3)
    tx, ty = monad.apply(x), monad.apply(y)
    tz = monad.apply(_abstract_set("z", 3))
    w = None  # the first failing sample
    for _ in range(sample_size3):
        f = {q: {v: rng.choice(ty.elements) for v in x} for q in a}
        g = {q: {v: rng.choice(tz.elements) for v in y} for q in a}
        av, bv = rng.choice(a.elements), rng.choice(a.elements)
        m = rng.choice(tx.elements)
        f_at = lambda q, v: f[q][v]
        g_at = lambda q, w: g[q][w]
        got = bind(lambda q, v: unit(v), av, m)
        if got != m and w is None:
            w = _witness("unit at size 3", a=av, m=m, **{"bind(unit)": got})
        for xv in x:
            got = bind(f_at, av, unit(xv))
            if got != f[av][xv] and w is None:
                w = _witness("Kleisli unit at size 3", f=_flat(f), a=av,
                             m=unit(xv), got=got, want=f[av][xv])
        lhs = bind(g_at, bv, bind(f_at, av, m))
        rhs = bind(lambda q, v: bind(g_at, q[0], f[q[1]][v]), (bv, av), m)
        if lhs != rhs and w is None:
            w = _witness("associativity at size 3", f=_flat(f), g=_flat(g),
                         b=bv, a=av, m=m, lhs=lhs, rhs=rhs)
    rep.record(suite, "size-3 samples", w is None, w)
    return rep
