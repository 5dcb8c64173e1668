"""The denotation fold: interpreting generic terms in a strong-monad model.

Each fragment contributes one algebra clause; the environment routing of the
generic fold supplies the action (pre-composition with a renaming) and the
variable interpretation (projections), so the substitution lemma is a theorem
for whatever the clauses do -- provided each clause is compatible.  The
compatibility squares check this for ``val``, ``let``, ``lam`` and ``app``;
the other clauses rest on the sampled substitution lemma.  Unbounded iteration uses Elgot iteration with cycle
detection; recursive definitions take a least fixed point in the flat
pointwise order, both only under the option monad.

``DenotationCarrier`` is the one carrier of denotations: the fold, the
compatibility squares and the semantic action axioms all act and point
through it.  An ``Interpreter`` shares the denotations it builds, as
hash-consing shares terms: one per (operator label, context, child
denotations), and, through its carrier, one projection per (context,
position) and one weakening per (denotation, context).  A subterm that
recurs, in one term or across the terms an interpreter denotes, is denoted
once, and its memo answers for every occurrence.

A check whose terms share subterm objects also has the interpreter fold
through memos, with ``fresh_fold_memos``: beside its tables the interpreter
then keeps one ``terms.FoldMemo`` per ambient context, and a subterm object
``denote`` has met under that context is not walked again; its denotation
is read back by the identity of the subterm.  Every term denoted under one
ambient context is folded over that context with its projections, so a
subterm's denotation depends on the subterm alone.  Without that call
``denote`` folds without a memo.  The tables and memos go with their
interpreter, which a check owns for as long as its terms may share; the
memos go earlier, at the next ``fresh_fold_memos``.
"""

from __future__ import annotations

from ..cbv.types import FragmentConfig, record
from ..sorts import Context, Renaming
from ..terms import FoldMemo, fold
from .model import (Denotation, Model, interpret_type, memoized, precompose,
                    projection)
from .monads import NONE, UnsupportedCapability


class NonConvergence(Exception):
    pass


def elgot_iterate(f, x0):
    """Iterate ``f : X -> T(Y + X)`` from ``x0`` under the option monad.

    Sum values are ('inl', y) or ('inr', x).  An absent step or a revisited
    state yields the absent value; reaching Y yields its image.  Terminates
    within |X|+1 steps by finiteness.
    """
    seen = set()
    x = x0
    while True:
        if x in seen:
            return NONE
        seen.add(x)
        m = f(x)
        if m == NONE:
            return NONE
        tag, v = m[1]
        if tag == "inl":
            return ("some", v)
        x = v


def elgot_unrolling_oracle(f, x0, unrollings: int):
    """Reference: finitely unroll the loop; absence if the budget runs out."""
    x = x0
    for _ in range(unrollings):
        m = f(x)
        if m == NONE:
            return NONE
        tag, v = m[1]
        if tag == "inl":
            return ("some", v)
        x = v
    return NONE


def kleene_fixpoint(phi, bottom, max_steps: int):
    """Least fixed point by iteration from the bottom of the flat lattice."""
    cur = bottom
    for _ in range(max_steps):
        nxt = phi(cur)
        if nxt == cur:
            return cur
        cur = nxt
    raise NonConvergence(f"no fixed point within {max_steps} steps "
                         f"(non-monotone update?)")


class DenotationCarrier:
    """Denotations as a pointed carrier: the action is pre-composition with
    the renaming, the point is the projection.  The carrier keeps one
    projection per (context, position) and one weakening per (denotation,
    source context): the projection of a context onto a prefix, the only
    renaming the fold and ``route_environment`` act along, is fixed by its
    source once the denotation fixes the target.  Any other renaming is
    pre-composed afresh."""

    def __init__(self, m: Model, nat_bound: int):
        self.m = m
        self.nat_bound = nat_bound
        self.projections: dict = {}
        self.weakenings: dict = {}

    def act(self, d: Denotation, rho: Renaming) -> Denotation:
        mapping = rho.mapping
        if mapping != tuple(range(len(mapping))):
            return precompose(d, rho)
        key = (d, rho.source)
        got = self.weakenings.get(key)
        if got is None:
            got = self.weakenings[key] = precompose(d, rho)
        return got

    def var(self, ctx: Context, position: int) -> Denotation:
        key = (ctx, position)
        got = self.projections.get(key)
        if got is None:
            got = self.projections[key] = projection(ctx, position, self.m,
                                                     self.nat_bound)
        return got


class Interpreter:
    """The algebra of the denotation fold, and the owner of the denotations
    ``denote`` builds with it.  ``alg`` is the plain clause dispatch, which
    the compatibility squares call directly; ``denote`` shares through
    ``_build`` and ``_shared``, and, once ``fresh_fold_memos`` has made
    them, folds through ``_folds``, one memo per ambient context."""

    def __init__(self, m: Model, cfg: FragmentConfig):
        self.m = m
        self.cfg = cfg
        self._shared = DenotationCarrier(m, cfg.nat_bound)
        self._built: dict = {}
        self._folds: dict | None = None

    # -- small helpers ------------------------------------------------------

    def _interp(self, t):
        return interpret_type(t, self.m, self.cfg.nat_bound)

    def _den(self, op, ctx, fn) -> Denotation:
        """A memoized denotation, for a ``fn`` that runs the monad or reads a
        child at several points."""
        return self._view(op, ctx, memoized(fn))

    def _view(self, op, ctx, fn) -> Denotation:
        """A denotation that stores nothing: ``fn`` reads each child once."""
        return Denotation(op.result_sort, ctx, self.m, self.cfg.nat_bound, fn)

    def _require(self, capable: bool, feature: str):
        """Raise unless the monad has the capability ``feature`` needs: one of
        its ``elgot_capable`` / ``fixpoint_capable`` flags."""
        if not capable:
            raise UnsupportedCapability(feature, self.m.monad)

    # -- the algebra --------------------------------------------------------

    def fresh_fold_memos(self) -> None:
        """Fold through new memos from here on, one per ambient context, for
        terms that share subterm objects; the memos made before, and the
        subterms they keep, go, since no term denoted so far recurs.  The
        shared denotations stay."""
        self._folds = {}

    def denote(self, t) -> Denotation:
        """Interpret a well-sorted term over its ambient context, reusing every
        denotation this interpreter built before."""
        ctx, shared, folds, memo = t.ctx, self._shared, self._folds, None
        if folds is not None:
            memo = folds.get(ctx)
            if memo is None:
                memo = folds[ctx] = FoldMemo(ctx)
        env = [shared.var(ctx, i) for i in range(len(ctx))]
        return fold(t, self._build, self._alg_hole, env, ctx, shared, memo)

    def _build(self, op, values, ctx):
        """``alg``, once per (operator label, context, child denotations)."""
        key = (op.label, ctx, *values)
        got = self._built.get(key)
        if got is None:
            got = self._built[key] = self.alg(op, values, ctx)
        return got

    def alg(self, op, values, ctx):
        return getattr(self, f"_alg_{op.family}")(op, op.params, values, ctx)

    def _alg_val(self, op, params, values, ctx):
        unit = self.m.monad.unit
        d = values[0]
        return self._view(op, ctx, lambda p: unit(d.at(p)))

    def _alg_let(self, op, params, values, ctx):
        monad = self.m.monad
        *ds, body = values

        def fn(point):
            m = monad.tmap(lambda v: (v,), ds[0].at(point))
            for d in ds[1:]:
                m = monad.bind(
                    lambda g, delta, d=d: monad.tmap(lambda y: delta + (y,),
                                                     d.at(g + delta)),
                    point, m)
            return monad.bind(lambda g, delta: body.at(g + delta), point, m)

        return self._den(op, ctx, fn)

    def _alg_lam(self, op, params, values, ctx):
        dom, _ = params
        d = values[0]
        dom_set = self._interp(dom)
        fn = lambda p: tuple(d.at(p + (v,)) for v in dom_set)
        return self._den(op, ctx, fn)

    def _alg_app(self, op, params, values, ctx):
        dom, _ = params
        monad = self.m.monad
        f, a = values
        dom_set = self._interp(dom)

        def fn(point):
            return monad.bind(
                lambda g, phi: monad.bind(
                    lambda phi2, v: phi2[dom_set.index(v)], phi, a.at(g)),
                point, f.at(point))

        return self._den(op, ctx, fn)

    def _alg_vrec(self, op, params, values, ctx):
        fn = lambda p: tuple(d.at(p) for d in values)
        return self._view(op, ctx, fn)

    def _alg_rec(self, op, params, values, ctx):
        monad = self.m.monad

        def fn(point):
            m = monad.unit(())
            for d in values:
                m = monad.bind(
                    lambda g, acc, d=d: monad.tmap(lambda y: acc + (y,),
                                                   d.at(g)),
                    point, m)
            return m

        return self._den(op, ctx, fn)

    def _alg_recmatch(self, op, params, values, ctx):
        monad = self.m.monad
        scrut, body = values
        fn = lambda p: monad.bind(lambda g, rec: body.at(g + rec), p,
                                  scrut.at(p))
        return self._den(op, ctx, fn)

    def _alg_vinj(self, op, params, values, ctx):
        _, tag = params
        d = values[0]
        return self._view(op, ctx, lambda p: (tag, d.at(p)))

    def _alg_inj(self, op, params, values, ctx):
        _, tag = params
        monad = self.m.monad
        d = values[0]
        return self._den(op, ctx,
                         lambda p: monad.tmap(lambda v: (tag, v), d.at(p)))

    def _alg_vmatch(self, op, params, values, ctx):
        row, _ = params
        monad = self.m.monad
        scrut, *bodies = values
        by_tag = {tag: body for (tag, _), body in zip(row, bodies)}

        def fn(point):
            return monad.bind(
                lambda g, tv: by_tag[tv[0]].at(g + (tv[1],)), point,
                scrut.at(point))

        return self._den(op, ctx, fn)

    def _alg_lit(self, op, params, values, ctx):
        (n,) = params
        return self._view(op, ctx, lambda p: n)

    def _alg_unroll(self, op, params, values, ctx):
        monad = self.m.monad
        d = values[0]
        conv = lambda n: ("0", ()) if n == 0 else ("1+", n - 1)
        return self._den(op, ctx, lambda p: monad.tmap(conv, d.at(p)))

    def _alg_roll(self, op, params, values, ctx):
        monad = self.m.monad
        bound = self.cfg.nat_bound
        d = values[0]

        def step(g, tv):
            tag, v = tv
            if tag == "0":
                return monad.unit(0)
            if v + 1 < bound:
                return monad.unit(v + 1)
            return monad.failure()

        return self._den(op, ctx, lambda p: monad.bind(step, None, d.at(p)))

    def _alg_natfold(self, op, params, values, ctx):
        monad = self.m.monad
        bound = self.cfg.nat_bound
        scrut, body = values

        def fn(point):
            acc = body.at(point + (("0", ()),))
            results = [acc]
            for _ in range(bound - 1):
                acc = monad.bind(
                    lambda g, prev: body.at(g + (("1+", prev),)), point, acc)
                results.append(acc)
            return monad.bind(lambda g, n: results[n], point, scrut.at(point))

        return self._den(op, ctx, fn)

    def _iteration(self, state):
        """The ``iterate(step, x0)`` that ``for`` runs at loop state ``state``."""
        return elgot_iterate

    def _alg_for(self, op, params, values, ctx):
        self._require(self.m.monad.elgot_capable, "unbounded iteration")
        monad = self.m.monad
        init, body = values
        iterate = self._iteration(params[0])
        conv = lambda tv: ("inl", tv[1]) if tv[0] == "Done" else ("inr", tv[1])

        def fn(point):
            step = lambda v: monad.tmap(conv, body.at(point + (v,)))
            return monad.bind(lambda g, v0: iterate(step, v0), point,
                              init.at(point))

        return self._den(op, ctx, fn)

    def _alg_letrec(self, op, params, values, ctx):
        defs, _ = params
        self._require(self.m.monad.fixpoint_capable, "recursive definitions")
        *bodies, main = values
        dom_sets = []
        perms = []
        for ps, ret in defs:
            row = record(tuple((str(i), p) for i, p in enumerate(ps))).row
            labels = [l for l, _ in row]
            perms.append([labels.index(str(j)) for j in range(len(ps))])
            dom_sets.append(self._interp(record(row)))

        def fn(point):
            bottoms = tuple(tuple(NONE for _ in range(ds.size))
                            for ds in dom_sets)

            def phi(phis):
                out = []
                for i, (body, ds, perm) in enumerate(zip(bodies, dom_sets, perms)):
                    rowvals = []
                    for args in ds:
                        pvals = tuple(args[k] for k in perm)
                        rowvals.append(body.at(point + phis + pvals))
                    out.append(tuple(rowvals))
                return tuple(out)

            height = sum(ds.size for ds in dom_sets) + 2
            fix = kleene_fixpoint(phi, bottoms, height * 4 + 4)
            return main.at(point + fix)

        return self._den(op, ctx, fn)

    def _alg_hole(self, hole, values, ctx):
        raise ValueError("terms with holes have no denotation")


def denote(t, m: Model, cfg: FragmentConfig,
           interp: Interpreter | None = None) -> Denotation:
    """Interpret a well-sorted term over its ambient context: with ``interp``,
    an interpreter over the same model and configuration, sharing what it
    built; otherwise with a fresh one."""
    if interp is None:
        interp = Interpreter(m, cfg)
    return interp.denote(t)
