"""Finite-set strong-monad models: type interpretation and denotation tables.

Types denote finite sets (functions as Kleisli exponentials), contexts denote
products, and a term of a first-class sort denotes a function from the context
product, a term of a second-class sort a Kleisli map into the monad.
A denotation is a query function from context points to values.  Clauses that
only reindex or wrap what their children answer are views that store nothing;
the others keep what they computed in a memo.  A denotation does not know the
term it came from: the interpreter that built it shares it with equal
subterms over the same context, so its memo serves them all.  Comparisons
materialize denotations over the full enumeration of their (small) context
space, which is looked up only then.

Each ``Model`` owns the sets its types and contexts denote, in two tables keyed
by (type, nat bound) and (context, nat bound), since one model serves several
bounds.  ``interpret_type`` and ``context_space`` fill them on first use, and
they go with their model.
"""

from __future__ import annotations

import itertools

from ..sorts import Context, Renaming, Sort, first
from ..cbv.types import Base, Fun, NatType, Record, TypeExpr, Variant
from .finset import FinSet, FunSpace, ProductSpace
from .monads import StrongMonad


class Model:
    """Finite sets for the base types and a strong monad; the owner of the
    interpretation tables."""

    def __init__(self, base_interp: dict, monad: StrongMonad):
        self.base_interp = base_interp
        self.monad = monad
        self.type_sets: dict = {}
        self.context_spaces: dict = {}


def model(monad: StrongMonad, sizes: dict | None = None) -> Model:
    sizes = sizes if sizes is not None else {"b": 2}
    interp = {name: FinSet([f"{name}{i}" for i in range(n)])
              for name, n in sizes.items()}
    return Model(interp, monad)


def interpret_type(t: TypeExpr, m: Model, nat_bound: int):
    key = (t, nat_bound)
    got = m.type_sets.get(key)
    if got is not None:
        return got
    if isinstance(t, Base):
        got = m.base_interp[t.name]
    elif isinstance(t, NatType):
        got = FinSet(range(nat_bound))
    elif isinstance(t, Fun):
        got = FunSpace(interpret_type(t.dom, m, nat_bound),
                       m.monad.apply(interpret_type(t.cod, m, nat_bound)))
    elif isinstance(t, Record):
        got = FinSet(itertools.product(
            *[tuple(interpret_type(v, m, nat_bound)) for _, v in t.row]))
    elif isinstance(t, Variant):
        got = FinSet((l, v) for l, vt in t.row
                     for v in interpret_type(vt, m, nat_bound))
    else:
        raise ValueError(f"uninterpretable type {t!r}")
    m.type_sets[key] = got
    return got


def interp_size(t: TypeExpr, m: Model, nat_bound: int) -> int:
    """Cardinality of the interpretation, computed without materializing."""
    if isinstance(t, Base):
        return m.base_interp[t.name].size
    if isinstance(t, NatType):
        return nat_bound
    if isinstance(t, Fun):
        return m.monad.apply_size(interp_size(t.cod, m, nat_bound)) \
            ** interp_size(t.dom, m, nat_bound)
    if isinstance(t, Record):
        out = 1
        for _, v in t.row:
            out *= interp_size(v, m, nat_bound)
        return out
    if isinstance(t, Variant):
        return sum(interp_size(v, m, nat_bound) for _, v in t.row)
    raise ValueError(f"uninterpretable type {t!r}")


def context_space(ctx: Context, m: Model, nat_bound: int) -> ProductSpace:
    key = (ctx, nat_bound)
    got = m.context_spaces.get(key)
    if got is None:
        got = m.context_spaces[key] = ProductSpace(
            [interpret_type(t, m, nat_bound) for t in ctx.entries])
    return got


_MISS = object()


def memoized(fn):
    """``fn`` with each answer stored by point.  The returned closure owns its
    memo and refers to nothing that refers back to it."""
    memo = {}
    get = memo.get

    def at(point):
        # most reads miss: a sentinel default keeps a miss from raising
        got = get(point, _MISS)
        if got is _MISS:
            got = memo[point] = fn(point)
        return got
    return at


class Denotation:
    """A context-indexed table, stored as a query function ``at``.

    ``at`` is either a clause's function itself (a view) or that function
    wrapped by ``memoized``.  A denotation is a view when its function reads
    each child once, at one point derived from its own, and runs no monadic
    iteration: projections, renamings, semantic substitution, fixed tables and
    the ``val``/``vrec``/``vinj``/``lit`` clauses.  Every other clause is
    memoized.  The context space is looked up from ``(m, nat_bound)`` when
    ``space`` is read, which only tabulating and comparing do."""

    __slots__ = ("sort", "ctx", "m", "nat_bound", "at")

    def __init__(self, sort: Sort, ctx: Context, m: Model, nat_bound: int, at):
        self.sort = sort
        self.ctx = ctx
        self.m = m
        self.nat_bound = nat_bound
        self.at = at

    @property
    def space(self) -> ProductSpace:
        return context_space(self.ctx, self.m, self.nat_bound)

    def table(self) -> tuple:
        return tuple(map(self.at, self.space))

    def difference_witness(self, other: "Denotation"):
        at, other_at = self.at, other.at
        for p in self.space:
            mine, theirs = at(p), other_at(p)
            if mine != theirs:
                return p, mine, theirs
        return None

    def __repr__(self):
        return f"Denotation({self.sort!r} over {self.ctx!r})"


def projection(ctx: Context, pos: int, m: Model, nat_bound: int) -> Denotation:
    """The unit of the semantic substitution structure: project a component."""
    return Denotation(first(ctx.sort_at(pos)), ctx, m, nat_bound,
                      lambda point: point[pos])


def precompose(d: Denotation, rho: Renaming, m: Model, nat_bound: int) -> Denotation:
    """The renaming action: reindex the input point along the renaming."""
    if d.ctx != rho.target:
        raise ValueError("renaming does not match the denotation's context")
    at, mapping, k = d.at, rho.mapping, len(rho.target)
    if mapping == tuple(range(k)):
        # a projection onto a prefix, the only renaming the fold acts along
        fn = lambda point: at(point[:k])
    else:
        fn = lambda point: at(tuple([point[x] for x in mapping]))
    return Denotation(d.sort, rho.source, m, nat_bound, fn)


def subst_denotation(d: Denotation, env: list, m: Model, nat_bound: int,
                     target: Context | None = None) -> Denotation:
    """Semantic substitution is pre-composition with the tupled environment."""
    if len(env) != len(d.ctx):
        raise ValueError("environment does not cover the context")
    if target is None:
        target = env[0].ctx if env else Context(())
    for e in env:
        if e.ctx != target:
            raise ValueError("environment entries over different contexts")
    at, ats = d.at, [e.at for e in env]
    return Denotation(d.sort, target, m, nat_bound,
                      lambda point: at(tuple([a(point) for a in ats])))


def identity_sem_env(ctx: Context, m: Model, nat_bound: int) -> list:
    return [projection(ctx, i, m, nat_bound) for i in range(len(ctx))]
