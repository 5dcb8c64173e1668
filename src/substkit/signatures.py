"""Binding signatures and the environment-routing strength.

A signature flattens (:func:`flatten`) to its operators, keyed by label: each
operator has a result sort and a list of binder-annotated argument sorts, all
in the signature's sorting system.  The one operator-table class is the CBV
fragment's (``cbv.ops``), which mints the operators of its infinite families
on demand.  Operators carry the one piece of structure every traversal needs,
the pointed strength: how to push an environment under an operator's
binders.  Per-combinator strengths are not separate artifacts; after
flattening they all collapse into a single routing rule: act on the
environment along the first projection into the extended context, then
append the fresh variables' point images.

:func:`route_environment` is that rule applied eagerly, to every entry under
every binder; the compatibility squares of ``semantics.checks`` route with it
(for the ``val``, ``let``, ``lam`` and ``app`` clauses).
The fold (``terms.fold``) routes nothing: a bound variable is the point at its
own position, made at the variable, and a free variable's entry is weakened
once, along the projection onto the caller's context.  The two agree because
``act`` is functorial and ``var`` is natural along projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .sorts import Context, Renaming, Sort, SortingSystem


class NotFlattenable(Exception):
    """A signature expression outside the coproduct-of-operators normal form."""


@dataclass(frozen=True)
class Argument:
    binder: Context
    sort: Sort


@dataclass(frozen=True)
class Operator:
    label: str
    result_sort: Sort
    args: tuple[Argument, ...]
    # the family and parameters of the instance: the label determines both
    family: str = field(compare=False)
    params: tuple = field(compare=False)

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self):
        return f"Operator({self.label!r})"


# --- signature combinator expressions -------------------------------------
#
# Only the normal form used by binding signatures flattens: a coproduct of
# OnlyAt-wrapped products of (possibly shifted) projections of the recursion
# variable.  Restrict and non-normal nestings are representable but rejected
# by flatten with a pointer at the offending subterm.

@dataclass(frozen=True)
class Hole:
    pass


@dataclass(frozen=True)
class At:
    sort: Sort
    inner: object


@dataclass(frozen=True)
class OnlyAt:
    sort: Sort
    inner: object


@dataclass(frozen=True)
class Shift:
    binder: Context
    inner: object


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Coproduct:
    summands: tuple  # of (label, expr) pairs


@dataclass(frozen=True)
class Restrict:
    along: object
    inner: object


def _flatten_atom(expr) -> Argument:
    if isinstance(expr, At):
        body = expr.inner
        if isinstance(body, Hole):
            return Argument(Context(()), expr.sort)
        if isinstance(body, Shift) and isinstance(body.inner, Hole):
            return Argument(body.binder, expr.sort)
    raise NotFlattenable(f"argument not of the form (shift? hole) at a sort: {expr!r}")


def _flatten_summand(label, expr, ops: dict, system: SortingSystem) -> None:
    if not isinstance(expr, OnlyAt):
        raise NotFlattenable(f"summand {label!r} is not OnlyAt-wrapped: {expr!r}")
    body = expr.inner
    factors = body.factors if isinstance(body, Product) else (body,)
    args = tuple(_flatten_atom(f) for f in factors)
    if label in ops:
        raise ValueError(f"duplicate operator label {label!r}")
    if expr.sort not in system:
        raise ValueError(f"result sort {expr.sort!r} not in system")
    for arg in args:
        if arg.sort not in system:
            raise ValueError(f"argument sort {arg.sort!r} not in system")
        arg.binder.validate(system)
    ops[label] = Operator(label, expr.sort, args, family=label, params=())


def flatten(expr, system: SortingSystem) -> dict[str, Operator]:
    """Flatten a normal-form signature expression into its operators, keyed
    by label in summand order; every sort they name must be in ``system``."""
    ops: dict[str, Operator] = {}
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Coproduct):
            stack.extend(reversed(e.summands))
        elif isinstance(e, tuple) and len(e) == 2:
            _flatten_summand(e[0], e[1], ops, system)
        elif isinstance(e, Restrict):
            raise NotFlattenable(f"restriction is not flattenable: {e!r}")
        else:
            raise NotFlattenable(f"not a labelled summand: {e!r}")
    return ops


# --- the generic pointed strength ------------------------------------------

class PointedHooks(Protocol):
    """A pointed carrier: what environments need to be routed under binders.

    ``act`` is the presheaf action, taking a value over ``rho.target`` to one
    over ``rho.source``; ``var`` is the point, the carrier's image of the
    variable at ``position`` in ``ctx``.  ``act`` must be functorial and
    ``var`` natural along projections, ``act(var(c, j), pi) == var(c', j)``
    for the projection ``pi`` of ``c' = c ++ d`` onto ``c``; ``terms.fold``
    relies on both.
    """

    def act(self, value, rho: Renaming): ...

    def var(self, ctx: Context, position: int): ...


def route_environment(binder: Context, ctx: Context, env: Sequence,
                      hooks: PointedHooks) -> tuple[Context, list]:
    """Push an environment over ``ctx`` under a binder, eagerly.

    Every existing entry is moved into ``ctx ++ binder`` along the first
    projection and the fresh positions are bound to their points.  An empty
    binder leaves the environment untouched.
    """
    if not len(binder):
        return ctx, list(env)
    extended = ctx.extend(binder)
    pi1 = Renaming(extended, ctx, range(len(ctx)))
    routed = [hooks.act(v, pi1) for v in env]
    routed += [hooks.var(extended, j) for j in range(len(ctx), len(extended))]
    return extended, routed
