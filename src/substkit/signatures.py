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

from typing import Protocol, Sequence

from .sorts import Context, Renaming, Sort, SortingSystem


class NotFlattenable(Exception):
    """A signature expression outside the coproduct-of-operators normal form."""


class Argument:
    __slots__ = ("binder", "sort")

    def __init__(self, binder: Context, sort: Sort):
        _set_binder(self, binder)
        _set_sort(self, sort)

    def __setattr__(self, *a):
        raise AttributeError("Argument is immutable")

    def __reduce__(self):
        return Argument, (self.binder, self.sort)

    def __eq__(self, other):
        if type(other) is not Argument:
            return NotImplemented
        return (self.binder, self.sort) == (other.binder, other.sort)

    def __hash__(self):
        return hash((self.binder, self.sort))


class Operator:
    # the family and parameters of the instance: the label determines both,
    # so they take no part in comparing operators
    __slots__ = ("label", "result_sort", "args", "family", "params", "__weakref__")

    def __init__(self, label: str, result_sort: Sort, args: tuple[Argument, ...],
                 family: str, params: tuple):
        _set_label(self, label)
        _set_result_sort(self, result_sort)
        _set_args(self, args)
        _set_family(self, family)
        _set_params(self, params)

    def __setattr__(self, *a):
        raise AttributeError("Operator is immutable")

    def __reduce__(self):
        return Operator, (self.label, self.result_sort, self.args, self.family,
                          self.params)

    def __eq__(self, other):
        if type(other) is not Operator:
            return NotImplemented
        return ((self.label, self.result_sort, self.args)
                == (other.label, other.result_sort, other.args))

    def __hash__(self):
        return hash((self.label, self.result_sort, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self):
        return f"Operator({self.label!r})"


_set_binder = Argument.binder.__set__
_set_sort = Argument.sort.__set__
_set_label = Operator.label.__set__
_set_result_sort = Operator.result_sort.__set__
_set_args = Operator.args.__set__
_set_family = Operator.family.__set__
_set_params = Operator.params.__set__


# --- signature combinator expressions -------------------------------------
#
# Only the normal form used by binding signatures flattens: a coproduct of
# OnlyAt-wrapped products of (possibly shifted) projections of the recursion
# variable.  Restrict and non-normal nestings are representable but rejected
# by flatten with a pointer at the offending subterm, which shows it by its
# repr.

class _Combinator:
    """An immutable node of a signature expression, shown by its fields."""
    __slots__ = ()

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} "
                            f"arguments ({', '.join(fields)}), got {len(values)}")
        for field, value in zip(fields, values):
            getattr(type(self), field).__set__(self, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({shown})"


class Hole(_Combinator):
    __slots__ = ()


class At(_Combinator):
    __slots__ = ("sort", "inner")


class OnlyAt(_Combinator):
    __slots__ = ("sort", "inner")


class Shift(_Combinator):
    __slots__ = ("binder", "inner")


class Product(_Combinator):
    __slots__ = ("factors",)


class Coproduct(_Combinator):
    __slots__ = ("summands",)  # of (label, expr) pairs


class Restrict(_Combinator):
    __slots__ = ("along", "inner")


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
