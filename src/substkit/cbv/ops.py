"""Operators of the call-by-value fragments, minted on demand per type instance.

:class:`CbvOperatorTable` is the one operator table: its sorts are the types
the fragment forms (value types first-class, computation types second-class).
Most fragments contribute an infinite operator family (one instance per type
or per context of types); the table mints instances lazily, checking on every
mint that the requested types are formable in the fragment and within the
configured type depth.  A family call mints once per table: a repeated call
with equal parameters returns the operator the first one minted, and that
memo, keyed by family and parameters (a row sorted by label, so its order
does not matter), is the table's one store of operators.
Labels are canonical strings, so a label uniquely determines its operator,
and with it the family and parameters the operator carries (``op.family``,
and in ``op.params`` the family method's arguments, rows label-sorted): a
reader of terms needs the operator alone, not the table that minted it, and
the method (``forloop`` for ``for``) given ``op.params`` mints ``op`` again.

The family checks are what guarantee that every sort a minted operator names
belongs to the fragment.  Each sort is a type the family passed through
``_check_type``, a component of such a type (a valid type's components are
valid), or, under the ``naturals`` gate, ``Nat`` or an option shape over a
valid type.

What a minted operator is made of: its sorts are pairs of a class and a
type (``sorts.first`` and ``sorts.second``), and the table reads each type
through its own map, seeded with the fragment's depth-2 universe that the
variables of generated contexts draw from, so that equal types are one
object and the C compare of two equal sorts meets identical types, not the
types' Python ``__eq__``.  Its binder contexts are the table's: one empty
binder, and one extension of it per list of bound types, which ``let``
prefixes and every other binder share.  Map and binders are the table's
alone and go with it and its operators; a module constant would keep every
extension for the life of the process.  So ``Op`` finds the contexts it
checks identical whenever they are equal.
"""

from __future__ import annotations

import functools
import itertools
import operator

from ..signatures import Argument, Operator
from ..sorts import Context, first, second
from .types import (DepthExceeded, Fun, FragmentConfig, NAT, Record, TypeExpr,
                    Variant, done_cont_shape, fun, is_context_row,
                    is_maybe_shape, maybe_shape, record, type_depth,
                    type_to_label, types_upto, valid_type, variant)


class DisabledConstruct(Exception):
    def __init__(self, family, cfg):
        super().__init__(f"construct {family!r} is not enabled in {cfg.name()}")
        self.family = family


def vmatch_allowed(cfg: FragmentConfig, t: Variant) -> bool:
    return cfg.has("variants") or (cfg.has("naturals") and is_maybe_shape(t))


def _mint_once(family, per_row: bool = False):
    """Run a family method once per table and parameter tuple; later calls
    with equal parameters return the operator it minted.  A call that raises
    is not stored, so it raises again.  With ``per_row`` the first parameter
    is a row, and the memo is keyed on it sorted by label, as the family's
    record or variant type lists it: one row given in two orders mints one
    operator."""

    @functools.wraps(family)
    def call(self, *params):
        key = (family.__name__,
               (_label_sorted(params[0]), *params[1:]) if per_row else params)
        got = self._minted.get(key)
        if got is None:
            got = self._minted[key] = family(self, *params)
        return got

    return call


def _mint_once_per_row(family):
    return _mint_once(family, per_row=True)


def _label_sorted(row: tuple) -> tuple:
    return tuple(sorted(row, key=operator.itemgetter(0)))


class CbvOperatorTable:
    """Lazy operator table for one fragment configuration."""

    def __init__(self, cfg: FragmentConfig):
        self.cfg = cfg
        self._minted: dict[tuple, Operator] = {}
        # the empty binder of every argument without one; its extensions
        # are the other binders, one object per prefix, freed with the table
        self._empty = Context(())
        # one object per type the table's sorts are made of (see _canon)
        self._types: dict | None = None

    # -- helpers ---------------------------------------------------------

    def _binder(self, entries: tuple) -> Context:
        """The binder context of ``entries``: the table's one context of
        them, an extension of its empty binder."""
        return self._empty.extend(Context(entries)) if entries else self._empty

    def _canon(self, t: TypeExpr) -> TypeExpr:
        """The table's one object of the type ``t``: the depth-2 universe's,
        which variables' contexts draw from, else the first the table met;
        so comparing its sorts with a variable's finds the type identical."""
        types = self._types
        if types is None:
            types = self._types = {u: u for u in types_upto(self.cfg, 2)}
        return types.setdefault(t, t)

    def _row(self, row: tuple) -> tuple:
        return tuple((label, self._canon(v)) for label, v in row)

    def _check_type(self, t: TypeExpr) -> TypeExpr:
        """``t`` as the table's object, if the fragment forms it within its
        type depth."""
        if not valid_type(t, self.cfg):
            raise DisabledConstruct(f"type {type_to_label(t)}", self.cfg)
        if type_depth(t) > self.cfg.type_depth:
            raise DepthExceeded(
                f"type {type_to_label(t)} exceeds depth {self.cfg.type_depth}")
        return self._canon(t)

    # -- operator families -------------------------------------------------

    @_mint_once
    def val(self, t: TypeExpr) -> Operator:
        t = self._check_type(t)
        return Operator(f"val<{type_to_label(t)}>", second(t),
                        (Argument(self._empty, first(t)),), "val", (t,))

    @_mint_once
    def let(self, bound: tuple, result: TypeExpr) -> Operator:
        if not self.cfg.has("sequential"):
            raise DisabledConstruct("let", self.cfg)
        if not bound:
            raise ValueError("sequencing needs at least one binding")
        bound = tuple(self._check_type(t) for t in bound)
        result = self._check_type(result)
        label = (f"let<{','.join(type_to_label(t) for t in bound)};"
                 f"{type_to_label(result)}>")
        args = [Argument(self._binder(bound[:i]), second(t))
                for i, t in enumerate(bound)]
        args.append(Argument(self._binder(bound), second(result)))
        return Operator(label, second(result), tuple(args), "let",
                        (bound, result))

    @_mint_once
    def lam(self, dom: TypeExpr, cod: TypeExpr) -> Operator:
        if not self.cfg.has("functions"):
            raise DisabledConstruct("lam", self.cfg)
        dom, cod = self._canon(dom), self._canon(cod)
        f = self._check_type(fun(dom, cod))
        label = f"lam<{type_to_label(dom)};{type_to_label(cod)}>"
        arg = Argument(self._binder((dom,)), second(cod))
        return Operator(label, first(f), (arg,), "lam", (dom, cod))

    @_mint_once
    def app(self, dom: TypeExpr, cod: TypeExpr) -> Operator:
        fused = (self.cfg.has("recursion") and isinstance(dom, Record)
                 and is_context_row(dom))
        if not (self.cfg.has("functions") or fused):
            raise DisabledConstruct("app", self.cfg)
        dom, cod = self._canon(dom), self._canon(cod)
        f = self._check_type(fun(dom, cod))
        label = f"app<{type_to_label(dom)};{type_to_label(cod)}>"
        args = (Argument(self._empty, second(f)), Argument(self._empty, second(dom)))
        return Operator(label, second(cod), args, "app", (dom, cod))

    @_mint_once_per_row
    def vrec(self, row: tuple) -> Operator:
        t = self._check_type(record(self._row(row)))
        label = f"vrec<{type_to_label(t)}>"
        args = tuple(Argument(self._empty, first(v)) for _, v in t.row)
        return Operator(label, first(t), args, "vrec", (t.row,))

    @_mint_once_per_row
    def rec(self, row: tuple) -> Operator:
        t = self._check_type(record(self._row(row)))
        label = f"rec<{type_to_label(t)}>"
        args = tuple(Argument(self._empty, second(v)) for _, v in t.row)
        return Operator(label, second(t), args, "rec", (t.row,))

    @_mint_once_per_row
    def recmatch(self, row: tuple, result: TypeExpr) -> Operator:
        t = record(self._row(row))
        if not self.cfg.has("records"):
            raise DisabledConstruct("record match", self.cfg)
        t = self._check_type(t)
        result = self._check_type(result)
        label = f"recmatch<{type_to_label(t)};{type_to_label(result)}>"
        binder = self._binder(tuple(v for _, v in t.row))
        args = (Argument(self._empty, second(t)), Argument(binder, second(result)))
        return Operator(label, second(result), args, "recmatch", (t.row, result))

    @_mint_once_per_row
    def vinj(self, row: tuple, tag: str) -> Operator:
        t = self._check_type(variant(self._row(row)))
        label = f"vinj<{type_to_label(t)};{tag}>"
        arg = Argument(self._empty, first(dict(t.row)[tag]))
        return Operator(label, first(t), (arg,), "vinj", (t.row, tag))

    @_mint_once_per_row
    def inj(self, row: tuple, tag: str) -> Operator:
        t = self._check_type(variant(self._row(row)))
        label = f"inj<{type_to_label(t)};{tag}>"
        arg = Argument(self._empty, second(dict(t.row)[tag]))
        return Operator(label, second(t), (arg,), "inj", (t.row, tag))

    @_mint_once_per_row
    def vmatch(self, row: tuple, result: TypeExpr) -> Operator:
        t = variant(self._row(row))
        if not vmatch_allowed(self.cfg, t):
            raise DisabledConstruct("variant match", self.cfg)
        t = self._check_type(t)
        result = self._check_type(result)
        label = f"vmatch<{type_to_label(t)};{type_to_label(result)}>"
        args = [Argument(self._empty, second(t))]
        args += [Argument(self._binder((v,)), second(result)) for _, v in t.row]
        return Operator(label, second(result), tuple(args), "vmatch",
                        (t.row, result))

    @_mint_once
    def lit(self, n: int) -> Operator:
        if not self.cfg.has("naturals"):
            raise DisabledConstruct("literal", self.cfg)
        if not 0 <= n < self.cfg.nat_bound:
            raise ValueError(f"literal {n} outside the modelled range "
                             f"0..{self.cfg.nat_bound - 1}")
        return Operator(f"lit<{n}>", first(NAT), (), "lit", (n,))

    @_mint_once
    def unroll(self) -> Operator:
        if not self.cfg.has("naturals"):
            raise DisabledConstruct("unroll", self.cfg)
        return Operator("unroll", second(self._canon(maybe_shape(NAT))),
                        (Argument(self._empty, second(NAT)),), "unroll", ())

    @_mint_once
    def roll(self) -> Operator:
        if not self.cfg.has("naturals"):
            raise DisabledConstruct("roll", self.cfg)
        arg = Argument(self._empty, second(self._canon(maybe_shape(NAT))))
        return Operator("roll", second(NAT), (arg,), "roll", ())

    @_mint_once
    def natfold(self, result: TypeExpr) -> Operator:
        if not self.cfg.has("naturals"):
            raise DisabledConstruct("fold", self.cfg)
        result = self._check_type(result)
        label = f"natfold<{type_to_label(result)}>"
        binder = self._binder((self._canon(maybe_shape(result)),))
        args = (Argument(self._empty, second(NAT)), Argument(binder, second(result)))
        return Operator(label, second(result), args, "natfold", (result,))

    @_mint_once
    def forloop(self, state: TypeExpr, result: TypeExpr) -> Operator:
        if not self.cfg.has("while"):
            raise DisabledConstruct("for", self.cfg)
        state = self._check_type(state)
        result = self._check_type(result)
        body = self._check_type(done_cont_shape(result, state))
        label = f"for<{type_to_label(state)};{type_to_label(result)}>"
        args = (Argument(self._empty, second(state)),
                Argument(self._binder((state,)), second(body)))
        return Operator(label, second(result), args, "for", (state, result))

    @_mint_once
    def letrec(self, defs: tuple, result: TypeExpr) -> Operator:
        """``defs`` is a tuple of (parameter types, return type) pairs."""
        if not self.cfg.has("recursion"):
            raise DisabledConstruct("letrec", self.cfg)
        if not defs:
            raise ValueError("letrec needs at least one definition")
        ftypes, checked = [], []
        for params, ret in defs:
            params = tuple(self._check_type(p) for p in params)
            dom = record(tuple((str(i), p) for i, p in enumerate(params)))
            ftypes.append(self._check_type(fun(dom, self._canon(ret))))
            checked.append(params)
        result = self._check_type(result)
        defs_label = ",".join(
            f"({','.join(type_to_label(p) for p in params)};{type_to_label(ret)})"
            for params, ret in defs)
        label = f"letrec<{defs_label};{type_to_label(result)}>"
        fctx = tuple(ftypes)
        args = [Argument(self._binder(fctx + params), second(ft.cod))
                for params, ft in zip(checked, ftypes)]
        args.append(Argument(self._binder(fctx), second(result)))
        return Operator(label, second(result), tuple(args), "letrec",
                        (defs, result))

    # -- bounded materialization -------------------------------------------

    def operators(self, results=None) -> list[Operator]:
        """Every operator instance over the types of depth at most 2, with at
        most two binders per ``let`` and literals up to 2.  ``val`` and
        ``let`` range their result, and ``lam`` and ``app`` their function
        type, over ``results`` instead (by default the same types); function
        types are listed by domain in universe order.  ``fragments --ops``
        prints this list, the compatibility squares and the exhaustive corpus
        read it."""
        cfg = self.cfg
        universe = types_upto(cfg, 2)
        results = universe if results is None else results
        out = [self.val(t) for t in results]
        if cfg.has("sequential"):
            for n in (1, 2):
                for bound in itertools.product(universe, repeat=n):
                    for res in results:
                        out.append(self.let(bound, res))
        # every function, record and variant type listed is valid, so the
        # fragment can apply, build and inject at it
        funs = [t for a in universe for t in results
                if isinstance(t, Fun) and t.dom == a]
        for t in funs:
            if cfg.has("functions"):
                out.append(self.lam(t.dom, t.cod))
            out.append(self.app(t.dom, t.cod))
        records = [t for t in universe if isinstance(t, Record)]
        for t in records:
            out.append(self.vrec(t.row))
            out.append(self.rec(t.row))
            if cfg.has("records"):
                for res in universe:
                    out.append(self.recmatch(t.row, res))
        variants = [t for t in universe if isinstance(t, Variant)]
        for t in variants:
            for tag, _ in t.row:
                out.append(self.vinj(t.row, tag))
                out.append(self.inj(t.row, tag))
            if vmatch_allowed(cfg, t):
                for res in universe:
                    out.append(self.vmatch(t.row, res))
        if cfg.has("naturals"):
            out += [self.lit(n) for n in range(min(3, cfg.nat_bound))]
            out += [self.unroll(), self.roll()]
            out += [self.natfold(t) for t in universe]
        if cfg.has("while"):
            for s in universe:
                for r in universe:
                    if valid_type(done_cont_shape(r, s), cfg):
                        out.append(self.forloop(s, r))
        if cfg.has("recursion"):
            for params in [(), *((t,) for t in universe)]:
                for ret in universe:
                    for res in universe:
                        try:
                            out.append(self.letrec(((params, ret),), res))
                        except DepthExceeded:
                            pass
        return out
