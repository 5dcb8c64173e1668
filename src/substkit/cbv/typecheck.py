"""Bidirectional elaboration of surface syntax into generic well-sorted terms.

Values and eliminator scrutinees synthesize; bodies check.  Every accepted
program corresponds to exactly one derivation, and the elaborated term's
operator instances are minted through the fragment's table, so anything the
fragment does not enable fails here with a positioned diagnostic.
"""

from __future__ import annotations

from ..sorts import Context, Sort, first, second
from ..terms import Op, Term, Var
from .ops import CbvOperatorTable
from .surface import (SApp, SFold, SFor, SInject, SLam, SLet, SLetRec, SLit,
                      SRecord, SRecordMatch, SRoll, SUnroll, SVal, SVar,
                      SVariantMatch, SVInject, SVRecord)
from .types import (Fun, NAT, Record, TypeExpr, Variant, fun, maybe_shape,
                    record, type_to_str, valid_type)


class UnknownVariable(Exception):
    def __init__(self, name, pos):
        super().__init__(f"unknown variable {name!r} at position {pos}")
        self.pos = pos


class SortMismatch(Exception):
    def __init__(self, expected, found, pos):
        super().__init__(f"expected {expected}, found {found} at position {pos}")
        self.expected, self.found, self.pos = expected, found, pos


class ArityMismatch(Exception):
    def __init__(self, message, pos):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


def _ty(t: TypeExpr) -> str:
    return type_to_str(t)


class _Checker:
    def __init__(self, table: CbvOperatorTable):
        self.table = table

    # scope is a list of (name, type); positions are list indices

    def lookup(self, scope, name, pos):
        for i in range(len(scope) - 1, -1, -1):
            if scope[i][0] == name:
                return i, scope[i][1]
        raise UnknownVariable(name, pos)

    def ctx_of(self, scope) -> Context:
        return Context(tuple(t for _, t in scope))

    # -- values ----------------------------------------------------------

    def synth_value(self, s, scope):
        ctx = self.ctx_of(scope)
        if isinstance(s, SVar):
            i, t = self.lookup(scope, s.name, s.pos)
            return Var(ctx, i), t
        if isinstance(s, SLam):
            if not valid_type(s.param_type, self.table.cfg):
                raise SortMismatch("a type of this fragment", _ty(s.param_type), s.pos)
            inner = scope + [(s.param, s.param_type)]
            body, cod = self.synth_term(s.body, inner)
            op = self.table.lam(s.param_type, cod)
            return Op(op, ctx, [body]), Fun(s.param_type, cod)
        if isinstance(s, SVRecord):
            labels = [l for l, _ in s.fields]
            if len(set(labels)) != len(labels):
                raise ArityMismatch(f"duplicate record labels {labels!r}", s.pos)
            typed = {}
            elabbed = {}
            for l, v in s.fields:
                elabbed[l], typed[l] = self.synth_value(v, scope)
            row = tuple(sorted(typed.items()))
            op = self.table.vrec(row)
            return Op(op, ctx, [elabbed[l] for l, _ in row]), Record(row)
        if isinstance(s, SVInject):
            if not isinstance(s.ty, Variant):
                raise SortMismatch("a variant type", _ty(s.ty), s.pos)
            row = dict(s.ty.row)
            if s.tag not in row:
                raise ArityMismatch(f"no constructor {s.tag!r} in {_ty(s.ty)}", s.pos)
            payload = self.check_value(s.value, scope, row[s.tag])
            op = self.table.vinj(s.ty.row, s.tag)
            return Op(op, ctx, [payload]), s.ty
        if isinstance(s, SLit):
            op = self.table.lit(s.value)
            return Op(op, ctx, []), NAT
        raise SortMismatch("a value", type(s).__name__, getattr(s, "pos", 0))

    def check_value(self, s, scope, expected: TypeExpr) -> Term:
        ctx = self.ctx_of(scope)
        if isinstance(s, SLam):
            if not isinstance(expected, Fun):
                raise SortMismatch(_ty(expected), "a function value", s.pos)
            if s.param_type != expected.dom:
                raise SortMismatch(_ty(expected.dom), _ty(s.param_type), s.pos)
            inner = scope + [(s.param, s.param_type)]
            body = self.check_term(s.body, inner, expected.cod)
            op = self.table.lam(expected.dom, expected.cod)
            return Op(op, ctx, [body])
        if isinstance(s, SVRecord) and isinstance(expected, Record):
            row = dict(expected.row)
            given = [l for l, _ in s.fields]
            if sorted(given) != sorted(row):
                raise ArityMismatch(
                    f"record fields {given!r} do not match {_ty(expected)}", s.pos)
            by_label = {l: self.check_value(v, scope, row[l]) for l, v in s.fields}
            op = self.table.vrec(expected.row)
            return Op(op, ctx, [by_label[l] for l, _ in expected.row])
        if isinstance(s, SVInject):
            if s.ty != expected:
                raise SortMismatch(_ty(expected), _ty(s.ty), s.pos)
            term, found = self.synth_value(s, scope)
            return term
        term, found = self.synth_value(s, scope)
        if found != expected:
            raise SortMismatch(_ty(expected), _ty(found), s.pos)
        return term

    # -- terms ------------------------------------------------------------

    def synth_term(self, s, scope):
        ctx = self.ctx_of(scope)
        if isinstance(s, SVal):
            value, t = self.synth_value(s.value, scope)
            return Op(self.table.val(t), ctx, [value]), t
        if isinstance(s, SLet):
            return self._let(s, scope, expected=None)
        if isinstance(s, SApp):
            func, ft = self.synth_term(s.func, scope)
            if not isinstance(ft, Fun):
                raise SortMismatch("a function computation", _ty(ft), s.pos)
            arg = self.check_term(s.arg, scope, ft.dom)
            op = self.table.app(ft.dom, ft.cod)
            return Op(op, ctx, [func, arg]), ft.cod
        if isinstance(s, SRecord):
            labels = [l for l, _ in s.fields]
            if len(set(labels)) != len(labels):
                raise ArityMismatch(f"duplicate record labels {labels!r}", s.pos)
            typed, elabbed = {}, {}
            for l, m in s.fields:
                elabbed[l], typed[l] = self.synth_term(m, scope)
            row = tuple(sorted(typed.items()))
            op = self.table.rec(row)
            return Op(op, ctx, [elabbed[l] for l, _ in row]), Record(row)
        if isinstance(s, SRecordMatch):
            return self._record_match(s, scope, expected=None)
        if isinstance(s, SInject):
            if not isinstance(s.ty, Variant):
                raise SortMismatch("a variant type", _ty(s.ty), s.pos)
            row = dict(s.ty.row)
            if s.tag not in row:
                raise ArityMismatch(f"no constructor {s.tag!r} in {_ty(s.ty)}", s.pos)
            arg = self.check_term(s.term, scope, row[s.tag])
            op = self.table.inj(s.ty.row, s.tag)
            return Op(op, ctx, [arg]), s.ty
        if isinstance(s, SVariantMatch):
            return self._variant_match(s, scope, expected=None)
        if isinstance(s, SUnroll):
            scrut = self.check_term(s.term, scope, NAT)
            op = self.table.unroll()
            return Op(op, ctx, [scrut]), maybe_shape(NAT)
        if isinstance(s, SRoll):
            arg = self.check_term(s.term, scope, maybe_shape(NAT))
            op = self.table.roll()
            return Op(op, ctx, [arg]), NAT
        if isinstance(s, SFold):
            if s.ann is None:
                raise SortMismatch(
                    "a checking context or an annotation (fold[t] ...)",
                    "fold", s.pos)
            return self.check_term(s, scope, s.ann), s.ann
        if isinstance(s, SFor):
            init, state = self.synth_term(s.init, scope)
            inner = scope + [(s.binder, state)]
            body, bt = self.synth_term(s.body, inner)
            want = ("a <Done: -, Cont: -> computation over the loop state")
            if not (isinstance(bt, Variant) and len(bt.row) == 2
                    and bt.row[0][0] == "Cont" and bt.row[1][0] == "Done"):
                raise SortMismatch(want, _ty(bt), s.pos)
            if bt.row[0][1] != state:
                raise SortMismatch(f"Cont: {_ty(state)}", _ty(bt.row[0][1]), s.pos)
            result = bt.row[1][1]
            op = self.table.forloop(state, result)
            return Op(op, ctx, [init, body]), result
        if isinstance(s, SLetRec):
            return self._letrec(s, scope, expected=None)
        raise SortMismatch("a term", type(s).__name__, getattr(s, "pos", 0))

    def check_term(self, s, scope, expected: TypeExpr) -> Term:
        ctx = self.ctx_of(scope)
        if isinstance(s, SVal):
            value = self.check_value(s.value, scope, expected)
            return Op(self.table.val(expected), ctx, [value])
        if isinstance(s, SLet):
            term, _ = self._let(s, scope, expected)
            return term
        if isinstance(s, SRecordMatch):
            term, _ = self._record_match(s, scope, expected)
            return term
        if isinstance(s, SVariantMatch):
            term, _ = self._variant_match(s, scope, expected)
            return term
        if isinstance(s, SFold):
            if s.ann is not None and s.ann != expected:
                raise SortMismatch(_ty(expected), _ty(s.ann), s.pos)
            scrut = self.check_term(s.scrutinee, scope, NAT)
            inner = scope + [(s.binder, maybe_shape(expected))]
            body = self.check_term(s.body, inner, expected)
            op = self.table.natfold(expected)
            return Op(op, ctx, [scrut, body])
        if isinstance(s, SLetRec):
            term, _ = self._letrec(s, scope, expected)
            return term
        term, found = self.synth_term(s, scope)
        if found != expected:
            raise SortMismatch(_ty(expected), _ty(found), s.pos)
        return term

    # The binding forms below synthesize their result type when ``expected``
    # is None and check against it otherwise; each returns (term, type).

    def _body(self, s, scope, expected):
        if expected is None:
            return self.synth_term(s, scope)
        return self.check_term(s, scope, expected), expected

    def _let(self, s, scope, expected):
        ctx = self.ctx_of(scope)
        inner = list(scope)
        bound_terms, bound_types = [], []
        for name, m in s.bindings:
            term, t = self.synth_term(m, inner)
            bound_terms.append(term)
            bound_types.append(t)
            inner.append((name, t))
        body, result = self._body(s.body, inner, expected)
        op = self.table.let(tuple(bound_types), result)
        return Op(op, ctx, bound_terms + [body]), result

    def _record_match(self, s, scope, expected):
        ctx = self.ctx_of(scope)
        scrut, st = self.synth_term(s.scrutinee, scope)
        if not isinstance(st, Record):
            raise SortMismatch("a record computation", _ty(st), s.pos)
        row = st.row
        given = [l for l, _ in s.binders]
        if sorted(given) != sorted(l for l, _ in row):
            raise ArityMismatch(
                f"pattern fields {given!r} do not match {_ty(st)}", s.pos)
        names = dict(s.binders)
        inner = scope + [(names[l], t) for l, t in row]
        body, result = self._body(s.body, inner, expected)
        op = self.table.recmatch(row, result)
        return Op(op, ctx, [scrut, body]), result

    def _variant_match(self, s, scope, expected):
        ctx = self.ctx_of(scope)
        scrut, st = self.synth_term(s.scrutinee, scope)
        if not isinstance(st, Variant):
            raise SortMismatch("a variant computation", _ty(st), s.pos)
        row = st.row
        given = [l for l, _, _ in s.clauses]
        if sorted(given) != sorted(l for l, _ in row):
            raise ArityMismatch(
                f"clauses {given!r} do not match {_ty(st)}", s.pos)
        by_label = {l: (name, body) for l, name, body in s.clauses}
        bodies = []
        result = expected
        for l, t in row:
            name, body = by_label[l]
            elab, result = self._body(body, scope + [(name, t)], result)
            bodies.append(elab)
        op = self.table.vmatch(row, result)
        return Op(op, ctx, [scrut] + bodies), result

    def _letrec(self, s, scope, expected):
        ctx = self.ctx_of(scope)
        defs = tuple((tuple(t for _, t in params), ret)
                     for _, params, ret, _ in s.defs)
        ftypes = [fun(record(tuple((str(i), p) for i, p in enumerate(ps))), ret)
                  for ps, ret in defs]
        fscope = scope + [(name, ft) for (name, _, _, _), ft in zip(s.defs, ftypes)]
        bodies = []
        for (name, params, ret, body) in s.defs:
            inner = fscope + list(params)
            bodies.append(self.check_term(body, inner, ret))
        main, result = self._body(s.body, fscope, expected)
        op = self.table.letrec(defs, result)
        return Op(op, ctx, bodies + [main]), result


def default_names(ctx: Context) -> list[str]:
    return [f"x{i}" for i in range(len(ctx))]


def _setup(ctx: Context, table: CbvOperatorTable, names):
    """The checker and scope of both entry points, once the context's types
    are known to be the fragment's."""
    for t in ctx.entries:
        if not valid_type(t, table.cfg):
            raise SortMismatch("a context of fragment types", _ty(t), 0)
    names = names if names is not None else default_names(ctx)
    return _Checker(table), list(zip(names, ctx.entries))


def typecheck(surface, ctx: Context, expected: Sort, table: CbvOperatorTable,
              names: list[str] | None = None) -> Term:
    """Elaborate a surface term against an expected sort over a typed context,
    minting its operators through ``table``."""
    checker, scope = _setup(ctx, table, names)
    if expected.is_first:
        return checker.check_value(surface, scope, expected.ident)
    return checker.check_term(surface, scope, expected.ident)


def synthesize(surface, ctx: Context, table: CbvOperatorTable,
               names: list[str] | None = None, value: bool = False):
    """Synthesis entry point: returns (term, Sort)."""
    checker, scope = _setup(ctx, table, names)
    if value:
        term, t = checker.synth_value(surface, scope)
        return term, first(t)
    term, t = checker.synth_term(surface, scope)
    return term, second(t)
