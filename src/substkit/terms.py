"""Scope-indexed terms: renaming, substitution, metavariables, and the fold.

Every term carries its ambient sort and context, checked at construction, so
ill-sorted trees cannot be built.  Binders extend the ambient context on the
right; as a consequence weakening never renumbers variables and alpha
equivalence is plain structural equality.

A term owns neither its sort nor the contexts it is checked against: a
variable's sort is the pair ``sorts.first`` makes of its context entry, an
operator node's are those of its operator, whose binder contexts the
operator table that minted it shares among its operators.  Sorts are pairs
compared in C, so the sort checks are a plain ``!=``; ``Context.__eq__``
runs in Python, so the context checks test identity first and compare with
``!=`` only when the objects differ: equal contexts that are distinct
objects, such as those of pickled terms or of two tables, are still
accepted.  A constructor checks every argument in one pass and, only when a
check fails, walks the arguments again to name the first failing position.

Terms are immutable and compared structurally, so an unchanged subterm can
be shared rather than rebuilt: metavariable substitution returns an operator
node itself when none of its arguments changed, which is every hole-free
subterm.

Substitution is the environment-carrying fold instantiated at the term carrier
itself.  A second, independently written substitution (classical index
arithmetic with explicit shifting, operating on indices counted from the
right) is kept alongside as a cross-check; the two must agree everywhere.
"""

from __future__ import annotations

from operator import is_
from typing import Iterable, Mapping, Sequence

from .signatures import Operator
from .sorts import Context, Renaming, Sort, first


class IllSorted(Exception):
    pass


class UnknownHole(KeyError):
    pass


class HoleDecl:
    """A metavariable: a placeholder of a given sort with its own context."""
    __slots__ = ("ident", "sort", "ctx")

    def __init__(self, ident: str, sort: Sort, ctx: Context):
        _set_hole_ident(self, ident)
        _set_hole_sort(self, sort)
        _set_hole_ctx(self, ctx)

    def __setattr__(self, *a):
        raise AttributeError("HoleDecl is immutable")

    def __reduce__(self):
        return HoleDecl, (self.ident, self.sort, self.ctx)

    def __eq__(self, other):
        if type(other) is not HoleDecl:
            return NotImplemented
        return (self.ident, self.sort, self.ctx) == (other.ident, other.sort, other.ctx)

    def __hash__(self):
        return hash((self.ident, self.sort, self.ctx))

    def __repr__(self):
        return f"HoleDecl(ident={self.ident!r}, sort={self.sort!r}, ctx={self.ctx!r})"


class Term:
    __slots__ = ("sort", "ctx", "_hash")

    sort: Sort
    ctx: Context

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def __hash__(self):
        # computed on the first call: most terms are built and never hashed
        try:
            return self._hash
        except AttributeError:
            h = hash(self._hash_key())
            _set_hash(self, h)
            return h


class Var(Term):
    __slots__ = ("index",)

    def __init__(self, ctx: Context, index: int):
        entries = ctx.entries
        if not 0 <= index < len(entries):
            raise IllSorted(f"variable {index} out of range for {ctx!r}")
        _set_sort(self, first(entries[index]))
        _set_ctx(self, ctx)
        _set_index(self, index)

    def __reduce__(self):
        # a copy is built, and checked, by the constructor
        return Var, (self.ctx, self.index)

    def _hash_key(self):
        return ("v", self.index, self.ctx)

    def __eq__(self, other):
        return (type(other) is Var and self.index == other.index
                and self.ctx == other.ctx)

    __hash__ = Term.__hash__

    def __repr__(self):
        return f"Var(#{self.index})"


class Op(Term):
    __slots__ = ("op", "args")

    def __init__(self, op: Operator, ctx: Context, args: Sequence[Term]):
        args = tuple(args)
        decls = op.args
        if len(args) != len(decls):
            raise IllSorted(f"{op.label}: expected {op.arity} arguments, got {len(args)}")
        for arg, decl in zip(args, decls):
            binder = decl.binder
            want = ctx.extend(binder) if binder.entries else ctx
            actx = arg.ctx
            if arg.sort != decl.sort or (actx is not want and actx != want):
                raise _op_error(op, ctx, args)
        _set_sort(self, op.result_sort)
        _set_ctx(self, ctx)
        _set_op(self, op)
        _set_args(self, args)

    def __reduce__(self):
        return Op, (self.op, self.ctx, self.args)

    def _hash_key(self):
        return ("o", self.op.label, self.args, self.ctx)

    def __eq__(self, other):
        return (type(other) is Op and self.op.label == other.op.label
                and self.args == other.args and self.ctx == other.ctx)

    __hash__ = Term.__hash__

    def __repr__(self):
        return f"Op({self.op.label}, {list(self.args)!r})"


class Meta(Term):
    __slots__ = ("hole", "env")

    def __init__(self, hole: HoleDecl, ctx: Context, env: Sequence[Term]):
        env = tuple(env)
        if len(env) != len(hole.ctx):
            raise IllSorted(f"hole {hole.ident}: environment arity {len(env)}, "
                            f"expected {len(hole.ctx)}")
        for entry, want in zip(env, hole.ctx.entries):
            if entry.sort != first(want) or (entry.ctx is not ctx
                                             and entry.ctx != ctx):
                raise _meta_error(hole, ctx, env)
        _set_sort(self, hole.sort)
        _set_ctx(self, ctx)
        _set_hole(self, hole)
        _set_env(self, env)

    def __reduce__(self):
        return Meta, (self.hole, self.ctx, self.env)

    def _hash_key(self):
        return ("m", self.hole.ident, self.env, self.ctx)

    def __eq__(self, other):
        return (type(other) is Meta and self.hole == other.hole
                and self.env == other.env and self.ctx == other.ctx)

    __hash__ = Term.__hash__

    def __repr__(self):
        return f"Meta(?{self.hole.ident}, {list(self.env)!r})"


class SubstEnv:
    """A simultaneous substitution: one first-class term over ``target`` per
    position of ``source``."""

    __slots__ = ("source", "target", "entries")

    def __init__(self, source: Context, target: Context, entries: Sequence[Term]):
        entries = tuple(entries)
        if len(entries) != len(source):
            raise IllSorted("substitution must cover every source position")
        for t, want in zip(entries, source.entries):
            if t.sort != first(want) or (t.ctx is not target
                                         and t.ctx != target):
                raise _subst_error(source, target, entries)
        _set_subst_source(self, source)
        _set_subst_target(self, target)
        _set_subst_entries(self, entries)

    def __setattr__(self, *a):
        raise AttributeError("SubstEnv is immutable")

    def __reduce__(self):
        return SubstEnv, (self.source, self.target, self.entries)

    def __eq__(self, other):
        return (isinstance(other, SubstEnv) and self.source == other.source
                and self.target == other.target and self.entries == other.entries)

    def __repr__(self):
        return f"SubstEnv({list(self.entries)!r})"


# the checked constructors set their slots through the slot descriptors,
# which pass by the refusing __setattr__ without a lookup by name
_set_hole_ident = HoleDecl.ident.__set__
_set_hole_sort = HoleDecl.sort.__set__
_set_hole_ctx = HoleDecl.ctx.__set__
_set_sort = Term.sort.__set__
_set_ctx = Term.ctx.__set__
_set_hash = Term._hash.__set__
_set_index = Var.index.__set__
_set_op = Op.op.__set__
_set_args = Op.args.__set__
_set_hole = Meta.hole.__set__
_set_env = Meta.env.__set__
_set_subst_source = SubstEnv.source.__set__
_set_subst_target = SubstEnv.target.__set__
_set_subst_entries = SubstEnv.entries.__set__


def _op_error(op: Operator, ctx: Context, args: tuple) -> IllSorted:
    """The error of the first argument that ``Op`` refuses."""
    for i, (arg, decl) in enumerate(zip(args, op.args)):
        if arg.sort != decl.sort:
            return IllSorted(
                f"{op.label} argument {i}: sort {arg.sort!r}, expected {decl.sort!r}")
        want_ctx = ctx.extend(decl.binder)
        if arg.ctx != want_ctx:
            return IllSorted(
                f"{op.label} argument {i}: context {arg.ctx!r}, expected {want_ctx!r}")


def _meta_error(hole: HoleDecl, ctx: Context, env: tuple) -> IllSorted:
    """The error of the first entry that ``Meta`` refuses."""
    for i, (entry, want) in enumerate(zip(env, hole.ctx.entries)):
        if entry.sort != first(want):
            return IllSorted(f"hole {hole.ident}: entry {i} has sort {entry.sort!r}")
        if entry.ctx != ctx:
            return IllSorted(f"hole {hole.ident}: entry {i} over {entry.ctx!r}, "
                             f"expected {ctx!r}")


def _subst_error(source: Context, target: Context, entries: tuple) -> IllSorted:
    """The error of the first entry that ``SubstEnv`` refuses."""
    for i, (t, want) in enumerate(zip(entries, source.entries)):
        if t.sort != first(want):
            return IllSorted(f"entry {i}: sort {t.sort!r}, expected {first(want)!r}")
        if t.ctx != target:
            return IllSorted(f"entry {i} over {t.ctx!r}, expected {target!r}")


def identity_env(ctx: Context) -> SubstEnv:
    return SubstEnv(ctx, ctx, tuple(Var(ctx, i) for i in range(len(ctx))))


# --- renaming ---------------------------------------------------------------

def rename(t: Term, rho: Renaming) -> Term:
    """Functorial action: a term over rho.target becomes a term over rho.source."""
    if t.ctx != rho.target:
        raise IllSorted(f"term over {t.ctx!r} cannot be renamed along {rho!r}")
    if type(t) is Var:
        return Var(rho.source, rho.mapping[t.index])
    if type(t) is Op:
        args = []
        for arg, decl in zip(t.args, t.op.args):
            args.append(rename(arg, rho.extend(decl.binder)) if len(decl.binder)
                        else rename(arg, rho))
        return Op(t.op, rho.source, args)
    return Meta(t.hole, rho.source, tuple(rename(e, rho) for e in t.env))


# --- the parameterised fold -------------------------------------------------

class TermCarrier:
    """The term structure as a pointed carrier: the action is renaming, the
    point is the variable constructor."""

    act = staticmethod(rename)
    var = Var


class FoldMemo:
    """The results of a fold at operator nodes, for the folds of one owner.

    ``results`` maps the identity of a subterm to the pair of the subterm and
    its result: keeping the subterm keeps its ``id`` from being reused while
    the memo lives.  ``serves`` names what the memo was made for, such as the
    ``SubstEnv`` of ``substitute``, so that handing it to another owner can
    be refused instead of answered from the wrong table."""

    __slots__ = ("serves", "results")

    def __init__(self, serves):
        self.serves = serves
        self.results: dict = {}


def fold(t: Term, alg_ops, alg_hole, env: Sequence, out_ctx: Context, hooks,
         memo: FoldMemo | None = None) -> object:
    """The unique environment-carrying traversal out of the syntax.

    ``env`` has one value over ``out_ctx`` per position of ``t.ctx``.
    Variables become values; operator nodes hand their folded arguments to
    ``alg_ops``; metavariable nodes fold their environments and hand them to
    ``alg_hole``.  The environment is never extended or routed: a variable
    bound inside ``t`` becomes the point at its own position, and a free one
    reads its entry, weakened once along the projection onto ``out_ctx``.

    The result is the eager rule's, :func:`signatures.route_environment` under
    every binder (used by the compatibility squares of ``semantics.checks``),
    whenever ``hooks.act`` is functorial and ``hooks.var`` is natural along
    projections: ``act(var(c, j), pi) == var(c', j)``.

    The algebras are called as ``alg_ops(op, values, ctx)`` and
    ``alg_hole(hole, values, ctx)``.

    With a ``memo``, an operator node whose subterm object the memo has seen
    is not folded again: its result is read back, keyed on the identity of
    the subterm.  The caller keeps one memo per environment and
    ``out_ctx``, and folds through it only terms over one context, with the
    same algebras and hooks.  Identity is then a sound key: a subterm ``s``
    of such a term is reached over ``out_ctx`` extended by the binders that
    ``s.ctx`` adds to ``t.ctx``, which ``s`` alone determines, so each of its
    occurrences folds to the same result.  Without a memo each operator node
    pays one ``is None`` test.
    """
    if len(env) != len(t.ctx):
        raise IllSorted(f"environment of {len(env)} entries for a term over "
                        f"{t.ctx!r}")
    return _fold(t, alg_ops, alg_hole, hooks, env, out_ctx, out_ctx,
                 None if memo is None else memo.results)


def _fold(t, alg_ops, alg_hole, hooks, env: Sequence, out_ctx: Context,
          ctx: Context, memo: dict | None):
    """``fold`` at a node over ``ctx``, which is ``out_ctx`` followed by the
    binders passed on the way down; ``memo`` is the ``FoldMemo``'s table."""
    if type(t) is Var:
        i, k, n = t.index, len(env), len(out_ctx)
        if i >= k:
            return hooks.var(ctx, n + i - k)
        if len(ctx) == n:
            return env[i]
        return hooks.act(env[i], Renaming(ctx, out_ctx, range(n)))
    if type(t) is Op:
        if memo is None:
            values = [_fold(arg, alg_ops, alg_hole, hooks, env, out_ctx,
                            ctx.extend(decl.binder), None)
                      for arg, decl in zip(t.args, t.op.args)]
            return alg_ops(t.op, values, ctx)
        got = memo.get(id(t))
        if got is None:
            values = [_fold(arg, alg_ops, alg_hole, hooks, env, out_ctx,
                            ctx.extend(decl.binder), memo)
                      for arg, decl in zip(t.args, t.op.args)]
            got = memo[id(t)] = (t, alg_ops(t.op, values, ctx))
        return got[1]
    values = [_fold(e, alg_ops, alg_hole, hooks, env, out_ctx, ctx, memo)
              for e in t.env]
    return alg_hole(t.hole, values, ctx)


def _rebuild_ops(op, values, ctx):
    return Op(op, ctx, values)


def _rebuild_hole(hole, values, ctx):
    return Meta(hole, ctx, values)


def substitute(t: Term, env: SubstEnv, memo: FoldMemo | None = None) -> Term:
    """Capture-avoiding simultaneous substitution, as the fold at the term
    carrier.  ``memo``, made as ``FoldMemo(env)``, shares the substituted
    subterms among the terms substituted through it; a memo made for another
    substitution is refused."""
    if t.ctx != env.source:
        raise IllSorted(f"term over {t.ctx!r} cannot take a substitution from "
                        f"{env.source!r}")
    if memo is not None and memo.serves is not env:
        raise ValueError(f"a fold memo made for {memo.serves!r} cannot serve "
                         f"{env!r}")
    return fold(t, _rebuild_ops, _rebuild_hole, env.entries, env.target,
                TermCarrier, memo)


def compose_subst(s1: SubstEnv, s2: SubstEnv) -> SubstEnv:
    """Componentwise substitution ``s1[s2]``."""
    if s1.target != s2.source:
        raise IllSorted("substitutions do not compose")
    return SubstEnv(s1.source, s2.target, tuple(substitute(e, s2) for e in s1.entries))


# --- metavariable substitution ----------------------------------------------

class MetaSubst:
    """An assignment of a body over ``ctx(hole)`` to every hole of a hole set."""

    def __init__(self, mapping: Mapping[str, tuple[HoleDecl, Term]]):
        self.mapping = dict(mapping)
        for ident, (hole, body) in self.mapping.items():
            if body.sort != hole.sort or body.ctx != hole.ctx:
                raise IllSorted(f"body for hole {ident} has the wrong sort or context")

    def body(self, hole: HoleDecl) -> Term:
        try:
            return self.mapping[hole.ident][1]
        except KeyError:
            raise UnknownHole(hole.ident) from None


def identity_meta_subst(holes: Iterable[HoleDecl]) -> MetaSubst:
    return MetaSubst({h.ident: (h, Meta(h, h.ctx, identity_env(h.ctx).entries))
                      for h in holes})


def meta_substitute(t: Term, ms: MetaSubst) -> Term:
    """Kleisli extension: replace each hole by its body, instantiated at the
    hole's (already meta-substituted) environment.

    An operator node whose arguments all come back as the identical objects
    is returned as it is, not rebuilt: a hole-free subterm is a fixed point
    of the extension, and terms are immutable with structural equality, so
    the shared node is equal to the one a rebuild would make.  Every
    argument is still visited, through the module-level name."""
    if type(t) is Var:
        return t
    if type(t) is Op:
        args = t.args
        new = [meta_substitute(a, ms) for a in args]
        if all(map(is_, new, args)):
            return t
        return Op(t.op, t.ctx, new)
    entries = tuple(meta_substitute(e, ms) for e in t.env)
    body = ms.body(t.hole)
    return substitute(body, SubstEnv(t.hole.ctx, t.ctx, entries))


def compose_meta_subst(ms1: MetaSubst, ms2: MetaSubst) -> MetaSubst:
    return MetaSubst({ident: (hole, meta_substitute(body, ms2))
                      for ident, (hole, body) in ms1.mapping.items()})


# --- independent reference substitution --------------------------------------
#
# Classical de Bruijn arithmetic: indices counted from the right, binders
# prepend index 0 and shift everything free.  Deliberately shares no code with
# the fold-based route; the two implementations are asserted to agree.

def _to_indexed(t: Term):
    n = len(t.ctx)
    if type(t) is Var:
        return ("v", n - 1 - t.index)
    if type(t) is Op:
        return ("o", t.op, tuple(_to_indexed(a) for a in t.args))
    return ("m", t.hole, tuple(_to_indexed(e) for e in t.env))


def _shift(t, d, cutoff):
    tag = t[0]
    if tag == "v":
        i = t[1]
        return ("v", i + d) if i >= cutoff else t
    if tag == "o":
        op = t[1]
        return ("o", op, tuple(_shift(a, d, cutoff + len(decl.binder))
                               for a, decl in zip(t[2], op.args)))
    return ("m", t[1], tuple(_shift(e, d, cutoff) for e in t[2]))


def _subst_indexed(t, sub):
    tag = t[0]
    if tag == "v":
        return sub[t[1]]
    if tag == "o":
        op = t[1]
        out = []
        for a, decl in zip(t[2], op.args):
            k = len(decl.binder)
            if k:
                inner = [("v", j) for j in range(k)]
                inner += [_shift(e, k, 0) for e in sub]
                out.append(_subst_indexed(a, inner))
            else:
                out.append(_subst_indexed(a, sub))
        return ("o", op, tuple(out))
    return ("m", t[1], tuple(_subst_indexed(e, sub) for e in t[2]))


def _from_indexed(t, ctx: Context):
    tag = t[0]
    if tag == "v":
        return Var(ctx, len(ctx) - 1 - t[1])
    if tag == "o":
        op = t[1]
        args = []
        for a, decl in zip(t[2], op.args):
            args.append(_from_indexed(a, ctx.extend(decl.binder)))
        return Op(op, ctx, args)
    return Meta(t[1], ctx, tuple(_from_indexed(e, ctx) for e in t[2]))


def substitute_direct(t: Term, env: SubstEnv) -> Term:
    if t.ctx != env.source:
        raise IllSorted("substitution does not match the term's context")
    n = len(env.source)
    sub = [_to_indexed(env.entries[n - 1 - j]) for j in range(n)]
    return _from_indexed(_subst_indexed(_to_indexed(t), sub), env.target)

