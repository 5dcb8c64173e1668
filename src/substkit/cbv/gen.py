"""Seeded random well-typed terms, substitutions, and holed corpora.

Generation is type-directed: a value-inhabitation fixpoint over the bounded
type universe decides which targets are constructible in a given context, and
a minimal-value fallback guarantees termination when the depth budget runs
out.  A draw first mints its operator through the fragment table and then
fills the operator's arguments from ``op.args``, each one drawn over the
context extended by its binder (the shared extension that ``Op`` checks it
against), so every generated tree is well-sorted by construction and no
production restates a family's binders.  ``let`` is the one production that
builds its own node: each bound type is drawn after the terms before it, so
its operator is known only at the end.

Computation types never enter contexts, so inhabitation is decided from the
set of value types in scope alone: a Horn-clause closure, where a record needs
all its components and a variant any one (Dowling & Gallier, "Linear-time
algorithms for testing the satisfiability of propositional Horn formulae", JLP
1984).  Each generator owns one kernel (``_Kernel``) that numbers every type
it meets, so a set of types is an ``int`` bitmask.  It reads the introduction
rule of every valid subtype of its universe once, as a flag (all components or
any one) and the mask of the components, and keeps for each type the mask of
the types whose rule names it.  A query's pool is the universe's mask together
with the valid subtypes of each of its variable types that lie outside the
universe, walked once per such type; a type that only another query's
variables brought in never joins it.  The closure is a semi-naive fixpoint on
masks: it starts from what the rules build without variables, adds the
variables' types, and re-examines a type only when one of its components has
just become inhabited.  A function type whose domain stays uninhabited falls
back to a query with a variable of the domain added, while there are fewer
than five variable types.  That query has the same pool and starts from the
closure without the domain; a codomain already in that closure needs no query
at all.  The recursion runs on masks, and its answers are memoized per mask.

A generator keeps what its draws derive, until it is dropped: the kernel's
numbering, walks and mask memo, one frozenset per distinct inhabited mask, the
inhabited set of each variable-type set and of each context, and per inhabited
set its list sorted by label and one candidate record (``_Candidates``) that
the ``vmatch``, ``recmatch``, ``app`` and ``for`` productions read instead of
rescanning the set.  Depth gates are arithmetic on the components' depths.
The configuration keeps only ``valid_type``'s answers and the ``types_upto``
universes.  The kernel stays with the generator too: one kept by the
configuration would live as long as it, and a caller that holds all 128
configurations for a whole run would hold 128 kernels.

The exhaustive corpora come from an :class:`Enumeration`, which has no
productions of its own: it iterates the signature by depth over the instances
``CbvOperatorTable.operators(results)`` lists for the result types up to the
fragment's depth.  Only ``val``, ``let``, ``lam`` and ``app`` range over those
results; the other families stay on the depth-2 universe, so a deeper record,
variant or ``Maybe`` type gets no value beyond its variables.
"""

from __future__ import annotations

import itertools
import operator
import random

from ..sorts import Context, Sort, first, second
from ..terms import HoleDecl, Meta, Op, SubstEnv, Term, Var
from .ops import CbvOperatorTable, vmatch_allowed
from .types import (NAT, UNIT, Base, DepthExceeded, FragmentConfig, Fun,
                    NatType, Record, TypeExpr, Variant, maybe_shape,
                    type_to_label, types_upto, valid_type)


# the scrutinee type of ``unroll``, and the argument type of ``roll``
_MAYBE_NAT = maybe_shape(NAT)

# the minimal fallback's choice of a literal or a tag
_first = operator.itemgetter(0)


def _ones(mask: int):
    """The numbers of the bits set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Kernel:
    """Type inhabitation as a Horn closure on numbered types (Dowling &
    Gallier, JLP 1984): one per generator, kept until it is dropped.

    Every type the kernel meets gets a number, and a set of types is an
    ``int`` with one bit per number.  A record or ``Nat`` needs all its
    components, a variant any one, a function type its domain and codomain;
    base types and the constructs a fragment lacks get no rule, so their
    values come only from variables.  A rule is that flag and the mask of its
    components, and each type has the mask of the types whose rule names it
    (its parents)."""

    __slots__ = ("cfg", "types", "numbers", "rules", "parents", "pool", "funs",
                 "always", "extras", "memo", "decoded")

    def __init__(self, cfg: FragmentConfig, universe):
        self.cfg = cfg
        self.types: list = []       # number -> type
        self.numbers: dict = {}     # type -> number
        # number -> (needs all components?, their mask), per type a rule builds
        self.rules: dict = {}
        self.parents: dict = {}     # number -> its parents
        self.pool, self.funs, built = self._walk(universe, 0)
        # what the rules build without variables: every query starts here
        self.always = self._settle(0, built, self.pool)
        # an out-of-universe type -> the walk of its valid subtypes
        self.extras: dict = {}
        self.memo: dict = {}        # variable types -> inhabited types
        # inhabited types -> their frozenset
        self.decoded = {self.always: frozenset(map(self.types.__getitem__,
                                                   _ones(self.always)))}

    def number(self, t: TypeExpr) -> int:
        n = self.numbers.get(t)
        if n is None:
            n = self.numbers[t] = len(self.types)
            self.types.append(t)
        return n

    def mask(self, types) -> int:
        m = 0
        for t in types:
            m |= 1 << self.number(t)
        return m

    def decode(self, mask: int) -> frozenset:
        """The types of ``mask``, an answer of ``inhabited``; each distinct
        mask is decoded once, as a union with the decoded ``always`` (a union
        of frozensets hashes no type again)."""
        got = self.decoded.get(mask)
        if got is None:
            types, always = self.types, self.always
            got = self.decoded[mask] = self.decoded[always].union(
                [types[n] for n in _ones(mask & ~always)])
        return got

    def _walk(self, roots, known: int) -> tuple:
        """The valid subtypes of ``roots`` outside ``known``, as a mask, with
        the function types among them as ``(fun, dom, cod)`` in the order a
        depth-first walk meets them, and the mask of the types a rule builds.
        Every type the walk meets gets a number."""
        cfg, numbers, number = self.cfg, self.numbers, self.number
        rules, parents = self.rules, self.parents
        pool, funs, built = 0, [], 0
        todo = list(roots)
        while todo:
            t = todo.pop()
            n = numbers.get(t)
            if n is None:  # a type met for the first time is in no pool
                n = number(t)
            elif (pool | known) >> n & 1:
                continue
            # a valid record or variant is one the fragment can build
            if isinstance(t, Fun):
                comps = (t.dom, t.cod)
                need_all = True if cfg.has("functions") else None
            elif isinstance(t, Record):
                comps = tuple(v for _, v in t.row)
                need_all = True
            elif isinstance(t, Variant):
                comps = tuple(v for _, v in t.row)
                need_all = False
            else:
                comps = ()
                need_all = True if isinstance(t, NatType) else None
            todo.extend(comps)
            if not valid_type(t, cfg):
                continue
            pool |= 1 << n
            if need_all is None:
                continue
            built |= 1 << n
            if n not in rules:
                mask = 0
                for c in map(number, comps):
                    mask |= 1 << c
                    parents[c] = parents.get(c, 0) | 1 << n
                rules[n] = (need_all, mask)
            if isinstance(t, Fun):
                funs.append((n, numbers[t.dom], numbers[t.cod]))
        return pool, funs, built

    def _pool(self, avail: int) -> tuple:
        """The pool of a query on ``avail``, its function types and the types
        its extra rules build: the universe's, and the valid subtypes of each
        variable type outside it, walked once per such type."""
        pool, funs, todo = self.pool, self.funs, 0
        outside = avail & ~pool
        if outside:
            funs = list(funs)
            for n in _ones(outside):
                got = self.extras.get(n)
                if got is None:
                    got = self.extras[n] = self._walk((self.types[n],),
                                                      self.pool)
                pool |= got[0]
                funs += got[1]
                todo |= got[2]
        return pool, funs, todo

    def _settle(self, cur: int, todo: int, pool: int) -> int:
        """Close ``cur`` under the rules of the types of ``pool``, semi-naive:
        each round examines the types of ``todo`` not yet in ``cur``, and the
        next round those whose rule names a type just added."""
        rules, parents = self.rules, self.parents
        todo &= pool & ~cur
        while todo:
            more = 0
            while todo:
                low = todo & -todo
                todo ^= low
                n = low.bit_length() - 1
                need_all, comps = rules[n]
                if (comps & cur == comps) if need_all else (comps & cur):
                    cur |= low
                    more |= parents.get(n, 0)
            todo = more & pool & ~cur
        return cur

    def inhabited(self, avail: int) -> int:
        """The types with a constructible value given variables of the types
        of ``avail``: the closure of ``avail`` and of what the rules build
        without variables, then ``_fall_back``."""
        got = self.memo.get(avail)
        if got is None:
            pool, funs, todo = self._pool(avail)
            parents = self.parents
            new = avail & pool & ~self.always
            for n in _ones(new):
                todo |= parents.get(n, 0)
            got = self._fall_back(avail, self._settle(self.always | new, todo,
                                                      pool), pool, funs)
        return got

    def _fall_back(self, avail: int, closed: int, pool: int,
                   funs: list) -> int:
        """``closed``, the closure of ``avail``, and each function type whose
        domain is not inhabited here but whose codomain is once a variable of
        the domain is added (while ``avail`` has fewer than five types).  The
        domain is a type of the pool, and so are its subtypes: the query with
        it added has the same pool and starts from ``closed``."""
        cur, parents = closed, self.parents
        if avail.bit_count() < 5:
            for t, dom, cod in funs:
                if cur >> t & 1 or cur >> dom & 1:
                    continue
                # a variable added takes nothing out of the closure
                if not closed >> cod & 1:
                    more = avail | 1 << dom
                    got = self.memo.get(more)
                    if got is None:
                        got = self._fall_back(more, self._settle(
                            closed | 1 << dom, parents.get(dom, 0), pool),
                            pool, funs)
                    if not got >> cod & 1:
                        continue
                cur |= 1 << t
                if t in parents:
                    cur = self._settle(cur, parents[t], pool)
        self.memo[avail] = cur
        return cur


class _Candidates:
    """What the draws over one inhabited set choose from, each list in the
    set's sorted order: the variants ``vmatch`` may scrutinise, the types
    shallower than the depth bound (record components and loop states), and
    per codomain the set's function types within the bound whose domain is
    in the set (``app``'s choices).  ``least_depth`` is the least depth of a
    type in the set."""

    __slots__ = ("variants", "shallow", "funs", "least_depth")

    def __init__(self, cfg: FragmentConfig, ws: list):
        bound = cfg.type_depth
        self.variants = [t for t in ws
                         if isinstance(t, Variant) and vmatch_allowed(cfg, t)]
        self.shallow = [t for t in ws if t._d < bound]
        pos = {t: i for i, t in enumerate(ws)}
        funs: dict = {}
        for t in ws:
            if isinstance(t, Fun) and t._d <= bound and t.dom in pos:
                funs.setdefault(t.cod, []).append(t)
        for group in funs.values():
            group.sort(key=lambda f: pos[f.dom])
        self.funs = funs
        self.least_depth = min((t._d for t in ws), default=None)


class TermGen:
    def __init__(self, table: CbvOperatorTable, rng: random.Random,
                 interp_cap: tuple | None = None):
        """``interp_cap``, a pair ``(model, cap)``, keeps only the universe
        types that ``model`` interprets by at most ``cap`` elements."""
        self.cfg = cfg = table.cfg
        self.table = table
        self.rng = rng
        self.universe = list(types_upto(cfg, min(2, cfg.type_depth)))
        if interp_cap is not None:
            from ..semantics.model import interp_size
            model, cap = interp_cap
            self.universe = [t for t in self.universe
                             if interp_size(t, model, cfg.nat_bound) <= cap]
        self._kernel = _Kernel(cfg, self.universe)
        self._w_memo: dict = {}
        self._ctx_memo: dict = {}
        self._sorted_memo: dict = {}
        self._cand_memo: dict = {}

    # -- inhabitation -------------------------------------------------------

    def inhabited(self, avail: frozenset) -> frozenset:
        """Types with a constructible value given variables of ``avail`` types.

        The pool is the valid subtypes of the universe and of ``avail``.  A
        function type whose domain is not inhabited here is inhabited if its
        codomain is once a variable of the domain is added (while ``avail``
        has fewer than five types)."""
        got = self._w_memo.get(avail)
        if got is None:
            kernel = self._kernel
            got = self._w_memo[avail] = kernel.decode(
                kernel.inhabited(kernel.mask(avail)))
        return got

    def _w(self, ctx: Context) -> frozenset:
        got = self._ctx_memo.get(ctx)
        if got is None:
            got = self._ctx_memo[ctx] = self.inhabited(frozenset(ctx.entries))
        return got

    def _w_sorted(self, arg) -> list:
        w = arg if isinstance(arg, frozenset) else self._w(arg)
        got = self._sorted_memo.get(w)
        if got is None:
            got = sorted(w, key=type_to_label)
            self._sorted_memo[w] = got
        return got

    def _cands(self, w: frozenset) -> _Candidates:
        got = self._cand_memo.get(w)
        if got is None:
            got = self._cand_memo[w] = _Candidates(self.cfg, self._w_sorted(w))
        return got

    # -- contexts -------------------------------------------------------------

    def random_context(self, max_len: int) -> Context:
        k = self.rng.randrange(max_len + 1)
        entries = [self.rng.choice(self.universe) for _ in range(k)]
        if not self.inhabited(frozenset(entries)):
            # the universe's object of the base type, the one the table's
            # sorts name
            base = Base(self.cfg.base_types[0])
            entries.append(next((t for t in self.universe if t == base), base))
        return Context(tuple(entries))

    def random_target(self, ctx: Context) -> Sort:
        w = self._w_sorted(ctx)
        t = self.rng.choice(w)
        return first(t) if self.rng.random() < 0.3 else second(t)

    def random_item(self, ctx_bound: int, depth: int, holes=None,
                    hole_prob=0.0) -> tuple[Context, Term]:
        """One corpus draw: a random context, a random inhabited sort over it,
        then a value or a term of that sort."""
        ctx = self.random_context(ctx_bound)
        target = self.random_target(ctx)
        return ctx, self.random_at(ctx, target, depth, holes, hole_prob)

    def random_at(self, ctx: Context, sort: Sort, depth: int, holes=None,
                  hole_prob=0.0) -> Term:
        """A random value of a first-class sort, or term of a second-class one."""
        if sort.is_first:
            return self.random_value(ctx, sort.ident, depth, holes, hole_prob)
        return self.random_term(ctx, sort.ident, depth, holes, hole_prob)

    def _fill(self, op, ctx: Context, draw, *params) -> Term:
        """The node of ``op`` over ``ctx``: each argument, in order, is
        ``draw(ctx extended by its binder, its sort, *params)``."""
        return Op(op, ctx, [draw(ctx.extend(a.binder), a.sort, *params)
                            for a in op.args])

    def _intro(self, ctx: Context, t: TypeExpr, choose):
        """The introduction operator of a value of ``t`` over ``ctx``, or
        None: ``choose`` picks the literal or the inhabited tag (``rng.choice``
        over ``range(n)`` draws as ``rng.randrange(n)`` does)."""
        if isinstance(t, NatType):
            return self.table.lit(choose(range(self.cfg.nat_bound)))
        if isinstance(t, Fun):
            return self.table.lam(t.dom, t.cod)
        if isinstance(t, Record):
            return self.table.vrec(t.row)
        if isinstance(t, Variant):
            w = self._w(ctx)
            tags = [tag for tag, v in t.row if v in w]
            if tags:
                return self.table.vinj(t.row, choose(tags))
        return None

    # -- minimal fallbacks ----------------------------------------------------

    def _min_at(self, ctx: Context, sort: Sort) -> Term:
        if sort.is_first:
            return self.min_value(ctx, sort.ident)
        return self.min_term(ctx, sort.ident)

    def min_value(self, ctx: Context, t: TypeExpr) -> Term:
        positions = [i for i, e in enumerate(ctx.entries) if e == t]
        if positions:
            return Var(ctx, positions[0])
        op = self._intro(ctx, t, _first)
        if op is None:
            raise ValueError(f"no value of type {t!r} in {ctx!r}")
        return self._fill(op, ctx, self._min_at)

    def min_term(self, ctx: Context, t: TypeExpr) -> Term:
        return self._fill(self.table.val(t), ctx, self._min_at)

    # -- random terms ------------------------------------------------------------

    def can_intro(self, ctx: Context, t: TypeExpr) -> bool:
        """Can a value of this type be built here by an introduction rule
        (rather than by a variable)?"""
        cfg = self.cfg
        if isinstance(t, NatType):
            return cfg.has("naturals")
        if isinstance(t, Fun):
            return (cfg.has("functions")
                    and t.cod in self.inhabited(frozenset(ctx.entries) | {t.dom}))
        w = self._w(ctx)
        if isinstance(t, Record):
            return all(v in w for _, v in t.row)
        if isinstance(t, Variant):
            return self._can_inj(t, w)
        return False

    def random_value(self, ctx: Context, t: TypeExpr, depth: int,
                     holes=None, hole_prob=0.0) -> Term:
        rng = self.rng
        if holes is not None and depth > 0 and rng.random() < hole_prob:
            return self._hole(ctx, first(t), holes, depth)
        positions = [i for i, e in enumerate(ctx.entries) if e == t]
        if depth <= 0:
            if positions:
                return Var(ctx, rng.choice(positions))
            return self.min_value(ctx, t)
        intro_ok = self.can_intro(ctx, t)
        if positions and (not intro_ok or rng.random() < 0.5):
            return Var(ctx, rng.choice(positions))
        if not intro_ok:
            return self.min_value(ctx, t)
        return self._fill(self._intro(ctx, t, rng.choice), ctx, self.random_at,
                          depth - 1, holes, hole_prob)

    def _hole(self, ctx: Context, sort: Sort, holes: dict, depth: int) -> Term:
        rng = self.rng
        w = self._w(ctx)
        compatible = [h for h in holes.values() if h.sort == sort
                      and all(e in w for e in h.ctx.entries)]
        if compatible and rng.random() < 0.4:
            hole = rng.choice(compatible)
        else:
            # the hole's context always carries the hole's own value type, so
            # bodies over it are constructible for any metavariable assignment
            ws = self._w_sorted(w)
            arity = rng.randrange(min(2, len(ws)) + 1) if ws else 0
            hctx = Context((sort.ident,)
                           + tuple(rng.choice(ws) for _ in range(arity)))
            hole = HoleDecl(f"h{len(holes)}", sort, hctx)
            holes[hole.ident] = hole
        env = [self.random_value(ctx, e, max(depth - 1, 0))
               for e in hole.ctx.entries]
        return Meta(hole, ctx, env)

    def random_term(self, ctx: Context, t: TypeExpr, depth: int,
                    holes=None, hole_prob=0.0) -> Term:
        rng = self.rng
        cfg = self.cfg
        table = self.table
        if holes is not None and depth > 0 and rng.random() < hole_prob:
            return self._hole(ctx, second(t), holes, depth)
        if depth <= 0:
            return self.min_term(ctx, t)
        w = self._w(ctx)
        choices = ["val", "val"]
        if cfg.has("sequential"):
            choices.append("let")
        if cfg.has("functions") and depth >= 2:
            choices.append("app")
        if isinstance(t, Record) and all(v in w for _, v in t.row):
            choices.append("rec")
        if cfg.has("records") and depth >= 2:
            choices.append("recmatch")
        if isinstance(t, Variant) and self._can_inj(t, w):
            choices.append("inj")
        if self._vmatchable(w) and depth >= 2:
            choices.append("vmatch")
        if cfg.has("naturals"):
            if t == _MAYBE_NAT:
                choices.append("unroll")
            if isinstance(t, NatType):
                choices.append("roll")
            if self._fits(UNIT._d, t._d):  # maybe_shape(t)
                choices.append("natfold")
        # done_cont_shape(t, s) for the shallowest s of w
        if cfg.has("while") and w and self._fits(t._d, self._cands(w).least_depth):
            choices.append("for")
        if cfg.has("recursion") and depth >= 2:
            choices.append("letrec")
        pick = rng.choice(choices)
        d = depth - 1
        op = None
        if pick == "let":
            # built by hand: each bound type is drawn after the terms before
            # it, so the operator is known only once every binding is; each
            # prefix extends ctx, so the terms share the extensions Op checks
            n = rng.randrange(1, 3)
            inner = ctx
            bound_types, bound_terms = [], []
            for _ in range(n):
                bt = rng.choice(self._w_sorted(inner))
                bound_terms.append(self.random_term(inner, bt, d, holes, hole_prob))
                bound_types.append(bt)
                inner = ctx.extend(Context(tuple(bound_types)))
            body = self.random_term(inner, t, d, holes, hole_prob)
            return Op(table.let(tuple(bound_types), t), ctx,
                      bound_terms + [body])
        if pick == "app":
            funs = self._cands(w).funs.get(t)
            if funs:
                op = table.app(rng.choice(funs).dom, t)
        elif pick == "rec":
            op = table.rec(t.row)
        elif pick == "recmatch":
            row = self._random_row(w)
            if row is not None:
                op = table.recmatch(row, t)
        elif pick == "inj":
            op = table.inj(t.row, rng.choice([tag for tag, v in t.row if v in w]))
        elif pick == "vmatch":
            vt = self._random_variant(w)
            if vt is not None:
                op = table.vmatch(vt.row, t)
        elif pick == "unroll":
            op = table.unroll()
        elif pick == "roll":
            op = table.roll()
        elif pick == "natfold":
            op = table.natfold(t)
        elif pick == "for":
            # the gate admitted t, so a state fits exactly when it is shallow
            op = table.forloop(rng.choice(self._cands(w).shallow), t)
        elif pick == "letrec":
            arity = rng.randrange(0, 2)
            params = tuple(rng.choice(self._w_sorted(w)) for _ in range(arity))
            ret = rng.choice(self._w_sorted(w))
            try:
                op = table.letrec(((params, ret),), t)
            except DepthExceeded:
                pass
        if op is None:
            op = table.val(t)
        return self._fill(op, ctx, self.random_at, d, holes, hole_prob)

    def _fits(self, d1: int, d2: int) -> bool:
        """Is a type former over components of depths ``d1`` and ``d2``
        within the depth bound?"""
        return 1 + max(d1, d2) <= self.cfg.type_depth

    def _can_inj(self, t: Variant, w) -> bool:
        return any(v in w for _, v in t.row)

    def _vmatchable(self, w) -> bool:
        # not a pure test: it draws from the RNG through _random_variant, and
        # every seeded corpus and report digest depends on that draw
        return self._random_variant(w) is not None

    def _random_variant(self, w):
        cands = self._cands(w).variants
        return self.rng.choice(cands) if cands else None

    def _random_row(self, w):
        if not self.cfg.has("records"):
            return None
        pool = self._cands(w).shallow
        if not pool:
            return None
        k = self.rng.randrange(0, 3)
        labels = ("A", "B")
        return tuple((labels[i], self.rng.choice(pool)) for i in range(k))

    # -- substitutions ------------------------------------------------------------

    def random_subst(self, src: Context) -> SubstEnv:
        """A substitution from ``src`` into a shuffled/extended target context,
        each entry a random value of depth 2.

        The target always contains a variable of every source type, so value
        entries exist for any source context."""
        rng = self.rng
        entries = list(src.entries)
        rng.shuffle(entries)
        if entries and rng.random() < 0.5:
            entries.append(rng.choice(entries))
        if rng.random() < 0.3:
            entries.append(rng.choice(self.universe))
        tgt = Context(tuple(entries))
        out = []
        for t in src.entries:
            out.append(self.random_value(tgt, t, 2))
        return SubstEnv(src, tgt, out)


# --- systematic enumeration (for the exhaustive semantic corpora) --------------

class Enumeration:
    """Every term of a sort over a context within a depth bound, read off
    the table's instances at result types up to the fragment's depth: the
    variables of a first-class sort, then for each instance whose result is
    the sort the product of its arguments, each one level shallower over the
    context extended by its binder.  An instance whose binder would take a
    context past ``max_ctx`` is skipped.  The lists are kept until the
    enumeration is dropped."""

    def __init__(self, table: CbvOperatorTable, max_ctx: int):
        cfg = table.cfg
        # result sort -> (instance, the length of its longest binder), in
        # the order ``operators`` lists them
        self.instances: dict = {}
        for op in table.operators(types_upto(cfg, cfg.type_depth)):
            self.instances.setdefault(op.result_sort, []).append(
                (op, max((len(a.binder) for a in op.args), default=0)))
        self.max_ctx = max_ctx
        self._memo: dict = {}

    def at(self, ctx: Context, sort: Sort, depth: int) -> list:
        key = (ctx.entries, sort, depth)
        got = self._memo.get(key)
        if got is not None:
            return got
        out = ([Var(ctx, i) for i, e in enumerate(ctx.entries) if e == sort.ident]
               if sort.is_first else [])
        room = self.max_ctx - len(ctx)
        for op, width in self.instances.get(sort, ()):
            if depth <= 0 or width > room:
                continue
            pools = []
            for a in op.args:  # an empty pool leaves the later ones unbuilt
                pool = self.at(ctx.extend(a.binder), a.sort, depth - 1)
                if not pool:
                    break
                pools.append(pool)
            else:
                out += [Op(op, ctx, args) for args in itertools.product(*pools)]
        self._memo[key] = out
        return out


def enumerate_values(enum: Enumeration, ctx: Context, t: TypeExpr,
                     depth: int) -> list:
    """Every value of the type over the context within the depth bound."""
    return enum.at(ctx, first(t), depth)


def enumerate_terms(enum: Enumeration, ctx: Context, t: TypeExpr,
                    depth: int) -> list:
    """Every term of the type over the context within the depth bound."""
    return enum.at(ctx, second(t), depth)
