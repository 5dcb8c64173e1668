"""Shared toy signature, random-term helpers, a clause mutant, renamings as
substitutions and the eager reference fold for the test suites."""

import itertools
import os
import random
from pathlib import Path

import pytest

from substkit.semantics import checks
from substkit.semantics.denote import Interpreter
from substkit.semantics.model import Denotation, context_space
from substkit.signatures import (At, Coproduct, Hole, OnlyAt, Product, Shift,
                                 flatten, route_environment)
from substkit.sorts import Context, Renaming, SortingSystem, first, second
from substkit.terms import HoleDecl, Meta, Op, SubstEnv, Var

# A miniature two-sort calculus: values and computations at sorts v (base)
# and arrow (functions), enough to exercise binders, permutation, weakening.
# Each toy operator is a summand of one flattened signature, so its sorts pass
# flatten's membership checks.
TOY_SYS = SortingSystem(("v", "arrow"), ("v", "arrow"))

TOY = flatten(Coproduct((
    *((f"val.{s}", OnlyAt(second(s), At(first(s), Hole())))
      for s in ("v", "arrow")),
    ("lam", OnlyAt(first("arrow"),
                   At(second("v"), Shift(Context(["v"]), Hole())))),
    ("app", OnlyAt(second("v"), Product((At(second("arrow"), Hole()),
                                         At(second("v"), Hole()))))),
    ("let", OnlyAt(second("v"), Product((
        At(second("v"), Hole()),
        At(second("v"), Shift(Context(["v"]), Hole())))))),
)), TOY_SYS)

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """The environment for a child interpreter: this checkout's ``src`` goes
    first on ``PYTHONPATH``, so the child imports the substkit under test even
    when the checkout is not installed."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture
def corrupt_clause(monkeypatch):
    """``corrupt_clause(family)`` makes ``check_compatibility`` interpret with
    one deliberately wrong clause: the family's denotation answers every point
    of its context as it does at the first point."""
    def patch(family: str) -> None:
        class Corrupted(Interpreter):
            def alg(self, op, values, ctx):
                out = super().alg(op, values, ctx)
                if op.family != family:
                    return out
                space = context_space(ctx, self.m, self.cfg.nat_bound)
                fixed = tuple(next(iter(s)) for s in space.components)
                return Denotation(out.sort, out.ctx, out.m, out.nat_bound,
                                  lambda point: out.at(fixed))
        monkeypatch.setattr(checks, "Interpreter", Corrupted)
    return patch


def swap_first_pair(rho: Renaming) -> Renaming:
    """``rho`` with the images of the first two same-typed positions of
    ``rho.target`` swapped: still well-sorted, but a different renaming
    whenever those images differ."""
    entries = rho.target.entries
    mapping = list(rho.mapping)
    same = [(i, j) for j in range(len(entries)) for i in range(j)
            if entries[i] == entries[j]]
    if same:
        i, j = same[0]
        mapping[i], mapping[j] = mapping[j], mapping[i]
    return Renaming(rho.source, rho.target, mapping)


def env_of_renaming(rho: Renaming) -> SubstEnv:
    """Renaming as a substitution: each target-indexed position becomes a variable."""
    return SubstEnv(rho.target, rho.source,
                    tuple(Var(rho.source, rho.mapping[y]) for y in range(len(rho.target))))


def reference_fold(t, alg_ops, alg_hole, env, out_ctx: Context, hooks):
    """The fold as it was before routing became lazy: under every binder,
    ``route_environment`` acts on every entry along the first projection.
    The algebras must be callables."""
    if type(t) is Var:
        return env[t.index]
    if type(t) is Op:
        values = []
        for arg, decl in zip(t.args, t.op.args):
            child_ctx, child_env = route_environment(decl.binder, out_ctx, env, hooks)
            values.append(reference_fold(arg, alg_ops, alg_hole, child_env,
                                         child_ctx, hooks))
        return alg_ops(t.op, values, out_ctx)
    values = [reference_fold(e, alg_ops, alg_hole, env, out_ctx, hooks) for e in t.env]
    return alg_hole(t.hole, values, out_ctx)


def all_renamings(src: Context, tgt: Context):
    pools = [[i for i, e in enumerate(src.entries) if e == s] for s in tgt.entries]
    for mapping in itertools.product(*pools):
        yield Renaming(src, tgt, mapping)


def contexts_upto(sorts, n):
    out = []
    for k in range(n + 1):
        out.extend(Context(c) for c in itertools.product(sorts, repeat=k))
    return out


def random_toy_term(rng: random.Random, ctx: Context, sort, depth: int,
                    holes=None, hole_prob=0.0):
    """A random well-sorted toy term; ``holes`` is a mutable ident->HoleDecl map."""
    if holes is not None and rng.random() < hole_prob and depth > 0:
        # hole contexts keep a base-sorted entry so bodies are always buildable
        pool = ["v", *ctx.entries]
        hctx = Context(["v"] + [rng.choice(pool) for _ in range(rng.randrange(2))])
        ident = f"h{len(holes)}_{rng.randrange(1000)}"
        hole = HoleDecl(ident, sort, hctx)
        holes[ident] = hole
        env = [random_toy_term(rng, ctx, first(s), max(depth - 1, 0), holes, hole_prob / 2)
               for s in hctx.entries]
        return Meta(hole, ctx, env)
    if sort.is_first:
        positions = [i for i, e in enumerate(ctx.entries) if e == sort.ident]
        if sort.ident == "arrow" and (not positions or (depth > 0 and rng.random() < 0.6)):
            inner = Context(ctx.entries + ("v",))
            body = random_toy_term(rng, inner, second("v"), max(depth - 1, 0),
                                   holes, hole_prob)
            return Op(TOY["lam"], ctx, [body])
        if not positions:
            raise RuntimeError(f"no value of sort {sort.ident!r} in {ctx!r}")
        return Var(ctx, rng.choice(positions))
    # second-class sorts
    choices = ["val"]
    if depth > 0 and sort.ident == "v":
        choices += ["app", "let"]
    pick = rng.choice(choices)
    if pick == "app":
        f = random_toy_term(rng, ctx, second("arrow"), depth - 1, holes, hole_prob)
        a = random_toy_term(rng, ctx, second("v"), depth - 1, holes, hole_prob)
        return Op(TOY["app"], ctx, [f, a])
    if pick == "let":
        bound = random_toy_term(rng, ctx, second("v"), depth - 1, holes, hole_prob)
        inner = Context(ctx.entries + ("v",))
        body = random_toy_term(rng, inner, second("v"), depth - 1, holes, hole_prob)
        return Op(TOY["let"], ctx, [bound, body])
    v = random_toy_term(rng, ctx, first(sort.ident), max(depth - 1, 0), holes, hole_prob)
    return Op(TOY[f"val.{sort.ident}"], ctx, [v])


def random_toy_env(rng: random.Random, source: Context, target: Context,
                   depth=2) -> SubstEnv:
    entries = [random_toy_term(rng, target, first(s), depth) for s in source.entries]
    return SubstEnv(source, target, entries)


def random_toy_context(rng: random.Random, max_len=3) -> Context:
    # always keep one base-sorted variable in scope so every toy sort is inhabited
    extra = [rng.choice(("v", "arrow")) for _ in range(rng.randrange(max_len))]
    entries = ["v"] + extra
    rng.shuffle(entries)
    return Context(entries)


@pytest.fixture
def rng():
    return random.Random(20240811)
