"""Bidirectional elaboration: rule examples, diagnostics, determinism."""

import pytest

from substkit.cbv import Base, NAT, config, fun, maybe_shape
from substkit.cbv.ops import CbvOperatorTable, DisabledConstruct
from substkit.cbv.gen import TermGen
from substkit.cbv.surface import parse, parse_value, pretty
from substkit.cbv.typecheck import (ArityMismatch, SortMismatch, UnknownVariable,
                                    synthesize, typecheck)
from substkit.sorts import Context, first, second
from substkit.terms import Op, Var

B = Base("b")


def test_variable_rule():
    cfg = config(())
    t = typecheck(parse_value("x0"), Context((B,)), first(B), cfg)
    assert t == Var(Context((B,)), 0)


def test_val_rule():
    cfg = config(())
    ctx = Context((B,))
    t = typecheck(parse("val x0"), ctx, second(B), cfg)
    table = CbvOperatorTable(cfg)
    assert t == Op(table.val(B), ctx, [Var(ctx, 0)])


def test_abstraction_rule():
    cfg = config(("functions",))
    ctx, inner = Context((B,)), Context((B, B))
    t = typecheck(parse_value("fn x: b . val x"), ctx, first(fun(B, B)), cfg)
    table = CbvOperatorTable(cfg)
    assert t == Op(table.lam(B, B), ctx,
                   [Op(table.val(B), inner, [Var(inner, 1)])])


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        typecheck(parse("val nope"), Context(()), second(B), config(()))


def test_sort_mismatch_reports_both_sides():
    cfg = config(("functions",))
    with pytest.raises(SortMismatch) as info:
        typecheck(parse("val x0"), Context((fun(B, B),)), second(B), cfg)
    assert "expected" in str(info.value) and "position" in str(info.value)


def test_disabled_construct():
    with pytest.raises(DisabledConstruct):
        typecheck(parse("let y = val x0 in val y"), Context((B,)), second(B),
                  config(()))


def test_arity_mismatch_on_patterns():
    cfg = config(("records",))
    src = "case (val {A = x0}) of {A = u, B = w} in val u"
    with pytest.raises(ArityMismatch):
        typecheck(parse(src), Context((B,)), second(B), cfg)


def test_fold_requires_checking_context():
    cfg = config(("naturals",), nat_bound=4)
    with pytest.raises(SortMismatch):
        synthesize(parse("fold (val 1) a . val 0"), Context(()), cfg)
    t = typecheck(parse("fold (val 1) a . val 0"), Context(()), second(NAT), cfg)
    assert t.op.label == "natfold<Nat>"


def test_shadowing_resolves_to_nearest():
    cfg = config(("sequential",))
    src = "let x0 = val x0 in val x0"
    ctx, inner = Context((B,)), Context((B, B))
    t = typecheck(parse(src), ctx, second(B), cfg)
    table = CbvOperatorTable(cfg)
    # the body's x0 is the let-bound one at position 1
    assert t == Op(table.let((B,), B), ctx,
                   [Op(table.val(B), ctx, [Var(ctx, 0)]),
                    Op(table.val(B), inner, [Var(inner, 1)])])


def test_typechecking_deterministic():
    cfg = config(("sequential", "functions"))
    src = "let f = val (fn y: b . val y) in (val f) (val x0)"
    ctx = Context((B,))
    a = typecheck(parse(src), ctx, second(B), cfg)
    b = typecheck(parse(src), ctx, second(B), cfg)
    assert a == b


def test_fragment_monotonicity():
    """A term typable in a config stays typable when extensions are added."""
    import random
    from substkit.cbv import all_fragment_configs, EXTENSIONS
    rng = random.Random(4)
    for cfg in all_fragment_configs(("b",), nat_bound=4)[::12]:
        table = CbvOperatorTable(cfg)
        gen = TermGen(cfg, table, rng)
        ctx = gen.random_context(2)
        target = gen.random_target(ctx)
        term = (gen.random_value(ctx, target.ident, 3) if target.is_first
                else gen.random_term(ctx, target.ident, 3))
        missing = [e for e in EXTENSIONS if not cfg.has(e)]
        if not missing:
            continue
        bigger = config(tuple(cfg.extensions) + (rng.choice(missing),),
                        cfg.base_types, cfg.nat_bound, cfg.type_depth)
        text = pretty(term, table)
        surface = parse_value(text) if target.is_first else parse(text)
        again = typecheck(surface, ctx, target, bigger)
        assert again == term
