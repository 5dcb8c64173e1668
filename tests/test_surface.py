"""Concrete syntax: parsing, diagnostics, and the parse/print round trip."""

import random

import pytest

from substkit.cbv import Base, NAT, config, fun
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.gen import TermGen
from substkit.cbv.surface import (SLet, SurfaceSyntaxError, SVal, SVar, parse,
                                  parse_type, parse_value, pretty)
from substkit.cbv.typecheck import typecheck
from substkit.cbv.types import MAX_NESTING
from substkit.sorts import Context, second

B = Base("b")
FULL = config(("sequential", "functions", "records", "variants", "naturals",
               "while", "recursion"), ("b", "c"), nat_bound=4, type_depth=3)


def test_val_single_production():
    s = parse("val x")
    assert isinstance(s, SVal) and isinstance(s.value, SVar)
    assert s.value.name == "x"


def test_sequencing_form_round_trips():
    table = CbvOperatorTable(config(("sequential",)))
    src = "let y = val x0; z = val y in val z"
    t = typecheck(parse(src), Context((B,)), second(B), config(("sequential",)),
                  table)
    printed = pretty(t, table)
    t2 = typecheck(parse(printed), Context((B,)), second(B),
                   config(("sequential",)), table)
    assert t2 == t


def test_syntax_error_carries_position():
    with pytest.raises(SurfaceSyntaxError) as info:
        parse("let x = in val x")
    assert "position" in str(info.value)
    with pytest.raises(SurfaceSyntaxError):
        parse_value("fn x b . val x")


# each input nests ``n`` levels: a type level per arrow, and a term level per
# application on top of the function's term and value
NESTED = {
    "arrows": lambda n: parse_type(" -> ".join(["b"] * n)),
    "applications": lambda n: parse("(val f)" + " (val x)" * (n - 3)),
    "value parentheses": lambda n: parse_value("(" * (n - 1) + "x" + ")" * (n - 1)),
}


@pytest.mark.parametrize("case", NESTED)
def test_nesting_bound_is_exact(case):
    NESTED[case](MAX_NESTING)
    with pytest.raises(ValueError, match=f"nesting deeper than {MAX_NESTING} levels"):
        NESTED[case](MAX_NESTING + 1)


def test_comments_and_whitespace():
    s = parse("-- a comment\nval x  -- trailing\n")
    assert isinstance(s, SVal)


def test_round_trip_corpus_50_programs():
    """Printing then reparsing and rechecking yields the identical term."""
    rng = random.Random(99)
    table = CbvOperatorTable(FULL)
    gen = TermGen(FULL, table, rng)
    done = 0
    while done < 50:
        ctx = gen.random_context(2)
        target = gen.random_target(ctx)
        if target.is_first:
            term = gen.random_value(ctx, target.ident, 3)
        else:
            term = gen.random_term(ctx, target.ident, 3)
        text = pretty(term, table)
        back = typecheck(parse(text) if not target.is_first
                         else parse_value(text), ctx, target, FULL, table)
        assert back == term, text
        done += 1


def test_pretty_rejects_holes():
    from substkit.terms import HoleDecl, Meta
    from substkit.sorts import second as snd
    table = CbvOperatorTable(FULL)
    hole = HoleDecl("h", snd(B), Context(()))
    with pytest.raises(ValueError):
        pretty(Meta(hole, Context(()), ()), table)
