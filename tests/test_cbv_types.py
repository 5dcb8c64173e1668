"""Fragment-gated type formation, typing needs, enumeration, type syntax."""

import copy
import gc
import pickle
import random
import weakref

import pytest

from substkit.cbv.gen import TermGen
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.surface import parse_type
from substkit.cbv.types import (Base, NAT, UNIT, all_fragment_configs, config,
                                done_cont_shape, fun, maybe_shape,
                                record, type_depth, type_to_label, type_to_str,
                                types_upto, valid_type, variant)

B = Base("b")


def test_base_only_config():
    cfg = config(())
    assert valid_type(B, cfg)
    assert not valid_type(NAT, cfg)
    assert not valid_type(fun(B, B), cfg)
    assert not valid_type(record((("A", B),)), cfg)


def test_duplicate_base_types_are_refused():
    """Two equal base types would make a configuration distinct from the one
    with a single copy but with the same universe."""
    with pytest.raises(ValueError, match="base_types contains duplicates"):
        config((), ("b", "b"))
    assert config((), ("b", "c")).base_types == ("b", "c")


def test_functions_config():
    cfg = config(("functions",))
    assert valid_type(fun(B, fun(B, B)), cfg)
    assert not valid_type(variant((("A", B),)), cfg)


def test_naturals_fused_shapes():
    cfg = config(("naturals",))
    assert valid_type(NAT, cfg)
    assert valid_type(UNIT, cfg)
    assert valid_type(maybe_shape(NAT), cfg)
    assert valid_type(maybe_shape(maybe_shape(B)), cfg)
    # general rows stay out
    assert not valid_type(variant((("A", B),)), cfg)
    assert not valid_type(record((("A", B),)), cfg)


def test_while_fused_shape():
    cfg = config(("while",))
    assert valid_type(done_cont_shape(B, B), cfg)
    assert not valid_type(variant((("A", B), ("Z", B))), cfg)


def test_recursion_fused_function_types():
    cfg = config(("recursion",))
    t = fun(record((("0", B), ("1", B))), B)
    assert valid_type(t, cfg)
    # the context-row record itself is a type (it types call arguments)
    assert valid_type(record((("0", B),)), cfg)
    # general function types and non-context-labelled rows stay out
    assert not valid_type(fun(B, B), cfg)
    assert not valid_type(record((("A", B),)), cfg)
    assert not valid_type(fun(record((("A", B),)), B), cfg)


@pytest.mark.parametrize("exts, t, valid", [
    (("naturals",), UNIT, True),
    (("naturals",), NAT, True),
    (("naturals",), maybe_shape(B), True),
    (("naturals",), done_cont_shape(B, B), False),
    (("recursion", "functions", "records"), fun(record((("0", B), ("1", B))), B), True),
    ((), UNIT, False),
])
def test_typing_needs_are_valid_types_exactly_where_a_fragment_provides_them(exts, t, valid):
    assert valid_type(t, config(exts)) == valid


def test_all_fragment_configs_count():
    configs = all_fragment_configs()
    assert len(configs) == 128
    assert len({c.extensions for c in configs}) == 128


def test_universe_types_are_valid():
    for cfg in (config(("functions", "records")), config(("naturals", "while"))):
        for t in types_upto(cfg, 2):
            assert valid_type(t, cfg)
            assert type_depth(t) <= 2


@pytest.mark.parametrize("exts", [("functions",), ("sequential", "functions"),
                                  ("records", "variants"), ("naturals", "while"),
                                  ("recursion",)])
def test_universes_share_their_type_objects(exts):
    """A universe extends the one a depth below with the same type objects,
    so the exhaustive corpus, whose contexts range over depth 2 and whose
    operators over the fragment's depth, compares its types by identity."""
    cfg = config(exts)
    deeper = {t: t for t in types_upto(cfg, 3)}
    assert all(deeper[t] is t for t in types_upto(cfg, 2))


def test_type_table_is_freed_with_its_config():
    """The enumeration is owned by the configuration: a generator that has
    drawn over it keeps nothing alive once both are gone, without the cycle
    collector."""
    cfg = config(("functions", "records"), nat_bound=5)
    gen = TermGen(CbvOperatorTable(cfg), random.Random(0))
    assert gen.universe == list(types_upto(cfg, 2))
    for _ in range(10):
        gen.random_subst(gen.random_item(3, 4, holes={}, hole_prob=0.2)[0])
    ref = weakref.ref(cfg)
    gc.disable()
    try:
        del cfg, gen
        assert ref() is None
    finally:
        gc.enable()


def test_row_label_dedup():
    with pytest.raises(ValueError):
        record((("A", B), ("A", B)))


def test_type_syntax_round_trip():
    samples = [B, NAT, fun(B, fun(B, B)), fun(fun(B, B), B),
               record((("A", B), ("B", fun(B, B)))),
               variant((("0", UNIT), ("1+", NAT))),
               done_cont_shape(NAT, record(()))]
    for t in samples:
        assert parse_type(type_to_str(t)) == t
        assert parse_type(type_to_label(t)) == t


def test_renderings_are_stored_on_the_type_and_rebuilt_in_copies():
    t = fun(record((("A", B), ("B", NAT))), variant((("0", UNIT), ("1+", B))))
    label, text = type_to_label(t), type_to_str(t)
    assert type_to_label(t) is label and type_to_str(t) is text
    for u in (copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert u == t and hash(u) == hash(t) and type_depth(u) == type_depth(t)
        assert (type_to_label(u), type_to_str(u)) == (label, text)


def test_label_form_is_bracket_balanced():
    t = fun(variant((("0", UNIT), ("1+", fun(B, B)))), B)
    label = type_to_label(t)
    assert "->" not in label
    for open_, close in (("(", ")"), ("{", "}"), ("<", ">")):
        assert label.count(open_) == label.count(close)
