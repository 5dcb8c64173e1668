"""Types are hash-consed: every way of making a type returns the one live
object of its class and fields, and the table of live types keeps none of
them alive.  A type therefore hashes by its address, so the order of a set
of types changes from run to run; what reaches output is sorted on a key
that is total on the types involved, or numbered in a fixed order."""

import copy
import gc
import pickle
import random
import sys
import weakref

import pytest

from substkit.cbv import types
from substkit.cbv.gen import TermGen
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.types import (NAT, UNIT, Base, Fun, NatType, Record, Variant,
                                all_fragment_configs, config, done_cont_shape,
                                fun, maybe_shape, record, type_depth,
                                type_to_label, type_to_str, types_upto,
                                variant)

B, C = Base("b"), Base("c")


@pytest.mark.parametrize("make", [
    lambda: Base("b"),
    lambda: Fun(Base("b"), NatType()),
    lambda: Record((("A", Base("b")), ("B", NAT))),
    lambda: Variant((("A", Fun(B, B)),)),
    NatType,
    lambda: record((("A", B), ("B", fun(B, C)))),
    lambda: variant((("A", record(())),)),
    lambda: fun(record((("0", B),)), B),
    lambda: maybe_shape(fun(B, B)),
    lambda: done_cont_shape(B, NAT),
], ids=["Base", "Fun", "Record", "Variant", "NatType", "record", "variant",
        "fun", "maybe_shape", "done_cont_shape"])
def test_every_constructor_call_gives_the_one_object(make):
    assert make() is make()


def test_the_constructor_paths_of_one_type_meet():
    assert NatType() is NAT and Record(()) is UNIT and record(()) is UNIT
    assert fun(B, C) is Fun(B, C)
    assert record((("B", C), ("A", B))) is record((("A", B), ("B", C))) \
        is Record((("A", B), ("B", C)))
    assert variant((("B", C), ("A", B))) is Variant((("A", B), ("B", C)))
    assert maybe_shape(B) is variant((("1+", B), ("0", UNIT)))
    assert done_cont_shape(B, C) is variant((("Done", B), ("Cont", C)))
    assert Record((("A", B),)) is not Variant((("A", B),))


@pytest.mark.parametrize("trip", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_and_unpickles_are_the_interned_object(trip):
    for t in (B, NAT, UNIT, fun(B, C), maybe_shape(fun(B, NAT)),
              record((("A", variant((("A", B),))), ("B", C)))):
        assert trip(t) is t
    t = fun(B, record((("A", C),)))
    assert trip([t, (t, 1)])[1][0] is t


def test_the_table_of_live_types_keeps_nothing_alive():
    """A type nobody holds is freed at ``del`` by reference counting, its
    entry leaves the table, and its components are let go of."""
    comp = Base("held_only_by_the_interning_test")
    held = sys.getrefcount(comp)
    live = len(types._live)
    gc.disable()
    try:
        t = fun(comp, record((("A", comp),)))
        ref = weakref.ref(t)
        assert len(types._live) == live + 2
        del t
        assert ref() is None
        assert len(types._live) == live
        assert sys.getrefcount(comp) == held
    finally:
        gc.enable()


def test_the_depth_two_universes_share_their_type_objects():
    universes = [types_upto(cfg, 2) for cfg in all_fragment_configs(("b", "c"))]
    assert sum(map(len, universes)) == 4408
    assert len({id(t) for u in universes for t in u}) == 84


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("bases", [("b",), ("b", "c")], ids=["b", "b,c"])
def test_universe_order_is_total_on_its_types(bases, depth):
    """``types_upto`` sorts a set by depth and rendering: no two of its types
    share that key, so its order never follows the set's."""
    for cfg in all_fragment_configs(bases):
        keys = [(type_depth(t), type_to_str(t)) for t in types_upto(cfg, depth)]
        assert keys == sorted(set(keys)), cfg.name()


def test_the_inhabitation_kernel_numbers_a_set_by_label():
    """A kernel numbers the types it first meets in a set by their labels,
    so its numbering, and the order its fallback tries function types in,
    does not follow the set's order."""
    cfg = config(("functions", "records"), ("b", "c"))
    kernel = TermGen(CbvOperatorTable(cfg), random.Random(0))._kernel
    new = [fun(fun(fun(x, y), B), C) for x in (B, C) for y in (B, C)]
    known = len(kernel.types)
    kernel.mask(frozenset(new) | {B})
    assert kernel.types[known:] == sorted(new, key=type_to_label)
