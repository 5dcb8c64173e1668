"""What the value classes show of themselves: reprs, hashes, equality,
immutability, copies and validation messages.

Reprs appear in ``Context`` reprs, ``IllSorted`` and ``NotFlattenable``
messages and check records; hashes set the iteration order of every set and
dict of types, so each must keep its exact formula."""

import copy
import pickle

import pytest

from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.types import (NAT, UNIT, Base, FragmentConfig, Fun, NatType,
                                Record, Variant, config, fun, record,
                                type_depth, type_to_label, type_to_str,
                                types_upto, valid_type, variant)
from substkit.report import CheckRecord
from substkit.signatures import (Argument, At, Coproduct, Hole, NotFlattenable,
                                 OnlyAt, Product, Restrict, Shift, flatten)
from substkit.sorts import Context, SortingSystem, first, second
from substkit.terms import HoleDecl, IllSorted, Var

B = Base("b")
V = first("v")
SYS = SortingSystem(("v",), ("v",))


def _operator():
    table = CbvOperatorTable(config(("functions", "naturals"), ("b",)))
    return table.lam(B, fun(B, NAT))


def test_reprs_keep_the_field_text():
    assert repr(Fun(B, NAT)) == "Fun(dom=Base(name='b'), cod=NatType())"
    assert repr(record((("A", B), ("B", fun(B, B))))) == (
        "Record(row=(('A', Base(name='b')), "
        "('B', Fun(dom=Base(name='b'), cod=Base(name='b')))))")
    assert repr(variant((("A", UNIT),))) == "Variant(row=(('A', Record(row=())),))"
    assert repr(HoleDecl("h0", first(B), Context((B,)))) == (
        "HoleDecl(ident='h0', sort=Fst(Base(name='b')), ctx=Context[Base(name='b')])")
    assert repr(CheckRecord("term-laws", "left unit", "fail", "item 3")) == (
        "CheckRecord(suite='term-laws', name='left unit', status='fail', "
        "witness='item 3')")
    assert repr(_operator()) == "Operator('lam<b;(b→Nat)>')"


def test_ill_sorted_message_shows_type_reprs():
    with pytest.raises(IllSorted) as info:
        Var(Context((fun(B, B),)), 2)
    assert str(info.value) == ("variable 2 out of range for "
                               "Context[Fun(dom=Base(name='b'), cod=Base(name='b'))]")


@pytest.mark.parametrize("expr,message", [
    (Coproduct((("lam", OnlyAt(second("v"), Product((
        At(V, Shift(Context(("v",)), Product((Hole(),)))),)))),)),
     "argument not of the form (shift? hole) at a sort: At(sort=Fst('v'), "
     "inner=Shift(binder=Context['v'], inner=Product(factors=(Hole(),))))"),
    (Coproduct((("app", At(V, Hole())),)),
     "summand 'app' is not OnlyAt-wrapped: At(sort=Fst('v'), inner=Hole())"),
    (Restrict(Context(()), Coproduct(())),
     "restriction is not flattenable: Restrict(along=Context[], "
     "inner=Coproduct(summands=()))"),
    (Coproduct((OnlyAt(V, Hole()),)),
     "not a labelled summand: OnlyAt(sort=Fst('v'), inner=Hole())"),
])
def test_not_flattenable_messages_show_combinator_reprs(expr, message):
    with pytest.raises(NotFlattenable) as info:
        flatten(expr, SYS)
    assert str(info.value) == message


def test_hashes_keep_the_field_tuple_formula():
    ctx, s = Context(("v",)), second("v")
    assert hash(Argument(ctx, s)) == hash((ctx, s))
    op = _operator()
    assert hash(op) == hash((op.label, op.result_sort, op.args))
    hole = HoleDecl("h", s, ctx)
    assert hash(hole) == hash(("h", s, ctx))
    rec = CheckRecord("s", "n", "pass", None)
    assert hash(rec) == hash(("s", "n", "pass", None))
    cfg = config(("records",), ("b", "c"), 4, 2)
    assert hash(cfg) == hash((frozenset({"records"}), ("b", "c"), 4, 2))
    row = (("A", B),)
    assert hash(B) == hash(("B", "b"))
    assert hash(Fun(B, NAT)) == hash(("F", B, NAT))
    assert hash(Record(row)) == hash(("R", row))
    assert hash(Variant(row)) == hash(("V", row))
    assert hash(NatType()) == hash("NatType")


def test_equality_is_by_class_and_fields():
    ctx, s = Context(("v",)), second("v")
    row = (("A", B),)
    assert Record(row) != Variant(row) and Variant(row) != Record(row)
    assert NatType() != Base("Nat") and NatType() == NAT
    assert Fun(B, B) == Fun(Base("b"), Base("b")) and Fun(B, B) != Fun(B, NAT)
    assert Argument(ctx, s) == Argument(Context(("v",)), s)
    assert Argument(ctx, s) != (ctx, s)
    assert CheckRecord("s", "n", "pass", None) != ("s", "n", "pass", None)
    assert HoleDecl("h", s, ctx) != ("h", s, ctx)
    assert config(("records",)) == config(("records",))
    assert config(("records",)) != config(("records",), nat_bound=4)
    assert config(()) != ((), ("b",), 8, 3)
    op = _operator()
    assert op != op.label and op == copy.copy(op)
    assert not (B == "b") and B != "b"


@pytest.mark.parametrize("obj,field", [
    (B, "name"), (Fun(B, B), "dom"), (Record(()), "row"), (Variant(()), "row"),
    (NAT, "_h"), (config(()), "nat_bound"), (Argument(Context(()), V), "sort"),
    (HoleDecl("h", V, Context(())), "ident"),
    (CheckRecord("s", "n", "pass", None), "status"),
    (SYS, "fst_sorts"), (Hole(), "inner"), (At(V, Hole()), "inner"),
    (OnlyAt(V, Hole()), "sort"), (Shift(Context(()), Hole()), "binder"),
    (Product(()), "factors"), (Coproduct(()), "summands"),
    (Restrict(None, Hole()), "along"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_frozen_classes_refuse_assignment(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, None)


def test_operator_refuses_assignment():
    with pytest.raises(AttributeError):
        _operator().label = "other"


@pytest.mark.parametrize("make", [
    lambda: record((("A", fun(B, NAT)), ("B", variant((("A", UNIT),))))),
    lambda: NatType(),
    lambda: config(("records", "naturals"), ("b", "c"), 4, 2),
    _operator,
    lambda: HoleDecl("h", second(fun(B, B)), Context((B, fun(B, B)))),
], ids=["type", "nat", "config", "operator", "hole"])
@pytest.mark.parametrize("trip", [copy.deepcopy,
                                  lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_round_trips_compare_equal(make, trip):
    obj = make()
    got = trip(obj)
    assert got == obj and hash(got) == hash(obj)
    assert type(got) is type(obj)


def test_round_tripped_types_and_configs_keep_what_they_derive():
    t = record((("A", fun(B, NAT)),))
    got = pickle.loads(pickle.dumps(t))
    assert type_depth(got) == type_depth(t) == 3
    assert type_to_str(got) == "{A: b -> Nat}" and type_to_label(got) == "{A:(b→Nat)}"
    cfg = config(("functions", "naturals"), ("b",))
    types_upto(cfg, 2)
    for trip in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        twin = trip(cfg)
        assert types_upto(twin, 2) == types_upto(cfg, 2)
        assert valid_type(fun(B, NAT), twin)


@pytest.mark.parametrize("args,message", [
    ((frozenset({"loops"}), ("b",), 8, 3), "unknown extensions ['loops']"),
    ((frozenset(), (), 8, 3), "at least one base type is required"),
    ((frozenset(), ("b", "b"), 8, 3), "base_types contains duplicates: ('b', 'b')"),
    ((frozenset(), ("b",), 0, 3), "bounds must be positive"),
    ((frozenset(), ("b",), 8, 0), "bounds must be positive"),
])
def test_fragment_config_validation_messages(args, message):
    with pytest.raises(ValueError) as info:
        FragmentConfig(*args)
    assert str(info.value) == message


def test_sorting_system_validation_message():
    with pytest.raises(ValueError) as info:
        SortingSystem(("v",), ("w", "w"))
    assert str(info.value) == "snd_sorts contains duplicates: ('w', 'w')"
