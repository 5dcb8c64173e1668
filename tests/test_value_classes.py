"""What the value classes show of themselves: reprs, hashes, equality,
immutability, copies and validation messages; and that ``sorts.Value`` is
the one way ``src/`` writes an immutable class.

Reprs appear in ``Context`` reprs, ``IllSorted`` and ``NotFlattenable``
messages and check records.  A type is the one object of its fields, so it
hashes and compares as an object; the other hashed classes keep their
field-tuple formula."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.surface import SVar
from substkit.cbv.types import (NAT, UNIT, Base, FragmentConfig, Fun, NatType,
                                Record, Variant, config, fun, record,
                                type_depth, type_to_label, type_to_str,
                                types_upto, valid_type, variant)
from substkit.report import CheckRecord
from substkit.signatures import (Argument, At, Coproduct, Hole, NotFlattenable,
                                 OnlyAt, Product, Restrict, Shift, flatten)
from substkit.sorts import Context, Renaming, SortingSystem, first, second
from substkit.terms import HoleDecl, IllSorted, SubstEnv, Var

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
    assert repr(Argument(Context(()), second("v"))) == (
        "Argument(binder=Context[], sort=Snd('v'))")
    assert repr(SYS) == "SortingSystem(fst_sorts=('v',), snd_sorts=('v',))"


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
    # a sort is a pair, but not a (label, expr) one
    (Coproduct((V,)), "not a labelled summand: Fst('v')"),
    (V, "not a labelled summand: Fst('v')"),
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
    # a type is the one object of its fields: hash and eq are object's
    row = (("A", B),)
    for t in (B, Fun(B, NAT), Record(row), Variant(row), NatType()):
        assert type(t).__hash__ is object.__hash__
        assert type(t).__eq__ is object.__eq__


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


def test_equal_values_over_distinct_contexts_compare_and_hash_alike():
    """Substitutions and renamings compare and hash as their field tuples,
    so equal ones over equal but distinct contexts are one key."""
    src, tgt = Context((B,)), Context((B, B))
    src2, tgt2 = Context((B,)), Context((B, B))
    one = SubstEnv(src, tgt, (Var(tgt, 1),))
    two = SubstEnv(src2, tgt2, (Var(tgt2, 1),))
    assert src is not src2 and tgt is not tgt2
    assert one == two and hash(one) == hash(two)
    assert hash(one) == hash((src, tgt, one.entries))
    assert one != SubstEnv(src, tgt, (Var(tgt, 0),))
    assert len({one, two, SubstEnv(Context(()), Context(()), ())}) == 2
    rho, rho2 = Renaming(tgt, src, (1,)), Renaming(tgt2, src2, (1,))
    assert rho == rho2 and hash(rho) == hash(rho2)
    assert hash(rho) == hash((tgt, src, (1,)))
    assert rho != Renaming(tgt, src, (0,))


@pytest.mark.parametrize("obj,field", [
    (B, "name"), (Fun(B, B), "dom"), (Record(()), "row"), (Variant(()), "row"),
    (NAT, "_d"), (config(()), "nat_bound"), (Argument(Context(()), V), "sort"),
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
    lambda: Renaming(Context(("b", "b")), Context(("b",)), (1,)),
], ids=["type", "nat", "config", "operator", "hole", "renaming"])
@pytest.mark.parametrize("trip", [copy.copy, copy.deepcopy,
                                  lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
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


def test_the_base_checks_the_argument_count():
    with pytest.raises(TypeError) as info:
        Hole(1)
    assert str(info.value) == "Hole takes 0 arguments (), got 1"
    with pytest.raises(TypeError) as info:
        At(V)
    assert str(info.value) == "At takes 2 arguments (sort, inner), got 1"
    # a type keeps no half-built or over-full object in its live table
    for fields in ((B,), (B, B, B)):
        with pytest.raises(TypeError) as info:
            Fun(*fields)
        assert str(info.value) == (f"Fun takes 2 arguments (dom, cod), "
                                   f"got {len(fields)}")


@pytest.mark.parametrize("make,field", [
    (lambda: Context(("b",)), "entries"),
    (lambda: Var(Context(("b",)), 0), "index"),
    (lambda: Argument(Context(()), V), "sort"),
    (lambda: Base("fresh"), "name"),
    (lambda: SVar("x", 3), "pos"),
], ids=["context", "var", "argument", "type", "surface"])
def test_value_classes_refuse_deletion(make, field):
    obj = make()
    kept = getattr(obj, field)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) == kept


def test_surface_nodes_keep_the_dataclass_repr_and_hash():
    node = SVar("x", 3)
    assert repr(node) == "SVar(name='x', pos=3)"
    assert hash(node) == hash(("x", 3))
    assert node == SVar("x", 3) and node != SVar("x", 4) and node != ("x", 3)


SRC = Path(__file__).resolve().parents[1] / "src"


def test_value_is_the_one_way_to_write_an_immutable_class():
    imported, defining = [], {"__setattr__": [], "__reduce__": []}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
            elif isinstance(node, ast.ClassDef):
                for d in node.body:
                    names = ([d.name] if isinstance(d, ast.FunctionDef) else
                             [t.id for t in d.targets if isinstance(t, ast.Name)]
                             if isinstance(d, ast.Assign) else [])
                    for name in names:
                        if name in defining:
                            defining[name].append(node.name)
    assert [m for m in imported if m.split(".")[0] == "dataclasses"] == []
    assert defining == {"__setattr__": ["Value"], "__reduce__": ["Value", "Sort"]}
