"""Operator families: shapes from the typing rules, labels, rule coverage."""

import gc

import pytest

from substkit.cbv.ops import CbvOperatorTable, DisabledConstruct
from substkit.cbv.types import (Base, DepthExceeded, NAT, UNIT, config, fun,
                                maybe_shape, record, valid_type, variant)
from substkit.sorts import first, second

B = Base("b")


def test_base_fragment_has_only_val():
    table = CbvOperatorTable(config(()))
    ops = table.operators()
    assert {op.family for op in ops} == {"val"}
    val = table.val(B)
    assert val.result_sort == second(B)
    assert val.args[0].sort == first(B) and len(val.args[0].binder) == 0


def test_functions_fragment_shapes():
    table = CbvOperatorTable(config(("functions",)))
    lam = table.lam(B, B)
    assert lam.result_sort == first(fun(B, B))
    assert lam.args[0].binder.entries == (B,)
    assert lam.args[0].sort == second(B)
    app = table.app(B, B)
    assert app.result_sort == second(B)
    assert [a.sort for a in app.args] == [second(fun(B, B)), second(B)]
    assert all(len(a.binder) == 0 for a in app.args)


def test_sequential_staircase_binders():
    table = CbvOperatorTable(config(("sequential",)))
    op = table.let((B, B, B), B)
    assert op.arity == 4
    binders = [a.binder.entries for a in op.args]
    assert binders == [(), (B,), (B, B), (B, B, B)]


def test_record_match_binds_all_fields():
    table = CbvOperatorTable(config(("records",)))
    row = (("A", B), ("B", fun(B, B) if False else B))
    op = table.recmatch(row, B)
    assert op.args[1].binder.entries == (B, B)


def test_variant_match_binds_clause_payloads():
    table = CbvOperatorTable(config(("naturals",), nat_bound=4))
    op = table.vmatch(maybe_shape(NAT).row, NAT)
    assert [a.binder.entries for a in op.args] == [(), (UNIT,), (NAT,)]


def test_natfold_binds_option_of_result():
    table = CbvOperatorTable(config(("naturals",), nat_bound=4))
    op = table.natfold(B if False else NAT)
    assert op.args[1].binder.entries == (maybe_shape(NAT),)


def test_for_binds_state():
    table = CbvOperatorTable(config(("while",)))
    op = table.forloop(B, B)
    assert op.args[1].binder.entries == (B,)


def test_letrec_binders():
    table = CbvOperatorTable(config(("recursion",)))
    op = table.letrec((((B,), B), ((), B)), B)
    f0 = fun(record((("0", B),)), B)
    f1 = fun(record(()), B)
    assert [a.binder.entries for a in op.args] == \
        [(f0, f1, B), (f0, f1), (f0, f1)]
    assert [a.sort for a in op.args] == [second(B), second(B), second(B)]


def test_disabled_constructs():
    table = CbvOperatorTable(config(()))
    for call in (lambda: table.lam(B, B), lambda: table.let((B,), B),
                 lambda: table.rec((("A", B),)), lambda: table.lit(0),
                 lambda: table.forloop(B, B),
                 lambda: table.letrec((((), B),), B)):
        with pytest.raises(DisabledConstruct):
            call()


def test_depth_exceeded():
    table = CbvOperatorTable(config(("functions",), type_depth=2))
    with pytest.raises(DepthExceeded):
        table.lam(fun(B, B), fun(B, B))


EVERY_FAMILY = [
    lambda t: t.val(B), lambda t: t.let((B,), B), lambda t: t.lam(B, B),
    lambda t: t.app(B, B), lambda t: t.vrec((("A", B),)), lambda t: t.rec(()),
    lambda t: t.recmatch((("A", B),), B),
    lambda t: t.vinj((("A", B), ("Z", NAT)), "Z"),
    lambda t: t.inj(maybe_shape(NAT).row, "1+"),
    lambda t: t.vmatch(maybe_shape(B).row, B), lambda t: t.lit(3),
    lambda t: t.unroll(), lambda t: t.roll(), lambda t: t.natfold(NAT),
    lambda t: t.forloop(NAT, B), lambda t: t.letrec((((B, NAT), B),), NAT)]


def test_repeated_family_call_returns_the_identical_operator():
    cfg = config(("sequential", "functions", "records", "variants", "naturals",
                  "while", "recursion"), nat_bound=4, type_depth=4)
    table = CbvOperatorTable(cfg)
    ops = [call(table) for call in EVERY_FAMILY]
    assert len(table._minted) == len(EVERY_FAMILY)
    assert all(call(table) is op for call, op in zip(EVERY_FAMILY, ops))
    # equal parameters built anew mint nothing new either
    assert table.lam(Base("b"), Base("b")) is ops[2]
    assert table.let(tuple([B]), B) is ops[1]
    assert len(table._minted) == len(EVERY_FAMILY)


@pytest.mark.parametrize("call", [
    lambda t, row: t.vrec(row), lambda t, row: t.rec(row),
    lambda t, row: t.recmatch(row, B), lambda t, row: t.vinj(row, "Z"),
    lambda t, row: t.inj(row, "Z"), lambda t, row: t.vmatch(row, B)],
    ids=["vrec", "rec", "recmatch", "vinj", "inj", "vmatch"])
def test_a_row_in_either_label_order_mints_one_operator(call):
    table = CbvOperatorTable(config(("records", "variants", "naturals"),
                                    nat_bound=4))
    op = call(table, (("A", B), ("Z", NAT)))
    assert call(table, (("Z", NAT), ("A", B))) is op
    assert list(table._minted.values()) == [op]


def test_the_table_keeps_each_operator_in_one_container():
    """The mint memo is the table's one store of operators: no second map,
    such as one keyed by label, refers to a minted operator."""
    cfg = config(("sequential", "functions", "records", "variants", "naturals",
                  "while", "recursion"), nat_bound=4, type_depth=4)
    table = CbvOperatorTable(cfg)
    ops = [call(table) for call in EVERY_FAMILY]
    own = [v for v in vars(table).values() if isinstance(v, (dict, list))]
    holders = [c for c in gc.get_referrers(*ops) if any(c is o for o in own)]
    assert holders == [table._minted]
    assert set(map(id, ops)) == set(map(id, table._minted.values()))


@pytest.mark.parametrize("cfg, call, error", [
    (config(()), lambda t: t.lam(B, B), DisabledConstruct),
    (config(()), lambda t: t.letrec((((), B),), B), DisabledConstruct),
    (config(("functions",)), lambda t: t.val(variant((("A", B),))),
     DisabledConstruct),
    (config(("naturals",)), lambda t: t.vrec((("A", B),)), DisabledConstruct),
    (config(("functions",), type_depth=2),
     lambda t: t.lam(fun(B, B), fun(B, B)), DepthExceeded),
    (config(("naturals",), nat_bound=4), lambda t: t.lit(4), ValueError),
])
def test_rejected_family_call_raises_on_every_repeat_and_mints_nothing(
        cfg, call, error):
    table = CbvOperatorTable(cfg)
    table.val(B)
    messages = []
    for _ in range(3):
        with pytest.raises(error) as info:
            call(table)
        messages.append(str(info.value))
    assert len(set(messages)) == 1 and messages[0]
    assert list(table._minted) == [("val", (B,))]


def test_table_sorts_are_types_the_fragment_forms():
    cfg = config(("functions", "naturals"), type_depth=3)
    table = CbvOperatorTable(cfg)
    assert valid_type(fun(B, B), cfg) and valid_type(NAT, cfg)
    assert not valid_type(variant((("A", B),)), cfg)
    # formation ignores the depth bound: natfold's binder is one deeper
    op = table.natfold(fun(B, fun(B, B)))
    (binder_type,) = op.args[1].binder.entries
    assert binder_type == maybe_shape(fun(B, fun(B, B)))
    assert valid_type(binder_type, cfg)
    assert list(table._minted.values()) == [op]


EXPECTED_FAMILIES = {
    (): {"val"},
    ("sequential",): {"val", "let"},
    ("functions",): {"val", "lam", "app"},
    ("records",): {"val", "vrec", "rec", "recmatch"},
    ("variants",): {"val", "vinj", "inj", "vmatch"},
    ("naturals",): {"val", "lit", "unroll", "roll", "natfold",
                    "vrec", "rec", "vinj", "inj", "vmatch"},
    ("while",): {"val", "for", "vinj", "inj"},
    ("recursion",): {"val", "letrec", "vrec", "rec", "app"},
}


@pytest.mark.parametrize("exts", sorted(EXPECTED_FAMILIES))
def test_rule_coverage(exts):
    """Operators emitted per fragment cover exactly the typing rules the
    fragment enables (fused donors included), and vice versa.  Every type
    they name, as a result, an argument or a binder entry, is one the fragment
    forms: a mint does not re-check that, the family checks guarantee it."""
    cfg = config(exts, nat_bound=4)
    table = CbvOperatorTable(cfg)
    ops = table.operators()
    assert {op.family for op in ops} == EXPECTED_FAMILIES[exts]
    for op in ops:
        assert valid_type(op.result_sort.ident, cfg), op
        for arg in op.args:
            assert valid_type(arg.sort.ident, cfg), op
            assert all(valid_type(t, cfg) for t in arg.binder.entries), op


# the table method that mints a family, where the two names differ
MINTER = {"for": "forloop"}


@pytest.mark.parametrize("exts", sorted(EXPECTED_FAMILIES))
def test_every_listed_operator_is_reminted_from_its_family_and_params(exts):
    """An operator describes itself: its family's method, given
    ``op.params``, mints it again -- the very operator on its own table, and
    one with the same label, family and parameters on a fresh table."""
    cfg = config(exts, nat_bound=4)
    table, fresh = CbvOperatorTable(cfg), CbvOperatorTable(cfg)
    for op in table.operators():
        mint = MINTER.get(op.family, op.family)
        assert getattr(table, mint)(*op.params) is op, op
        again = getattr(fresh, mint)(*op.params)
        assert ((again.label, again.family, again.params)
                == (op.label, op.family, op.params)), op
