"""Flattening signatures to operators, and the environment-routing strength."""

import pytest

from substkit.signatures import (Argument, At, Coproduct, Hole, NotFlattenable,
                                 OnlyAt, Product, Restrict, Shift, flatten,
                                 route_environment)
from substkit.sorts import Context, SortingSystem, first, second
from substkit.terms import TermCarrier, Var, identity_env

SYS = SortingSystem(("v", "arrow"), ("v", "arrow"))

ABS_SIG = Coproduct(((
    "lam",
    OnlyAt(first("arrow"), At(second("v"), Shift(Context(["v"]), Hole()))),
),))

VAL_SIG = Coproduct((("val", OnlyAt(second("v"), At(first("v"), Hole()))),))

APP_SIG = Coproduct(((
    "app",
    OnlyAt(second("v"), Product((At(second("arrow"), Hole()),
                                 At(second("v"), Hole())))),
),))


def test_flatten_abstraction():
    op = flatten(ABS_SIG, SYS)["lam"]
    assert op.result_sort == first("arrow")
    assert op.args == (Argument(Context(["v"]), second("v")),)


def test_flatten_value_inclusion():
    op = flatten(VAL_SIG, SYS)["val"]
    assert op.result_sort == second("v")
    assert op.args == (Argument(Context(()), first("v")),)


def test_flatten_coproduct_union():
    ops = flatten(Coproduct((ABS_SIG, VAL_SIG)), SYS)
    assert list(ops) == ["lam", "val"]
    assert all(op.label == label for label, op in ops.items())


def test_flatten_reassociation_stable():
    left = flatten(Coproduct((Coproduct((ABS_SIG, VAL_SIG)), APP_SIG)), SYS)
    right = flatten(Coproduct((ABS_SIG, Coproduct((VAL_SIG, APP_SIG)))), SYS)
    key = lambda t: sorted((op.label, op.result_sort, op.args) for op in t.values())
    assert key(left) == key(right)


def test_flatten_rejects_restrict():
    bad = Coproduct((("r", OnlyAt(second("v"), Restrict("tag", Hole()))),))
    with pytest.raises(NotFlattenable) as info:
        flatten(bad, SYS)
    assert "Restrict" in str(info.value)


def test_flatten_rejects_bad_summand():
    with pytest.raises(NotFlattenable):
        flatten(Coproduct((("x", Product((Hole(),))),)), SYS)


@pytest.mark.parametrize("expr, message", [
    (OnlyAt(second("k"), At(second("v"), Hole())), "result sort"),
    (OnlyAt(second("v"), At(second("k"), Hole())), "argument sort"),
    (OnlyAt(second("v"), At(second("v"), Shift(Context(["k"]), Hole()))),
     "context entry"),
])
def test_sorts_outside_the_system_rejected(expr, message):
    """Result, argument and binder sorts are checked against the system when
    flattening; over a system with those sorts the summand flattens."""
    sig = Coproduct((("bad", expr),))
    with pytest.raises(ValueError, match=message):
        flatten(sig, SYS)
    wider = SortingSystem(SYS.fst_sorts + ("k",), SYS.snd_sorts + ("k",))
    assert list(flatten(sig, wider)) == ["bad"]


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate operator label 'val'"):
        flatten(Coproduct((VAL_SIG, VAL_SIG)), SYS)


def test_strength_empty_binder_is_identity():
    table = flatten(APP_SIG, SYS)
    ctx = Context(["v", "v"])
    env = list(identity_env(ctx).entries)
    new_ctx, routed = route_environment(table["app"].args[0].binder, ctx,
                                        env, TermCarrier)
    assert new_ctx == ctx and routed == env


def test_strength_routes_binder():
    table = flatten(ABS_SIG, SYS)
    ctx = Context(["v"])
    env = [Var(ctx, 0)]
    new_ctx, routed = route_environment(table["lam"].args[0].binder, ctx,
                                        env, TermCarrier)
    assert new_ctx.entries == ("v", "v")
    assert routed == [Var(new_ctx, 0), Var(new_ctx, 1)]


def test_identity_environment_routes_to_identity():
    # For the term carrier, routing the variable environment under any binder
    # yields the variable environment of the extended context.
    table = flatten(ABS_SIG, SYS)
    for entries in ((), ("v",), ("v", "arrow"), ("arrow", "v")):
        ctx = Context(entries)
        env = list(identity_env(ctx).entries)
        new_ctx, routed = route_environment(table["lam"].args[0].binder, ctx,
                                            env, TermCarrier)
        assert routed == list(identity_env(new_ctx).entries)


def test_context_membership_asks_the_system():
    Context(("v", "arrow")).validate(SYS)
    with pytest.raises(ValueError):
        Context(("k",)).validate(SortingSystem(("v",), ("k",)))


def test_unknown_label_raises_key_error():
    table = flatten(ABS_SIG, SYS)
    with pytest.raises(KeyError) as info:
        table["nope"]
    assert info.value.args == ("nope",)
