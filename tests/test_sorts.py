"""Contexts, renamings, and their category/product laws."""

import itertools

import pytest

from substkit.sorts import (Context, ContextMismatch, Renaming, SortingSystem,
                            compose_renamings, concat_contexts, first,
                            identity_renaming, pair_renamings, second)


def all_renamings(src: Context, tgt: Context):
    pools = [[i for i, e in enumerate(src.entries) if e == s] for s in tgt.entries]
    for mapping in itertools.product(*pools):
        yield Renaming(src, tgt, mapping)


def contexts_upto(sorts, n):
    out = []
    for k in range(n + 1):
        out.extend(Context(c) for c in itertools.product(sorts, repeat=k))
    return out


def test_sorting_system_basics():
    sys = SortingSystem(("b", "c"), ("b",))
    assert first("b") in sys and second("b") in sys
    assert second("c") not in sys
    with pytest.raises(ValueError):
        SortingSystem(("b", "b"), ())


def test_identity_renaming():
    assert identity_renaming(Context(())).mapping == ()
    assert identity_renaming(Context(["b"])).mapping == (0,)


def test_identity_is_neutral():
    g1, g2 = Context(["b", "c"]), Context(["c", "b", "b"])
    for rho in all_renamings(g1, g2):
        assert compose_renamings(identity_renaming(g1), rho) == rho
        assert compose_renamings(rho, identity_renaming(g2)) == rho


def test_permutation_example_composes_to_merge():
    # x:b1, f:b1->b2, g:b1->b2, y:b1 with x->x, f->g, g->f, y->x; composing the
    # renaming with itself fixes f, g, x and still merges y into x.
    g = Context(["b1", "fn", "fn", "b1"])
    rho = Renaming(g, g, (0, 2, 1, 0))
    assert compose_renamings(rho, rho).mapping == (0, 1, 2, 0)


def test_compose_matches_function_composition():
    ctxs = contexts_upto(("b", "c"), 2)
    for g1, g2, g3 in itertools.product(ctxs, repeat=3):
        for r1 in all_renamings(g1, g2):
            for r2 in all_renamings(g2, g3):
                got = compose_renamings(r1, r2)
                assert got.mapping == tuple(r1.mapping[r2.mapping[y]]
                                            for y in range(len(g3)))


def test_constant_renaming_absorbs():
    g1, g2 = Context(["b", "b"]), Context(["b", "b"])
    const = Renaming(g1, g2, (0, 0))
    for rho in all_renamings(g2, g2):
        out = compose_renamings(const, rho)
        assert set(out.mapping) <= {0}


def test_compose_associative_exhaustive():
    ctxs = contexts_upto(("b",), 3) + [Context(["b", "c"]), Context(["c"])]
    for g1, g2 in itertools.product(ctxs, repeat=2):
        for r1 in all_renamings(g1, g2):
            for g3 in ctxs:
                for r2 in all_renamings(g2, g3):
                    for r3 in all_renamings(g3, g3):
                        lhs = compose_renamings(compose_renamings(r1, r2), r3)
                        rhs = compose_renamings(r1, compose_renamings(r2, r3))
                        assert lhs == rhs


def test_compose_context_mismatch():
    r1 = identity_renaming(Context(["b"]))
    r2 = identity_renaming(Context(["c"]))
    with pytest.raises(ContextMismatch):
        compose_renamings(r1, r2)


def test_sort_preservation_enforced():
    with pytest.raises(ValueError):
        Renaming(Context(["b"]), Context(["c"]), (0,))


@pytest.mark.parametrize("mapping, message", [
    ((0,), "renaming map must cover every target position"),
    ((0, 2), "position 2 out of range for Context['b', 'c']"),
    ((0, -1), "position -1 out of range for Context['b', 'c']"),
    ((0, 0), "sort mismatch: target position 1 has sort 'c' but is sent to "
             "source position 0 of sort 'b'"),
])
def test_refused_renamings_name_the_first_failing_position(mapping, message):
    with pytest.raises(ValueError) as err:
        Renaming(Context(["b", "c"]), Context(["b", "c"]), mapping)
    assert str(err.value) == message


def test_concat_trivial_cases():
    g = Context(["b", "c"])
    ctx, _, pi2 = concat_contexts(Context(()), g)
    assert ctx == g and pi2 == identity_renaming(g)
    ctx, pi1, pi2 = concat_contexts(Context(["b"]), Context(["c"]))
    assert ctx.entries == ("b", "c")
    assert pi1.mapping == (0,) and pi2.mapping == (1,)


def test_product_universal_property():
    ctxs = contexts_upto(("b", "c"), 2)
    for g1, g2 in itertools.product(ctxs, repeat=2):
        cat, pi1, pi2 = concat_contexts(g1, g2)
        for d in ctxs:
            for f in all_renamings(d, g1):
                for g in all_renamings(d, g2):
                    h = pair_renamings(f, g)
                    assert compose_renamings(h, pi1) == f
                    assert compose_renamings(h, pi2) == g
                    # uniqueness: any other mediating renaming equals h
                    for h2 in all_renamings(d, cat):
                        if (compose_renamings(h2, pi1) == f
                                and compose_renamings(h2, pi2) == g):
                            assert h2 == h


def vars_of_sort(ctx: Context, sort_ident) -> list[int]:
    """The positions of ``ctx`` carrying the given first-class sort, ascending."""
    return [i for i, e in enumerate(ctx.entries) if e == sort_ident]


def test_vars_of_sort():
    assert vars_of_sort(Context(()), "b") == []
    assert vars_of_sort(Context(["b", "c", "b"]), "b") == [0, 2]


def test_vars_of_sort_naturality():
    ctxs = contexts_upto(("b", "c"), 2)
    for g1, g2 in itertools.product(ctxs, repeat=2):
        for rho in all_renamings(g1, g2):
            for s in ("b", "c"):
                for y in vars_of_sort(g2, s):
                    assert rho.mapping[y] in vars_of_sort(g1, s)


def test_extend_renaming():
    g1, g2 = Context(["b"]), Context(["b", "b"])
    rho = Renaming(g1, g2, (0, 0))
    ext = rho.extend(Context(["c"]))
    assert ext.source.entries == ("b", "c")
    assert ext.target.entries == ("b", "b", "c")
    assert ext.mapping == (0, 0, 1)


def test_extend_context_shares_one_extension_per_binder():
    ctx = Context(["b", "c"])
    assert ctx.extend(Context(())) is ctx
    for binder in contexts_upto(("b", "c"), 2)[1:]:
        ext = ctx.extend(binder)
        assert ext == Context(ctx.entries + binder.entries)
        assert hash(ext) == hash(Context(ctx.entries + binder.entries))
        # a repeated binder, equal but built anew, gives the identical object
        assert ctx.extend(Context(binder.entries)) is ext
    assert Context(()).extend(Context(["b"])) == Context(["b"])
