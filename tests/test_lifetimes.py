"""Caches belong to the objects they describe: a model, a fragment
configuration, a context and an operator table are freed with their tables,
and no cache under ``src/`` grows for the life of the process."""

import ast
import gc
import random
import sys
import weakref

from conftest import SRC
from substkit.cbv import Base, config, fun, valid_type
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.surface import parse
from substkit.cbv.typecheck import typecheck
from substkit.semantics import OptionMonad, context_space, interpret_type, model
from substkit.semantics.denote import denote
from substkit.sorts import Context, first, second

B = Base("b")


def test_model_and_config_are_freed_without_the_cycle_collector():
    cfg = config(("functions",))
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    ctx = Context((B,))
    term = typecheck(parse("(val fn y: b . val y) (val x0)"), ctx, second(B),
                     cfg, table)
    assert denote(term, m, cfg, table).table() == (("some", "b0"), ("some", "b1"))
    assert interpret_type(fun(B, B), m, 3).size == 9
    assert context_space(Context((B, B)), m, 3).size == 4
    assert valid_type(fun(B, B), cfg)
    refs = (weakref.ref(m), weakref.ref(cfg))
    gc.disable()
    try:
        del m, cfg, table, term
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_extended_context_and_minting_table_are_freed_without_the_cycle_collector():
    """A context owns the extensions it shares, and a table the operators its
    family calls minted: both go with their last reference."""
    ctx = Context((B,))
    ext = ctx.extend(Context((fun(B, B),)))
    assert ctx.extend(Context((fun(B, B),))) is ext
    table = CbvOperatorTable(config(("functions", "sequential")))
    op = table.lam(B, B)
    assert table.lam(B, B) is op and table.let((B,), B) is table.let((B,), B)
    refs = (weakref.ref(table), weakref.ref(op))
    gc.disable()
    try:
        # contexts take no weak references: the context is freed when its
        # table of extensions lets go of the one it shared
        held = sys.getrefcount(ext)
        del ctx
        assert sys.getrefcount(ext) == held - 1
        del table, op
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_tensors_of_a_law_check_are_freed_on_return(monkeypatch):
    """A law check shares its tensors only while it runs: each is freed when
    the check returns, without the cycle collector."""
    from substkit.finpresheaf import free_structure, laws
    real = laws.tensor
    refs = []

    def recorded(p, q):
        result = real(p, q)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(laws, "tensor", recorded)
    rng = random.Random(114)
    homog = [free_structure(rng, (first("a"),), ("a",), 2,
                            ensure=[(first("a"), Context(("a",)))])
             for _ in range(2)]
    p = free_structure(rng, (second("k"),), ("a",), 2,
                       ensure=[(second("k"), Context(()))])
    gc.disable()
    try:
        assert laws.check_action_axioms(p, *homog).ok
        assert refs and [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_right_factors_and_their_plans_are_freed_on_return(monkeypatch):
    """A right factor keeps its tensor plans, and a plan refers to no
    structure: both go with the last reference to the right factor, without
    the cycle collector, the variable structure the check builds included."""
    from substkit.finpresheaf import free_structure, laws, structures
    real = structures._right_plan
    refs = {}

    def recorded(q, left_ctx_sorts):
        plan = real(q, left_ctx_sorts)
        refs[id(plan)] = (weakref.ref(q), weakref.ref(plan))
        return plan

    monkeypatch.setattr(structures, "_right_plan", recorded)
    rng = random.Random(114)

    def structures_of_a_check():
        homog = [free_structure(rng, (first("a"),), ("a",), 2,
                                ensure=[(first("a"), Context(("a",)))])
                 for _ in range(2)]
        p = free_structure(rng, (second("k"),), ("a",), 2,
                           ensure=[(second("k"), Context(()))])
        return p, *homog

    gc.disable()
    try:
        assert laws.check_action_axioms(*structures_of_a_check()).ok
        assert len(refs) > 3
        assert [(q(), plan()) for q, plan in refs.values()] == \
            [(None, None)] * len(refs)
    finally:
        gc.enable()


def unbounded_caches(source: str) -> list[str]:
    """``line: function`` for each function decorated with ``cache``, or with
    ``lru_cache`` and no explicit numeric bound: ``maxsize=None`` grows without
    end, and the default of 128 is a bound nobody chose."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for dec in getattr(node, "decorator_list", ()):
            target, bound = dec, []
            if isinstance(dec, ast.Call):
                target = dec.func
                bound = dec.args[:1] + [k.value for k in dec.keywords
                                        if k.arg == "maxsize"]
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            numeric = (bound and isinstance(bound[0], ast.Constant)
                       and isinstance(bound[0].value, int))
            if name == "cache" or (name == "lru_cache" and not numeric):
                found.append((dec.lineno, node.name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_no_unbounded_cache_under_src():
    found = {str(path.relative_to(SRC)): unbounded_caches(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    assert {path: hits for path, hits in found.items() if hits} == {}


def test_unbounded_cache_scan_sees_each_form():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.lru_cache(maxsize=None)\ndef a(x): pass\n"
              "@lru_cache\ndef b(x): pass\n"
              "@cache\ndef c(x): pass\n"
              "class K:\n    @staticmethod\n    @lru_cache(None)\n"
              "    def d(x): pass\n"
              "@functools.lru_cache(maxsize=16)\ndef e(x): pass\n"
              "@lru_cache(32)\ndef f(x): pass\n")
    assert unbounded_caches(source) == ["3: a", "5: b", "7: c", "11: d"]
