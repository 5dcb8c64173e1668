"""Caches belong to the objects they describe: a model, a fragment
configuration, a context and an operator table are freed with their tables,
and no cache under ``src/`` grows for the life of the process."""

import ast
import gc
import importlib
import random
import sys
import weakref

from conftest import SRC
from substkit.cbv import NAT, Base, config, fun, record, valid_type
from substkit.cbv.gen import TermGen
from substkit.cbv.ops import CbvOperatorTable
from substkit.cbv.surface import parse
from substkit.cbv.typecheck import typecheck
from substkit.semantics import OptionMonad, context_space, interpret_type, model
from substkit.semantics.denote import Interpreter, denote
from substkit.sorts import Context, first, second

B = Base("b")


def test_model_and_config_are_freed_without_the_cycle_collector():
    cfg = config(("functions",))
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    ctx = Context((B,))
    term = typecheck(parse("(val fn y: b . val y) (val x0)"), ctx, second(B),
                     table)
    assert denote(term, m, cfg).table() == (("some", "b0"), ("some", "b1"))
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


def test_interpreter_and_its_denotations_are_freed_without_the_cycle_collector():
    """An interpreter keeps the denotations it built, and none refers back to
    it, a naturals fold's included: the interpreter and every denotation go
    with the last reference.  A denotation takes no weak reference, so the
    test watches its query function, which only the denotation holds."""
    cfg = config(("naturals",), nat_bound=3)
    m = model(OptionMonad(), {"b": 2})
    table = CbvOperatorTable(cfg)
    term = typecheck(parse("fold (val x0) a . val x0"), Context((NAT,)),
                     second(NAT), table)
    interp = Interpreter(m, cfg)
    interp.fresh_fold_memos()
    d = interp.denote(term)
    assert d.table() == tuple(("some", n) for n in range(3))
    shared = interp._shared
    built = [*interp._built.values(), *shared.projections.values(),
             *shared.weakenings.values()]
    refs = [weakref.ref(interp)] + [weakref.ref(b.at) for b in built]
    assert len(refs) > 3
    # the fold memos, one per ambient context, take no weak references:
    # each is freed when the interpreter lets go of the one it holds
    memos = list(interp._folds.values())
    assert [memo.serves for memo in memos] == [term.ctx]
    assert len(memos[0].results) == 3
    held = [sys.getrefcount(memo) for memo in memos]
    gc.disable()
    try:
        del interp, d, shared, built
        assert [sys.getrefcount(memo) for memo in memos] == \
            [n - 1 for n in held]
        del memos
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_pool_fold_memos_are_freed_with_their_pool(monkeypatch):
    """The exhaustive lemma owns one substitution memo per substitution of
    a source context's pool, and its interpreter one denotation memo per
    ambient context, which the check renews at each new pool.  Without the
    cycle collector: while the substitution memos of a pool are made, those
    of the pools before the previous one are gone; once the denotation
    memos are renewed, every one made before is gone; on return every memo
    is."""
    from substkit.semantics import IdentityMonad, checks
    from substkit.terms import FoldMemo, SubstEnv

    class Watched(FoldMemo):
        __slots__ = ("__weakref__",)

    substs, dens, sources, renewals = [], [], [], []

    def watched(serves):
        if isinstance(serves, SubstEnv) and serves.source not in sources:
            sources.append(serves.source)
            alive = {ref().serves.source for ref in substs
                     if ref() is not None}
            assert alive <= set(sources[-2:]), alive
        memo = Watched(serves)
        (substs if isinstance(serves, SubstEnv) else dens).append(
            weakref.ref(memo))
        return memo

    def renewed(interp):
        real_renew(interp)
        renewals.append(len(dens))
        assert [ref() for ref in dens] == [None] * len(dens)

    denote_module = importlib.import_module("substkit.semantics.denote")
    real_renew = denote_module.Interpreter.fresh_fold_memos
    monkeypatch.setattr(checks, "FoldMemo", watched)
    monkeypatch.setattr(denote_module, "FoldMemo", watched)
    monkeypatch.setattr(denote_module.Interpreter, "fresh_fold_memos", renewed)
    gc.disable()
    try:
        assert checks.check_substitution_lemma_exhaustive(
            config(("sequential", "functions")),
            model(IdentityMonad(), {"b": 2}), subst_ctx_len=1).ok
        assert len(substs) > 10 and len(sources) > 3
        assert len(renewals) == len(sources) and renewals[-1] > 10
        refs = substs + dens
        assert [ref() for ref in refs] == [None] * len(refs)
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


def test_binder_contexts_are_freed_with_their_table_without_the_cycle_collector():
    """A table's binder contexts are the extensions of its one empty binder,
    which keeps them: equal binders of its operators are one object, a
    second table has its own, and they go with the table and its operators."""
    cfg = config(("functions", "sequential"))
    table, other = CbvOperatorTable(cfg), CbvOperatorTable(cfg)
    op = table.let((B, fun(B, B)), B)
    assert op.args[0].binder is table.val(B).args[0].binder
    assert not len(op.args[0].binder)
    prefix, full = op.args[1].binder, op.args[2].binder
    assert prefix is table.lam(B, B).args[0].binder
    assert other.let((B, fun(B, B)), B).args[1].binder is not prefix
    gc.disable()
    try:
        # contexts take no weak references: once the table and its operators
        # are gone, only this frame refers to each binder
        del table, op
        assert [sys.getrefcount(prefix), sys.getrefcount(full)] == [2, 2]
    finally:
        gc.enable()


def test_a_type_that_handed_out_its_sorts_is_freed_without_the_cycle_collector():
    """A sort names its type and nothing names the sort, so a type and the
    sorts made of it go by reference counting alone, and the type then
    lets go of its components.  The type is built over a base that no other
    test names, so nothing else in the process holds it."""
    inner = record((("A", Base("freed_by_refcount")),))
    held = sys.getrefcount(inner)
    t = fun(inner, inner)
    sorts = (first(t), second(t))
    gc.disable()
    try:
        del sorts
        assert sys.getrefcount(t) == 2
        del t
        assert sys.getrefcount(inner) == held
    finally:
        gc.enable()


def test_generator_memos_are_freed_with_it_without_the_cycle_collector():
    """A generator keeps, per inhabited set, its sorted list and candidate
    record, and per context its inhabited set; its inhabitation kernel keeps
    the numbering of the types it met, the walk of each out-of-universe
    variable type, the mask memo and the decoded sets.  None refers back to
    the generator, so all of them go with it."""
    cfg = config(("functions", "records", "variants", "while"), ("b", "c"),
                 nat_bound=4)
    gen = TermGen(CbvOperatorTable(cfg), random.Random(0))
    for _ in range(20):
        gen.random_item(3, 4, holes={}, hole_prob=0.2)
    # a depth-3 variable type lies outside the universe
    gen.inhabited(frozenset({fun(fun(fun(B, B), B), B)}))
    ctx, w = next(iter(gen._ctx_memo.items()))
    kernel = gen._kernel
    kept = [ctx, w, gen._sorted_memo[w], gen._cands(w), kernel.numbers,
            kernel.types, kernel.extras, kernel.memo, kernel.decoded]
    assert len(gen._cand_memo) > 1 and len(kernel.memo) > 1 and kernel.extras
    del kernel
    ref = weakref.ref(gen)
    # the memos take no weak references: each is freed when the generator
    # lets go of the one reference it holds
    held = [sys.getrefcount(x) for x in kept]
    gc.disable()
    try:
        del gen
        assert ref() is None
        after = [sys.getrefcount(x) for x in kept]
        assert all(a < b for a, b in zip(after, held)), (after, held)
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


def test_left_factor_and_its_plan_are_freed_together():
    """A left factor keeps its tensor plan, which refers to no structure:
    both go with the last reference to the left factor, without the cycle
    collector."""
    from substkit.finpresheaf import free_structure, tensor
    rng = random.Random(115)
    p = free_structure(rng, (second("k"),), ("a",), 2,
                       ensure=[(second("k"), Context(()))])
    q = free_structure(rng, (first("a"),), ("a",), 2,
                       ensure=[(first("a"), Context(("a",)))])
    result = tensor(p, q)
    plan = p._left
    assert tensor(p, q).structure.cells == result.structure.cells
    assert p._left is plan
    refs = (weakref.ref(p), weakref.ref(plan))
    gc.disable()
    try:
        del p, plan, result
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_shape_and_renaming_tables_hold_no_structure(monkeypatch):
    """The shape and renaming tables outlive the structures of a check, but
    hold positions, contexts and renamings only: every structure and tensor
    the check made is freed when it returns, without the cycle collector."""
    from substkit.finpresheaf import free_structure, laws, structures
    refs = []
    for cls in (structures.FinStructure, structures.TensorResult):
        real = cls.__init__

        def recorded(self, *args, real=real):
            real(self, *args)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", recorded)
    rng = random.Random(116)
    homog = [free_structure(rng, (first("a"),), ("a",), 2,
                            ensure=[(first("a"), Context(("a",)))])
             for _ in range(2)]
    p = free_structure(rng, (second("k"),), ("a",), 2,
                       ensure=[(second("k"), Context(()))])
    gc.disable()
    try:
        assert laws.check_action_axioms(p, *homog).ok
        del p, homog
        kinds = {type(ref()).__name__ for ref in refs if ref() is not None}
        assert kinds == set(), kinds
        assert len(refs) > 20
        assert structures._shape.cache_info().currsize > 0
        assert structures._renamings.cache_info().currsize > 0
    finally:
        gc.enable()


# the methods through which a function grows a dict, set or list in place
_GROWING = ("setdefault", "add", "append", "update")
_CONTAINERS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp,
               ast.ListComp)


def _module_containers(tree: ast.Module) -> dict:
    """Name -> line of each dict, set or list the module binds at top level,
    as a display, a comprehension or a ``dict()``/``set()``/``list()`` call."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        made = isinstance(value, _CONTAINERS) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "set", "list"))
        if made:
            for target in targets:
                if isinstance(target, ast.Name):
                    found[target.id] = node.lineno
    return found


def _written_in_functions(tree: ast.Module, names: dict) -> set:
    """The names of ``names`` that some function stores into by subscript
    or grows by one of ``_GROWING``, and does not bind as a local."""
    written = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        declared = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        local -= declared
        for node in ast.walk(fn):
            target = None
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)):
                target = node.value
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _GROWING):
                target = node.func.value
            if (isinstance(target, ast.Name) and target.id in names
                    and target.id not in local):
                written.add(target.id)
    return written


def unbounded_caches(source: str) -> list[str]:
    """``line: name`` for each function decorated with ``cache``, or with
    ``lru_cache`` and no explicit numeric bound (``maxsize=None`` grows
    without end, and the default of 128 is a bound nobody chose), and for
    each module-level dict, set or list that a function of the module writes
    into: such a table lives, and grows, for the life of the process."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
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
    containers = _module_containers(tree)
    for name in _written_in_functions(tree, containers):
        found.append((containers[name], name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_no_unbounded_cache_under_src():
    found = {str(path.relative_to(SRC)): unbounded_caches(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    assert {path: hits for path, hits in found.items() if hits} == {}


def test_unbounded_cache_scan_sees_each_form():
    """Each unbounded decorator, and each module-level dict, set or list
    that a function writes into, whichever way it is written; a bounded
    decorator, a table no function writes and one a function shadows are
    not flagged."""
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.lru_cache(maxsize=None)\ndef a(x): pass\n"
              "@lru_cache\ndef b(x): pass\n"
              "@cache\ndef c(x): pass\n"
              "class K:\n    @staticmethod\n    @lru_cache(None)\n"
              "    def d(x): pass\n"
              "@functools.lru_cache(maxsize=16)\ndef e(x): pass\n"
              "@lru_cache(32)\ndef f(x): pass\n"
              "STORE = {}\n"
              "DEFAULTS = dict()\n"
              "SEEN = set()\n"
              "LOG = []\n"
              "MERGED: dict = {}\n"
              "SQUARES = {n: n * n for n in range(3)}\n"
              "FIXED = {'a': 1}\n"
              "SHADOWED = []\n"
              "def put(k, v):\n    STORE[k] = v\n"
              "def get(k):\n    return DEFAULTS.setdefault(k, 0)\n"
              "def note(x):\n    SEEN.add(x)\n"
              "class L:\n    def log(self, x):\n        LOG.append(x)\n"
              "merge = lambda d: MERGED.update(d)\n"
              "def square(n):\n    SQUARES[n] += 1\n"
              "def read(k):\n    return FIXED[k]\n"
              "def local():\n    SHADOWED = []\n    SHADOWED.append(1)\n"
              "    return SHADOWED\n")
    assert unbounded_caches(source) == [
        "3: a", "5: b", "7: c", "11: d", "17: STORE", "18: DEFAULTS",
        "19: SEEN", "20: LOG", "21: MERGED", "22: SQUARES"]
