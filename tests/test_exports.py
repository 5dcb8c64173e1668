"""Every public export resolves, and four guards keep unused code and
redundant parameters out of ``src/``:
``test_every_public_name_under_src_has_a_caller`` (a helper only the tests
call cannot land), ``test_every_defaulted_parameter_has_a_setter`` (a setting
no caller sets is a constant, not a parameter),
``test_every_parameter_is_read`` (a parameter the body never reads is one
more thing each caller must supply for nothing) and
``test_no_def_takes_a_configuration_beside_a_table`` (a table knows its
configuration, so a second one passed beside it can only disagree)."""

import ast
import importlib

import pytest

from conftest import SRC

PERFBENCH = SRC.parent / "perfbench"

# Public names that only the tests call.  Each is a construction of the
# development whose laws a test checks.
TEST_ONLY = {
    "sorts.concat_contexts":
        "the chosen product of contexts, whose universal property test_sorts checks",
    "sorts.pair_renamings":
        "the mediating renaming into the chosen product, in the same test",
    "finpresheaf.structures.product_structure":
        "the product of presheaves, whose strength test_finpresheaf checks invertible",
    "finpresheaf.structures.coproduct_structure":
        "the coproduct of presheaves, whose costrength test_finpresheaf checks invertible",
    "finpresheaf.structures.exponential":
        "the right exponential of the tensor, whose universal property test_finpresheaf checks",
    "signatures.flatten":
        "modular signatures as coproducts of operator declarations; test_signatures "
        "checks reassociation",
}


# Defaulted parameters that only the tests set, as ``module.function.param``.
TEST_SET = {
    "semantics.checks.check_sem_action_axioms.cap":
        "test size: test_semantics runs the axioms on fewer environments",
    "semantics.checks.check_elgot_against_unrolling.count":
        "test size: test_fixpoints runs more while-programs",
    "semantics.monads.check_monad_laws.sample_size3":
        "test size: test_monads samples fewer size-3 cases",
    "finpresheaf.structures.exponential.cap":
        "its error path: test_finpresheaf exceeds a small cap",
    "termstruct.cbv_term_structure.bound":
        "its error path: test_termstruct asks for a bound below the terms' contexts",
    "finpresheaf.structures.free_structure.homes":
        "the dropped-swap mutants of test_finpresheaf need generators at length-2 homes",
    "semantics.monads.WriterMonad.__init__.monoid":
        "the non-associative writer of test_monads",
    "semantics.monads.ExceptionMonad.__init__.exceptions":
        "the CLI sets it through monad_by_name's BUNDLED[name](**kwargs), which "
        "a name scan cannot resolve",
    "semantics.monads.StateMonad.__init__.states":
        "the CLI sets it through monad_by_name's BUNDLED[name](**kwargs), which "
        "a name scan cannot resolve",
}


# Parameters the body does not read, as ``module.function.param``.
UNREAD = {
    **{f"semantics.denote.Interpreter._alg_{clause}.{param}":
       "the family dispatch hands every clause (op, params, values, ctx)"
       for clause, param in (("let", "params"), ("lit", "values"),
                             ("natfold", "params"), ("rec", "params"),
                             ("recmatch", "params"), ("roll", "params"),
                             ("unroll", "params"), ("val", "params"),
                             ("vrec", "params"))},
    "semantics.denote.Interpreter._iteration.state":
        "_UnrollingInterpreter overrides it and reads it",
}


@pytest.mark.parametrize("package", ["substkit", "substkit.cbv",
                                     "substkit.semantics", "substkit.finpresheaf"])
def test_every_exported_name_resolves(package):
    mod = importlib.import_module(package)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def uncalled(defining: dict[str, str], calling: list[str] = ()) -> list[str]:
    """``module.name`` for each public top-level function or class of the
    ``defining`` modules, and ``module.Class.name`` for each public method of a
    top-level class, that no code references by name or attribute outside its
    own definition.  ``calling`` sources only reference.  Names, not bindings,
    are matched, so a method shadowed by a same-named attribute elsewhere is
    taken as called; re-exports (imports, ``__all__`` strings) are not
    references."""
    trees = {mod: ast.parse(text) for mod, text in defining.items()}
    refs: dict[str, list[ast.AST]] = {}
    for tree in [*trees.values(), *map(ast.parse, calling)]:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                refs.setdefault(name, []).append(node)
    found = []
    for mod, tree in trees.items():
        defs = []
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs.append((top.name, top))
            if isinstance(top, ast.ClassDef):
                defs += [(f"{top.name}.{item.name}", item) for item in top.body
                         if isinstance(item, ast.FunctionDef)]
        for qualname, node in defs:
            name = qualname.rpartition(".")[2]
            if name.startswith("_"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(id(ref) in own for ref in refs.get(name, ())):
                found.append(f"{mod}.{qualname}")
    return sorted(found)


def _sources() -> tuple[dict[str, str], list[str]]:
    """The modules of ``src/`` by dotted name, and the sources of ``perfbench/``."""
    defining = {".".join(path.relative_to(SRC / "substkit").with_suffix("").parts):
                path.read_text() for path in sorted(SRC.rglob("*.py"))}
    return defining, [path.read_text() for path in sorted(PERFBENCH.rglob("*.py"))]


def test_every_public_name_under_src_has_a_caller():
    assert uncalled(*_sources()) == sorted(TEST_ONLY)


def test_uncalled_scan_sees_each_form():
    defining = {
        "a": ("__all__ = ['only_exported']\n"
              "def only_exported(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def called(): pass\n"
              "def _private(): called()\n"
              "class K:\n"
              "    def method(self): return K\n"
              "    def used(self): pass\n"
              "    def __repr__(self): pass\n"
              "class Used:\n"
              "    pass\n"),
        "b": "from a import only_exported\nobj.used()\n",
    }
    assert uncalled(defining) == ["a.K", "a.K.method", "a.Used",
                                  "a.only_exported", "a.recursive"]
    assert uncalled(defining, ["Used()\nrecursive(3)\n"]) == [
        "a.K", "a.K.method", "a.only_exported"]


def unset_defaults(defining: dict[str, str], calling: list[str] = (),
                   exempt=frozenset()) -> list[str]:
    """``module.function.param``, and ``module.Class.method.param`` for a
    method of a top-level class, for each parameter with a default that no call
    in the ``defining`` or ``calling`` sources sets outside the function's own
    body.  A call sets a parameter when it passes it by keyword, passes enough
    positional arguments to reach it, or passes ``**kwargs``; a method's
    first parameter is its receiver, and ``Cls(...)`` calls ``Cls.__init__``.
    Calls are matched by name, as in ``uncalled``.  Functions named in
    ``exempt`` (``module.qualname``) are skipped."""
    trees = {mod: ast.parse(text) for mod, text in defining.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *map(ast.parse, calling)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = (fn.id if isinstance(fn, ast.Name)
                        else fn.attr if isinstance(fn, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    found = []
    for mod, tree in trees.items():
        defs = []  # (qualname, name its callers use, node, receivers)
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defs.append((top.name, top.name, top, 0))
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, ast.FunctionDef):
                        callee = top.name if item.name == "__init__" else item.name
                        defs.append((f"{top.name}.{item.name}", callee, item, 1))
        for qualname, callee, node, receivers in defs:
            if f"{mod}.{qualname}" in exempt:
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args][receivers:]
            first_default = len(positional) - len(args.defaults)
            defaulted = [(p.arg, i) for i, p in enumerate(positional)
                         if i >= first_default]
            defaulted += [(p.arg, None) for p, d in
                          zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            own = {id(n) for n in ast.walk(node)}
            outside = [c for c in calls.get(callee, ()) if id(c) not in own]
            for param, index in defaulted:
                if not any({None, param} & {k.arg for k in c.keywords}
                           or (index is not None and index < len(c.args))
                           for c in outside):
                    found.append(f"{mod}.{qualname}.{param}")
    return sorted(found)


def test_every_defaulted_parameter_has_a_setter():
    from substkit.suites import SUITES
    # ``substkit check`` sets a registry part's parameters by name
    parts = {f"suites.{part.__name__}" for parts in SUITES.values()
             for part in parts}
    assert unset_defaults(*_sources(), parts) == sorted(TEST_SET)


def test_unset_defaults_scan_sees_each_form():
    defining = {
        "a": ("def f(x, by_kw=1, by_pos=2, unset=3, *, kw_only=4): pass\n"
              "def g(x, spread=1): pass\n"
              "def recursive(n, depth=0): return recursive(n, depth=depth + 1)\n"
              "def part(rep, size=1): pass\n"
              "class K:\n"
              "    def __init__(self, size=1): pass\n"
              "    def method(self, n=1): return self.method(n=2)\n"),
        "b": "f(0, by_kw=1)\nf(0, 1, 2)\ng(0, **opts)\nK(5)\n",
    }
    assert unset_defaults(defining, exempt={"a.part"}) == [
        "a.K.method.n", "a.f.kw_only", "a.f.unset", "a.recursive.depth"]
    assert unset_defaults(defining, ["f(0, kw_only=1)\nobj.method(1)\n"],
                          {"a.part"}) == ["a.f.unset", "a.recursive.depth"]


def _is_stub(node: ast.FunctionDef) -> bool:
    """An interface stub: an optional docstring, then only ``...`` or a
    ``raise``."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return len(body) == 1 and (
        isinstance(body[0], ast.Raise)
        or isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
        and body[0].value.value is Ellipsis)


def unread_parameters(defining: dict[str, str]) -> list[str]:
    """``module.function.param``, and ``module.Class.method.param`` for a
    method of a top-level class, for each parameter (``*args`` and
    ``**kwargs`` included) whose name the body never reads; a read inside a
    nested function or lambda counts.  A method's first parameter is its
    receiver and is not asked for, and interface stubs are skipped."""
    found = []
    for mod, text in defining.items():
        defs = []  # (qualname, node, receivers)
        for top in ast.parse(text).body:
            if isinstance(top, ast.FunctionDef):
                defs.append((top.name, top, 0))
            if isinstance(top, ast.ClassDef):
                defs += [(f"{top.name}.{item.name}", item, 1) for item in top.body
                         if isinstance(item, ast.FunctionDef)]
        for qualname, node, receivers in defs:
            if _is_stub(node):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args][receivers:]
            params += [*args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            found += [f"{mod}.{qualname}.{p.arg}" for p in params
                      if p.arg not in read]
    return sorted(found)


def test_every_parameter_is_read():
    """A structure a function can read off its other arguments is not passed
    beside them, and a parameter nothing reads is dropped."""
    assert unread_parameters(_sources()[0]) == sorted(UNREAD)


def test_unread_parameters_scan_sees_each_form():
    defining = {
        "a": ("def f(x, unread, *rest, kw, **opts): return x + kw\n"
              "def closure(x, y):\n"
              "    def inner(z): return z\n"
              "    return lambda: inner(y)\n"
              "def stub(x):\n"
              "    \"\"\"Docstring.\"\"\"\n"
              "    ...\n"
              "def raising(x): raise NotImplementedError\n"
              "def documented(x):\n"
              "    \"\"\"Docstring.\"\"\"\n"
              "    return 1\n"
              "class K:\n"
              "    def method(self, used, unused): return used\n"
              "    def stub(self, x): ...\n"
              "    def outer(self, x):\n"
              "        def nested(unread_inner): return x\n"
              "        return nested\n"),
    }
    assert unread_parameters(defining) == [
        "a.K.method.unused", "a.closure.x", "a.documented.x", "a.f.opts",
        "a.f.rest", "a.f.unread"]


def cfg_beside_table(defining: dict[str, str]) -> list[str]:
    """``module.qualname`` of each function or method, at any depth, that
    takes both a ``cfg`` and a ``table`` parameter."""
    found = []

    def visit(mod, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    args = child.args
                    names = {a.arg for a in (*args.posonlyargs, *args.args,
                                             *args.kwonlyargs)}
                    if {"cfg", "table"} <= names:
                        found.append(f"{mod}.{qualname}")
                visit(mod, child, f"{qualname}.")
            else:
                visit(mod, child, prefix)

    for mod, text in defining.items():
        visit(mod, ast.parse(text), "")
    return sorted(found)


def test_no_def_takes_a_configuration_beside_a_table():
    """Code that mints takes the table and reads ``table.cfg``; code that
    reads a term takes no table, the operator carries its family."""
    assert cfg_beside_table(_sources()[0]) == []


def test_cfg_beside_table_scan_sees_each_form():
    defining = {
        "a": ("def f(cfg, table): pass\n"
              "def g(table, *, cfg=None): pass\n"
              "def h(cfg, tables): pass\n"
              "class K:\n"
              "    def __init__(self, cfg, table): pass\n"
              "    def m(self, table):\n"
              "        def inner(cfg, table): pass\n"),
    }
    assert cfg_beside_table(defining) == ["a.K.__init__", "a.K.m.inner", "a.f",
                                          "a.g"]
