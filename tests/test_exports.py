"""Every public export resolves, and every public name has a caller: a deletion
cannot leave a stale name, and a helper only the tests call cannot land."""

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


def test_every_public_name_under_src_has_a_caller():
    defining = {".".join(path.relative_to(SRC / "substkit").with_suffix("").parts):
                path.read_text() for path in sorted(SRC.rglob("*.py"))}
    calling = [path.read_text() for path in sorted(PERFBENCH.rglob("*.py"))]
    assert uncalled(defining, calling) == sorted(TEST_ONLY)


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
