"""Every public export resolves: a deletion cannot leave a stale name."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["substkit", "substkit.cbv",
                                     "substkit.semantics", "substkit.finpresheaf"])
def test_every_exported_name_resolves(package):
    mod = importlib.import_module(package)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
