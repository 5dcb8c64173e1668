"""What a pass compiles: each layer loads only the layers it runs.

Where ``PYTHONDONTWRITEBYTECODE`` is set no bytecode cache is written, so a
benchmark pass (or ``substkit check``) compiles every module it imports at
start-up.  Each check runs in a fresh interpreter, since this process has
imported everything already."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import ACCEPTANCE_SEED, WORKLOADS  # noqa: E402

sys.path.remove(str(PERFBENCH))


def _run(code: str):
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), cwd=PERFBENCH)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_monads_load_no_syntax_interpreter_or_checks():
    loaded = _run("import json, sys\n"
                  "import substkit.semantics.monads\n"
                  "print(json.dumps(sorted(m for m in sys.modules "
                  "if m.startswith('substkit'))))")
    assert "substkit.semantics.monads" in loaded
    # the monad laws concern the strong monad alone: a model reads its types
    # from cbv.types, and the top-level package re-exports sorts only
    heavy = ("substkit.semantics.checks", "substkit.semantics.denote",
             "substkit.cbv.gen", "substkit.cbv.surface", "substkit.cbv.typecheck",
             "substkit.cbv.ops", "substkit.signatures", "substkit.terms",
             "substkit.finpresheaf")
    assert [m for m in loaded if m.startswith(heavy)] == []
    assert len(loaded) <= 9, loaded


def test_cli_loads_no_dataclasses():
    """The surface syntax's nodes derive from ``sorts.Value`` too: importing
    ``dataclasses`` would load ``inspect``, ``dis`` and ``ast`` with it."""
    loaded = _run("import json, sys\n"
                  "import substkit.cli\n"
                  "print(json.dumps('dataclasses' in sys.modules))")
    assert loaded is False


def test_checks_load_no_presheaf_layer():
    """The substitution lemma never uses the presheaf tensor: contexts and
    renamings are enumerated in ``sorts``."""
    loaded = _run("import json, sys\n"
                  "import substkit.semantics.checks\n"
                  "print(json.dumps(sorted(m for m in sys.modules "
                  "if m.startswith('substkit'))))")
    assert "substkit.semantics.checks" in loaded
    assert [m for m in loaded if m.startswith("substkit.finpresheaf")] == []


def test_model_stays_the_builder_after_the_checks_load():
    """``semantics.model`` is both a submodule and the function the package
    exports; importing the checks (which import the submodule) must not
    rebind the package's name to the module."""
    built = _run("import json\n"
                 "import substkit.semantics.checks\n"
                 "from substkit.semantics import OptionMonad, Model, model\n"
                 "print(json.dumps(isinstance(model(OptionMonad(), {'b': 1}), Model)))")
    assert built is True


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_unit_of_each_workload_imports_nothing_new(name):
    """Set-up imports what the units run, so no compile time lands in the
    first unit's ``wall_s``."""
    new = _run("import json, sys\n"
               "from workloads import WORKLOADS\n"
               "from substkit.report import Report\n"
               f"units = WORKLOADS[{name!r}].prepare({ACCEPTANCE_SEED})\n"
               "before = set(sys.modules)\n"
               "units[0][1](Report())\n"
               "print(json.dumps(sorted(m for m in set(sys.modules) - before "
               "if m.startswith('substkit'))))")
    assert new == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_workload_defines_a_dataclass_at_set_up(name):
    """The value classes a workload loads derive from ``sorts.Value``: a
    dataclass compiles and runs its generated methods when its module loads,
    so each one adds to ``setup_s``."""
    found = _run("import dataclasses, json, sys\n"
                 "from workloads import WORKLOADS\n"
                 f"WORKLOADS[{name!r}].prepare({ACCEPTANCE_SEED})\n"
                 "print(json.dumps(sorted(f'{m}.{k}' for m, mod in list(sys.modules.items())\n"
                 "    if m.startswith('substkit') for k, v in vars(mod).items()\n"
                 "    if isinstance(v, type) and v.__module__ == m\n"
                 "    and dataclasses.is_dataclass(v))))")
    assert found == []
