"""Cold-start pins: the simulator imports only what it runs.

* A fresh interpreter that imports what the benchmark workloads import
  loads no linter, scenario, analysis, experiment, fault, McSim or Pisces
  module.
* The lazy packages (:mod:`repro.lazy`) keep every re-export importable
  from the same place, ``import *`` and ``dir()`` included.
* The quickstart example and the README quickstart still run.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Packages whose re-exports resolve on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.cachesim",
    "repro.core",
    "repro.hypervisor",
    "repro.schedulers",
    "repro.workloads",
)

#: What the ``dense_fleet`` and ``churn_stream`` benchmark workloads import.
SIMULATOR_MODULES = (
    "repro.core.ks4xen",
    "repro.hypervisor.system",
    "repro.workloads.profiles",
    "repro.service",
)

#: Packages the simulator must not load.
FORBIDDEN = (
    "repro.lint",
    "repro.scenario",
    "repro.analysis",
    "repro.experiments",
    "repro.faults",
    "repro.mcsim",
    "repro.pisces",
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=120,
    )


# -- import hygiene ---------------------------------------------------------------


def test_simulator_imports_no_tooling_or_drivers():
    script = (
        "import json, sys\n"
        + "".join(f"import {name}\n" for name in SIMULATOR_MODULES)
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    completed = _python("-c", script)
    assert completed.returncode == 0, completed.stderr
    loaded = json.loads(completed.stdout)
    leaked = [
        name
        for name in loaded
        if any(name == root or name.startswith(root + ".") for root in FORBIDDEN)
    ]
    assert leaked == []


def _defines_getattr(init: Path) -> bool:
    tree = ast.parse(init.read_text(encoding="utf-8"))
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            for target in node.targets:
                targets.extend(target.elts if isinstance(target, ast.Tuple) else [target])
        elif isinstance(node, ast.FunctionDef):
            targets.append(ast.Name(id=node.name))
        if any(isinstance(t, ast.Name) and t.id == "__getattr__" for t in targets):
            return True
    return False


def test_lazy_package_list_is_complete():
    found = sorted(
        ".".join(init.parent.relative_to(SRC).parts)
        for init in (SRC / "repro").rglob("__init__.py")
        if _defines_getattr(init)
    )
    assert found == sorted(LAZY_PACKAGES)


# -- lazy exports -----------------------------------------------------------------


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_exports_resolve_to_their_defining_submodule(package):
    module = importlib.import_module(package)
    table = module._EXPORTS
    assert sorted(name for name in module.__all__ if name != "__version__") == sorted(
        name for names in table.values() for name in names
    )
    for submodule, names in table.items():
        origin = importlib.import_module(f"{package}.{submodule}")
        for name in names:
            assert getattr(module, name) is getattr(origin, name), name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_export(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        getattr(module, "no_such_export")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_no_export_shadows_a_submodule(package):
    # The import system binds a submodule as a package attribute once it
    # is imported, so an export sharing its name would turn into the module.
    module = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    assert submodules & set(module.__all__) == set()


# -- examples ---------------------------------------------------------------------


def test_quickstart_example_runs():
    completed = _python(str(REPO / "examples" / "quickstart.py"))
    assert completed.returncode == 0, completed.stderr
    assert "punishments" in completed.stdout


def test_readme_quickstart_runs_in_a_fresh_interpreter():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert snippet.startswith(
        "from repro import KS4Xen, VirtualizedSystem, VmConfig, application_workload\n"
    )
    completed = _python("-c", snippet)
    assert completed.returncode == 0, completed.stderr
