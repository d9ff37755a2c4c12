"""Cold-start pins: the simulator imports only what it runs.

* A fresh interpreter that imports what the benchmark workloads import
  loads no linter, scenario, analysis, experiment, fault, McSim or Pisces
  module.
* The figure campaign loads only the drivers it resolves, and the CLI
  loads no experiment, scenario or simulator module before it dispatches.
* The lazy packages (:mod:`repro.lazy`) keep every re-export importable
  from the same place, ``import *`` and ``dir()`` included.
* Every example script and the README quickstart still run.
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
    "repro.analysis",
    "repro.cachesim",
    "repro.core",
    "repro.hypervisor",
    "repro.schedulers",
    "repro.workloads",
)

#: Packages that import a submodule on first attribute access.
LAZY_SUBMODULE_PACKAGES = ("repro.experiments",)

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


#: Layers no paper figure or table uses.
CAMPAIGN_FORBIDDEN = (
    "repro.mcsim",
    "repro.service",
    "repro.partitioning",
    "repro.herd",
    "repro.lint",
    "repro.experiments.chaos",
    "repro.experiments.ablations",
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
    script = "".join(f"import {name}\n" for name in SIMULATOR_MODULES)
    assert _under(_modules_after(script), FORBIDDEN) == []


def _modules_after(script: str) -> list:
    """``sys.modules`` of a fresh interpreter after ``script``, sorted."""
    completed = _python(
        "-c", script + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _under(loaded: list, roots: tuple) -> list:
    return [
        name
        for name in loaded
        if any(name == root or name.startswith(root + ".") for root in roots)
    ]


def test_figure_campaign_loads_only_its_drivers():
    resolve_all = (
        "from repro.experiments import campaign\n"
        "from repro.experiments.registry import expand_names, resolve\n"
        "names, unknown = expand_names(['all'])\n"
        "assert not unknown and names\n"
        "for name in names:\n"
        "    resolve(name)\n"
    )
    loaded = _modules_after(resolve_all)
    assert _under(loaded, CAMPAIGN_FORBIDDEN) == []
    assert "multiprocessing" not in loaded
    assert {"repro.experiments.fig01", "repro.experiments.tables"} <= set(loaded)

    loaded = _modules_after(resolve_all + "resolve('chaos')\nresolve('abl-enforce')\n")
    assert {
        "repro.experiments.chaos",
        "repro.experiments.ablations",
        "repro.partitioning",
        "repro.core.memguard",
    } <= set(loaded)


@pytest.mark.parametrize(
    "argv",
    [None, ["--help"], ["list"], ["lint", "src/repro/lazy.py"]],
    ids=["import", "help", "list", "lint"],
)
def test_cli_loads_no_experiment_or_simulator_module(argv):
    script = "import repro.cli\n"
    if argv is not None:
        script += (
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        repro.cli.main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass\n"
        )
    loaded = _modules_after(script)
    assert _under(loaded, ("repro.scenario", "repro.hypervisor")) == []
    assert [name for name in loaded if name.startswith("repro.experiments.fig")] == []


def test_kendall_tau_loads_no_scenario_module():
    loaded = _modules_after("from repro import kendall_tau\n")
    assert "repro.analysis.kendall" in loaded
    assert _under(loaded, ("repro.scenario",)) == []


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
    assert found == sorted(LAZY_PACKAGES + LAZY_SUBMODULE_PACKAGES)


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


@pytest.mark.parametrize("package", LAZY_SUBMODULE_PACKAGES)
def test_attribute_access_imports_the_submodule(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is importlib.import_module(f"{package}.{name}")
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        getattr(module, "no_such_submodule")


def test_experiments_package_imports_no_driver():
    loaded = _modules_after("import repro.experiments\n")
    assert _under(loaded, ("repro.experiments",)) == ["repro.experiments"]
    loaded = _modules_after("import repro.experiments\nrepro.experiments.fig01\n")
    assert "repro.experiments.fig01" in loaded


# -- examples ---------------------------------------------------------------------


#: Text an example's output must contain, beyond being non-empty.
EXAMPLE_EXPECTS = {"quickstart.py": "punishments"}


@pytest.mark.parametrize(
    "script", sorted((REPO / "examples").glob("*.py")), ids=lambda path: path.name
)
def test_example_runs(script):
    completed = _python(str(script))
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
    assert EXAMPLE_EXPECTS.get(script.name, "") in completed.stdout


def test_readme_quickstart_runs_in_a_fresh_interpreter():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert snippet.startswith(
        "from repro import KS4Xen, VirtualizedSystem, VmConfig, application_workload\n"
    )
    completed = _python("-c", snippet)
    assert completed.returncode == 0, completed.stderr
