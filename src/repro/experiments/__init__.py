"""Experiment drivers: one module per paper figure/table.

Each ``figNN`` module exposes ``run(...) -> FigNNResult`` plus
``format_report(result) -> str``; benchmarks and examples are thin
wrappers over these.

The package imports no driver itself: ``from repro.experiments import
fig01`` loads ``fig01`` alone, and reading ``repro.experiments.fig01``
imports it on first access (PEP 562).  :mod:`repro.lazy` does not fit
here: its exports may not share a submodule's name.
"""

from __future__ import annotations

import importlib
from typing import Any, List

__all__ = [
    "export",
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "tables",
]


def __getattr__(name: str) -> Any:
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing binds the submodule on the package, so this runs once per name.
    return importlib.import_module(f"{__name__}.{name}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
