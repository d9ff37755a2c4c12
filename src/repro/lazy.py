"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
eagerly makes every ``import repro.x.y`` pay for all of ``repro.x``'s
submodules, used or not.  :func:`lazy_exports` keeps the same public
names importable from the package but imports a submodule only when one
of its names is first read; the value is then cached on the package, so
later reads are plain attribute lookups::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "engine": ("KyotoEngine",),
        "ks4xen": ("KS4Xen",),
    })

Simulation code imports from the defining submodule, never from a lazy
package, so the simulator loads only what it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Build ``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``table`` maps each submodule (relative to ``package``) to the names it
    contributes.  No name may equal a submodule of ``package``: the import
    system binds an imported submodule as a package attribute, so such a
    name would stop resolving to the export.
    """
    origin: Dict[str, str] = {
        name: submodule for submodule, names in table.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        submodule = origin.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
