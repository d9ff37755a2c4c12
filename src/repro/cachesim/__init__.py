"""Cache simulation: faithful set-associative caches and the analytical
shared-LLC occupancy/contention model.

Every name below is importable from this package; its submodule is
imported on first access (:mod:`repro.lazy`).
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "hierarchy": ("CacheHierarchy", "HierarchyAccess", "ServiceLevel"),
    "occupancy": ("InsertionOutcome", "LlcOccupancyDomain"),
    "perfmodel": (
        "CacheBehavior",
        "StepResult",
        "cycles_per_instruction",
        "execute_step",
        "hit_probability",
        "solo_ipc",
    ),
    "replacement": (
        "BipPolicy",
        "DipPolicy",
        "LruPolicy",
        "ProtectingDistancePolicy",
        "RandomPolicy",
        "ReplacementPolicy",
        "SetState",
        "make_policy",
    ),
    "setassoc": ("AccessResult", "CacheLine", "NO_OWNER", "SetAssociativeCache"),
    "stats": ("AccessStats", "CacheStats"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
