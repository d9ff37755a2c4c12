"""The Kyoto contribution: pollution permits, equation 1, monitoring, and
the scheduler ports (KS4Xen, KS4Linux, KS4RTDS; KS4Pisces lives in
:mod:`repro.pisces`), all built on the one ``KyotoScheduler`` mixin.

Every name below is importable from this package; its submodule is
imported on first access (:mod:`repro.lazy`).
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "engine": ("KyotoEngine", "KyotoScheduler"),
    "equation": ("llc_cap_act", "llcm_indicator"),
    "instances": (
        "CATALOG",
        "InstanceType",
        "LLC_CAP_PER_MEM_RATIO",
        "catalog_by_family",
        "instance",
        "llc_cap_for",
    ),
    "ks4linux": ("KS4Linux",),
    "ks4rtds": ("KS4RTDS",),
    "ks4xen": ("KS4Xen",),
    "memguard": ("BandwidthBudget", "MemGuardScheduler"),
    "monitor": (
        "DirectPmcMonitor",
        "IsolationPolicy",
        "McSimReplayMonitor",
        "MonitorError",
        "PollutionMonitor",
        "SocketDedicationMonitor",
        "SocketDedicationSampler",
    ),
    "pollution": ("PollutionAccount",),
    "resilient": ("CircuitBreaker", "ResilientMonitor"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
