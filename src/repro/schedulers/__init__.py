"""vCPU schedulers: the Xen credit scheduler (XCS) and a CFS-style fair
scheduler, both extensible by the Kyoto pollution-permit layer.

Every name below is importable from this package; its submodule is
imported on first access (:mod:`repro.lazy`).
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "base": ("Scheduler",),
    "cfs": ("CfsAccount", "CfsScheduler", "NICE0_WEIGHT"),
    "credit": ("CREDITS_PER_TICK", "CreditAccount", "CreditScheduler"),
    "rtds": ("RtServer", "RtdsScheduler"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
