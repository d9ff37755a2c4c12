"""Hypervisor layer: VMs, vCPUs, the virtualized machine simulation and
vCPU migration policies.

Every name below is importable from this package; its submodule is
imported on first access (:mod:`repro.lazy`).
"""

from repro.lazy import lazy_exports

_EXPORTS = {
    "migration": ("PeriodicMigrator",),
    "system": ("HypervisorError", "TickObserver", "VirtualizedSystem"),
    "vcpu": ("VCpu",),
    "vm": ("VirtualMachine", "VmConfig"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
