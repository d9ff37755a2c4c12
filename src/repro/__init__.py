"""Kyoto: pollution permits for the shared last-level cache.

A full reproduction of *"Mitigating performance unpredictability in the
IaaS using the Kyoto principle"* (Tchana et al., Middleware 2016) as a
simulation-backed Python library:

* :mod:`repro.core` — the Kyoto contribution: pollution permits
  (``llc_cap``), equation 1, monitoring, and the KS4Xen / KS4Linux
  scheduler extensions;
* :mod:`repro.pisces` — the Pisces co-kernel substrate and KS4Pisces;
* :mod:`repro.hypervisor`, :mod:`repro.schedulers` — VMs, vCPUs, the
  virtualized machine simulation, XCS and CFS;
* :mod:`repro.cachesim`, :mod:`repro.hardware`, :mod:`repro.pmc` — the
  cache/contention substrate, machine specs and performance counters;
* :mod:`repro.workloads` — calibrated SPEC CPU2006 / blockie profiles and
  the pointer-chase micro-benchmark;
* :mod:`repro.mcsim` — the pin + McSimA+-style replay service;
* :mod:`repro.faults` — deterministic fault injection for the
  monitoring path, paired with :class:`repro.core.ResilientMonitor`
  (docs/faults.md);
* :mod:`repro.analysis`, :mod:`repro.experiments` — metrics, Kendall's
  tau, and one driver per paper figure/table.

Quickstart::

    from repro import KS4Xen, VirtualizedSystem, VmConfig, application_workload

    system = VirtualizedSystem(KS4Xen())
    sensitive = system.create_vm(VmConfig(
        name="vsen1", workload=application_workload("gcc"),
        llc_cap=250_000, pinned_cores=[0]))
    disruptor = system.create_vm(VmConfig(
        name="vdis1", workload=application_workload("lbm"),
        llc_cap=250_000, pinned_cores=[1]))
    system.run_msec(1_000)
    print(sensitive.ipc, system.scheduler.kyoto.punishments(disruptor))

The names below resolve on first access (:mod:`repro.lazy`), so
``import repro.core.ks4xen`` loads the simulator and nothing else.
"""

from repro.lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "analysis": (
        "degradation_percent",
        "kendall_tau",
        "normalized_performance",
        "slowdown_percent",
    ),
    "core": (
        "DirectPmcMonitor",
        "KS4Linux",
        "KS4Xen",
        "KyotoEngine",
        "McSimReplayMonitor",
        "MonitorError",
        "PollutionAccount",
        "ResilientMonitor",
        "SocketDedicationSampler",
        "llc_cap_act",
    ),
    "faults": ("FaultPlan", "FaultSpec"),
    "hardware": ("MachineSpec", "numa_machine", "paper_machine"),
    "hypervisor": ("VCpu", "VirtualMachine", "VirtualizedSystem", "VmConfig"),
    "pisces": ("KS4Pisces", "PiscesCoKernel"),
    "schedulers": ("CfsScheduler", "CreditScheduler"),
    "workloads": ("application_workload", "micro_workload", "vm_workload"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
