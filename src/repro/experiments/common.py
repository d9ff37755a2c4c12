"""Shared helpers for the per-figure experiment drivers.

Every experiment driver follows the same pattern: describe its setup as
a :class:`~repro.scenario.spec.ScenarioSpec` (or build a
:class:`~repro.hypervisor.system.VirtualizedSystem` directly for the
few bespoke cases), warm it up, measure over a window, and return a
small result dataclass that its ``format_report`` renders with
:mod:`repro.analysis.reporting`.

The measurement protocols and the paper constants live in
:mod:`repro.scenario` — this module re-exports them so drivers (and
downstream users) keep one import point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.specs import MachineSpec, paper_machine
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.schedulers.base import Scheduler
from repro.schedulers.credit import CreditScheduler
from repro.scenario.defaults import (
    DEFAULT_MEASURE_TICKS,
    DEFAULT_WARMUP_TICKS,
    PAPER_LLC_CAP,
    PAPER_SMALL_LLC_CAP,
)
from repro.scenario.protocol import execution_time_sec, measured_ipc
from repro.workloads.base import Workload

__all__ = [
    "DEFAULT_MEASURE_TICKS",
    "DEFAULT_WARMUP_TICKS",
    "PAPER_LLC_CAP",
    "PAPER_SMALL_LLC_CAP",
    "ExecTimeResult",
    "build_system",
    "execution_time_sec",
    "measured_ipc",
    "solo_ipc_of",
]


def build_system(
    scheduler: Optional[Scheduler] = None,
    machine: Optional[MachineSpec] = None,
    **kwargs,
) -> VirtualizedSystem:
    """A system on the paper's machine with the given scheduler (XCS
    default)."""
    return VirtualizedSystem(
        scheduler if scheduler is not None else CreditScheduler(),
        machine if machine is not None else paper_machine(),
        **kwargs,
    )


def solo_ipc_of(
    workload: Workload,
    machine: Optional[MachineSpec] = None,
    warmup_ticks: int = DEFAULT_WARMUP_TICKS,
    measure_ticks: int = DEFAULT_MEASURE_TICKS,
) -> float:
    """Solo-run IPC of a workload pinned to core 0."""
    system = build_system(machine=machine)
    vm = system.create_vm(VmConfig(name="solo", workload=workload, pinned_cores=[0]))
    return measured_ipc(system, vm, warmup_ticks, measure_ticks)


@dataclass
class ExecTimeResult:
    """Execution time of a finite workload under some setup."""

    label: str
    seconds: float
