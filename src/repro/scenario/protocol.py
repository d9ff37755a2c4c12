"""Measurement protocols: warm-up/measure windows and execution time.

These are the procedures every experiment shares once its system is
built: warm up, reset, measure IPC over a window; or run a finite
workload to completion and report its finish time.  The figure drivers
(via :mod:`repro.experiments.common`) and the scenario runner both call
these, so the measurement semantics cannot drift between the imperative
and declarative paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .defaults import (
    DEFAULT_EXEC_MAX_TICKS,
    DEFAULT_MEASURE_TICKS,
    DEFAULT_WARMUP_TICKS,
    EXEC_TIME_CHUNK_TICKS,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.system import VirtualizedSystem
    from repro.hypervisor.vm import VirtualMachine


def measured_ipc(
    system: "VirtualizedSystem",
    vm: "VirtualMachine",
    warmup_ticks: int = DEFAULT_WARMUP_TICKS,
    measure_ticks: int = DEFAULT_MEASURE_TICKS,
) -> float:
    """Warm up, reset, measure: the VM's IPC over the window."""
    system.run_ticks(warmup_ticks)
    vm.reset_metrics()
    system.run_ticks(measure_ticks)
    return vm.vcpus[0].ipc


def execution_time_sec(
    system: "VirtualizedSystem",
    vm: "VirtualMachine",
    max_ticks: int = DEFAULT_EXEC_MAX_TICKS,
    chunk_ticks: int = EXEC_TIME_CHUNK_TICKS,
) -> float:
    """Run until ``vm`` finishes and return its completion time (seconds).

    Ticks advance in chunks of ``chunk_ticks`` through
    :meth:`~repro.hypervisor.system.VirtualizedSystem.run_ticks_until`
    with a per-tick finish check, so the simulation stops on exactly the
    tick the VM completes (identical ``finish_usec`` to a tick-by-tick
    loop) without paying a Python call round-trip per tick — see
    BENCH_pr4_exec_time.json for the measured speedup.
    """
    if chunk_ticks <= 0:
        raise ValueError(f"chunk_ticks must be positive, got {chunk_ticks}")
    while not vm.finished:
        remaining = max_ticks - system.tick_index
        if remaining <= 0:
            raise RuntimeError(budget_exhausted_message(system, vm, max_ticks))
        system.run_ticks_until(min(chunk_ticks, remaining), lambda: vm.finished)
    finish_usec = vm.finish_time_usec
    assert finish_usec is not None
    return finish_usec / 1e6


def budget_exhausted_message(
    system: "VirtualizedSystem", vm: "VirtualMachine", max_ticks: int
) -> str:
    """Diagnosable tick-budget failure: simulated time + VM progress.

    Campaign artifacts capture this text verbatim, so it must say *how
    far* the VM got, not just that the budget ran out.
    """
    elapsed_sim_sec = system.now_usec / 1e6
    done = sum(vcpu.progress.instructions_done for vcpu in vm.vcpus)
    total = sum(
        vcpu.progress.workload.total_instructions or 0.0 for vcpu in vm.vcpus
    )
    progress = f"{done:.4g}/{total:.4g} instructions"
    if total > 0:
        progress += f" ({100.0 * done / total:.1f}%)"
    return (
        f"{vm.name} did not finish within {max_ticks} ticks "
        f"({elapsed_sim_sec:.3f} simulated seconds); progress: {progress}"
    )
