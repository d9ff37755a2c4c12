"""What-if colocation advisor.

Before placing a VM next to others, a provider wants to know: *how much
will they hurt each other?*  The advisor answers offline, in two tiers:

1. **Analytical prediction** (:meth:`ColocationAdvisor.assess`): solve
   the shared-LLC mean-field equilibrium — the same waterfilled
   occupancy model the machine simulation runs on, and which the
   ``abl-model`` ablation checks against the faithful simulator —
   directly for the candidate set.  Microseconds per query.
2. **Faithful cross-check** (:meth:`ColocationAdvisor.cross_check`):
   co-run the workloads' pin-captured traces through the line-accurate
   shared LLC (McSimA+'s manycore mode), optionally set-sampled for
   speed, to confirm the predicted miss-pressure ordering on real
   replacement behaviour.

Admission control (:meth:`ColocationAdvisor.admit`) uses tier 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cachesim.occupancy import waterfill_allocation
from repro.cachesim.perfmodel import (
    cycles_per_instruction,
    hit_probability,
)
from repro.hardware.specs import CacheSpec, MachineSpec, paper_machine
from repro.workloads.base import Workload

from .multicore import CoRunReport, MultiCoreReplayer
from .pin import CaptureConfig, PinTool


def set_sampled_machine(machine: MachineSpec, factor: int) -> MachineSpec:
    """Shrink the LLC by ``factor`` (the *set sampling* of real sampling
    simulators: simulate 1/factor of the sets; with set-uniform address
    streams, a cache with 1/factor of the sets and a 1/factor working set
    behaves like the full system)."""
    socket = machine.sockets[0]
    llc = socket.llc
    sampled_sets = llc.num_sets // factor
    if sampled_sets < 1:
        raise ValueError(
            f"sampling factor {factor} leaves no sets "
            f"(LLC has {llc.num_sets})"
        )
    sampled = CacheSpec(
        llc.name,
        sampled_sets * llc.associativity * llc.line_bytes,
        llc.associativity,
        line_bytes=llc.line_bytes,
        shared=True,
    )
    return dataclasses.replace(
        machine,
        sockets=tuple(
            dataclasses.replace(s, llc=sampled) for s in machine.sockets
        ),
    )


def set_sampled_workload(workload: Workload, factor: int) -> Workload:
    """The trace-side half of set sampling: shrink the working set (and
    pollution footprint) by the sampling factor."""
    behavior = workload.behavior
    scaled = dataclasses.replace(
        behavior,
        wss_lines=max(1.0, behavior.wss_lines / factor),
        pollution_footprint_lines=(
            max(1.0, behavior.pollution_footprint_lines / factor)
            if behavior.pollution_footprint_lines is not None
            else None
        ),
    )
    return Workload(
        name=workload.name,
        behavior=scaled,
        description=f"{workload.description} (1/{factor} set sample)",
    )


@dataclass
class ColocationAssessment:
    """Predicted outcome of colocating a set of workloads."""

    #: workload name -> predicted IPC degradation (%) vs running solo.
    predicted_degradation: Dict[str, float] = field(default_factory=dict)
    #: workload name -> predicted LLC occupancy (lines) at equilibrium.
    predicted_occupancy: Dict[str, float] = field(default_factory=dict)
    #: workload name -> predicted pollution rate (misses/ms) contended.
    predicted_pollution: Dict[str, float] = field(default_factory=dict)

    @property
    def worst_degradation(self) -> float:
        if not self.predicted_degradation:
            return 0.0
        return max(self.predicted_degradation.values())

    def acceptable(self, degradation_budget_percent: float) -> bool:
        """True if every workload stays within the degradation budget."""
        return self.worst_degradation <= degradation_budget_percent


class ColocationAdvisor:
    """Predicts colocation interference before any VM feels it."""

    def __init__(
        self,
        machine: Optional[MachineSpec] = None,
        capture_config: Optional[CaptureConfig] = None,
        sampling_factor: int = 16,
        iterations: int = 200,
    ) -> None:
        if sampling_factor < 1:
            raise ValueError(
                f"sampling_factor must be >= 1, got {sampling_factor}"
            )
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.machine = machine if machine is not None else paper_machine()
        self.capture_config = capture_config
        self.sampling_factor = sampling_factor
        self.iterations = iterations
        self._pin = PinTool(capture_config)

    # -- tier 1: analytical equilibrium ---------------------------------------

    def assess(self, workloads: Sequence[Workload]) -> ColocationAssessment:
        """Solve the contention equilibrium for ``workloads`` together."""
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValueError(f"workload names must be unique, got {names}")
        if not workloads:
            raise ValueError("assess needs at least one workload")
        socket = self.machine.sockets[0]
        capacity = float(socket.llc.num_lines)
        latency = self.machine.latency
        freq_khz = socket.freq_khz  # kHz is numerically cycles per ms

        behaviors = {w.name: w.behavior for w in workloads}
        caps = {
            name: behavior.footprint_cap_lines
            for name, behavior in behaviors.items()
        }
        # Fixed point: occupancy -> miss rates -> waterfilled occupancy.
        # Contention equilibria can be multi-stable (elastic reuse-heavy
        # workloads exhibit hysteresis); seed from the warm state — every
        # working set resident up to capacity — which is where a real
        # host arrives after admission, and damp the iteration.
        occupancy = {
            name: min(caps[name], capacity) for name in behaviors
        }
        pressures: Dict[str, float] = {}
        for _ in range(self.iterations):
            for name, behavior in behaviors.items():
                hit = hit_probability(behavior, occupancy[name])
                cpi = cycles_per_instruction(behavior, hit, latency)
                inst_per_ms = freq_khz / cpi
                pressures[name] = (
                    inst_per_ms * behavior.lapki / 1000.0 * (1.0 - hit)
                )
            equilibrium = waterfill_allocation(capacity, pressures, caps)
            occupancy = {
                name: 0.5 * occupancy[name]
                + 0.5 * equilibrium.get(name, occupancy[name])
                for name in behaviors
            }

        assessment = ColocationAssessment()
        for workload in workloads:
            behavior = behaviors[workload.name]
            solo_occ = min(behavior.wss_lines, capacity)
            solo_ipc = 1.0 / cycles_per_instruction(
                behavior, hit_probability(behavior, solo_occ), latency
            )
            hit = hit_probability(behavior, occupancy[workload.name])
            co_ipc = 1.0 / cycles_per_instruction(behavior, hit, latency)
            assessment.predicted_degradation[workload.name] = max(
                0.0, 100.0 * (1.0 - co_ipc / solo_ipc)
            )
            assessment.predicted_occupancy[workload.name] = occupancy[
                workload.name
            ]
            assessment.predicted_pollution[workload.name] = pressures[
                workload.name
            ]
        return assessment

    def admit(
        self,
        incumbent: Sequence[Workload],
        candidate: Workload,
        degradation_budget_percent: float = 15.0,
    ) -> bool:
        """Admission check: may ``candidate`` join ``incumbent``?

        Returns True when the predicted worst-case degradation across
        *everyone* (incumbents included — they have SLOs too) stays
        within the budget.
        """
        assessment = self.assess(list(incumbent) + [candidate])
        return assessment.acceptable(degradation_budget_percent)

    # -- tier 2: faithful cross-check ------------------------------------------

    def cross_check(
        self, workloads: Sequence[Workload]
    ) -> Dict[str, CoRunReport]:
        """Co-run set-sampled captures through the faithful shared LLC.

        Returns per-workload replay reports; useful to confirm the
        predicted miss-pressure ordering on real replacement behaviour.
        Captures are truncated to a common length so every workload stays
        active for the whole measured window.
        """
        machine = (
            set_sampled_machine(self.machine, self.sampling_factor)
            if self.sampling_factor > 1
            else self.machine
        )
        replayer = MultiCoreReplayer(machine)
        captures = {}
        for workload in workloads:
            scaled = (
                set_sampled_workload(workload, self.sampling_factor)
                if self.sampling_factor > 1
                else workload
            )
            captures[workload.name] = self._pin.capture(scaled)
        shortest = min(len(records) for records in captures.values())
        captures = {
            name: records[:shortest] for name, records in captures.items()
        }
        return replayer.co_run(captures)
