"""Faithful multi-core co-simulation.

McSimA+ is a *manycore* simulator: it can replay several applications'
streams against one shared LLC.  This module adds that mode to the replay
substrate: each workload gets private L1/L2 hierarchies, all share one
set-associative LLC, and their trace records are interleaved in
round-robin execution order.  It serves two purposes:

* a second, independent check of the analytical occupancy model's
  contention predictions (see the ``abl-model`` ablation);
* "what-if colocation" queries a provider could run off-host before
  placing VMs together — the McSimA+ use-case the paper's monitoring
  protocol hints at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cachesim.hierarchy import CacheHierarchy
from repro.cachesim.replacement import make_policy
from repro.cachesim.setassoc import SetAssociativeCache
from repro.hardware.specs import MachineSpec, paper_machine
from repro.workloads.base import Workload

from .pin import CaptureConfig, PinTool, TraceRecord


@dataclass
class CoRunReport:
    """Per-workload outcome of a shared-LLC co-simulation."""

    name: str
    instructions: int = 0
    cycles: float = 0.0
    llc_accesses: int = 0
    llc_misses: int = 0
    llc_occupancy_lines: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def miss_ratio(self) -> float:
        if self.llc_accesses == 0:
            return 0.0
        return self.llc_misses / self.llc_accesses

    @property
    def misses_per_kinst(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.llc_misses * 1000.0 / self.instructions


class MultiCoreReplayer:
    """Replays several captures against one shared LLC."""

    def __init__(
        self,
        machine_spec: Optional[MachineSpec] = None,
        llc_policy: str = "lru",
        base_cpi: float = 0.8,
        warmup_fraction: float = 0.5,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0,1), got {warmup_fraction}"
            )
        self.spec = machine_spec if machine_spec is not None else paper_machine()
        self.llc_policy = llc_policy
        self.base_cpi = base_cpi
        self.warmup_fraction = warmup_fraction

    def co_run(
        self, captures: Dict[str, List[TraceRecord]]
    ) -> Dict[str, CoRunReport]:
        """Interleave the captures record-by-record through a shared LLC.

        Each workload runs on its own "core" (private L1/L2); records are
        scheduled round-robin, which approximates concurrent execution at
        record (kilo-instruction) granularity.
        """
        if not captures:
            raise ValueError("co_run needs at least one capture")
        socket = self.spec.sockets[0]
        if len(captures) > socket.cores:
            raise ValueError(
                f"{len(captures)} workloads exceed the socket's "
                f"{socket.cores} cores"
            )
        llc = SetAssociativeCache(socket.llc, make_policy(self.llc_policy))
        hierarchies = {
            name: CacheHierarchy(socket, self.spec.latency, llc=llc)
            for name in captures
        }
        owner_ids = {name: index for index, name in enumerate(captures)}
        reports = {name: CoRunReport(name=name) for name in captures}
        cursors = {name: 0 for name in captures}
        warmup_counts = {
            name: int(len(records) * self.warmup_fraction)
            for name, records in captures.items()
        }

        progressed = True
        while progressed:
            progressed = False
            for name, records in captures.items():
                cursor = cursors[name]
                if cursor >= len(records):
                    continue
                progressed = True
                record = records[cursor]
                cursors[name] = cursor + 1
                measuring = cursor >= warmup_counts[name]
                hierarchy = hierarchies[name]
                report = reports[name]
                record_cycles = record.instructions * self.base_cpi
                for address in record.addresses:
                    outcome = hierarchy.access(address, owner=owner_ids[name])
                    record_cycles += outcome.cycles
                    if measuring and outcome.level.value in ("LLC", "MEMORY"):
                        report.llc_accesses += 1
                        if outcome.llc_miss:
                            report.llc_misses += 1
                if measuring:
                    report.instructions += record.instructions
                    report.cycles += record_cycles
        for name, report in reports.items():
            report.llc_occupancy_lines = llc.occupancy_of(owner_ids[name])
        return reports


def co_run_workloads(
    workloads: Sequence[Workload],
    capture_config: Optional[CaptureConfig] = None,
    replayer: Optional[MultiCoreReplayer] = None,
) -> Dict[str, CoRunReport]:
    """Capture each workload with the pin tool and co-run them.

    Workload names must be unique (they key the reports).
    """
    names = [w.name for w in workloads]
    if len(set(names)) != len(names):
        raise ValueError(f"workload names must be unique, got {names}")
    pin = PinTool(capture_config)
    captures = {w.name: pin.capture(w) for w in workloads}
    if replayer is None:
        replayer = MultiCoreReplayer()
    return replayer.co_run(captures)
