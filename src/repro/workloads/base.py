"""Workload abstractions.

A :class:`Workload` is what a VM runs: a cache behaviour (how it exercises
the memory hierarchy) plus an optional amount of work (total instructions)
after which it completes.  Workloads with ``total_instructions=None`` run
forever — the usual setup for the contention experiments, where metrics
are rates (IPC, misses per millisecond) rather than completion times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cachesim.perfmodel import CacheBehavior

#: Bytes per LLC line used when converting working-set sizes.
LINE_BYTES = 64


def bytes_to_lines(size_bytes: float) -> float:
    """Convert a working-set size in bytes to LLC lines."""
    return size_bytes / LINE_BYTES


@dataclass
class Workload:
    """An application a VM executes.

    Attributes:
        name: application name (e.g. ``"gcc"``, ``"lbm"``, ``"micro-6MB"``).
        behavior: cache-level characterisation driving the perf model.
        total_instructions: amount of work; None means run forever.
        description: free-text provenance note.
    """

    name: str
    behavior: CacheBehavior
    total_instructions: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.total_instructions is not None and self.total_instructions <= 0:
            raise ValueError(
                f"total_instructions must be positive or None, "
                f"got {self.total_instructions}"
            )

    def finite(self, total_instructions: float) -> "Workload":
        """Copy of this workload with a fixed amount of work."""
        return Workload(
            name=self.name,
            behavior=self.behavior,
            total_instructions=total_instructions,
            description=self.description,
        )

    @property
    def is_finite(self) -> bool:
        return self.total_instructions is not None


@dataclass
class WorkloadProgress:
    """Mutable execution state of one workload instance on a vCPU."""

    workload: Workload
    instructions_done: float = 0.0
    finished_at_usec: Optional[int] = None

    @property
    def done(self) -> bool:
        """True once the (finite) workload has retired all instructions."""
        if self.workload.total_instructions is None:
            return False
        return self.instructions_done >= self.workload.total_instructions

    def advance(self, instructions: float) -> None:
        if instructions < 0:
            raise ValueError(f"cannot retire {instructions} instructions")
        self.instructions_done += instructions

    @property
    def remaining_instructions(self) -> float:
        """Instructions left (infinity for endless workloads)."""
        if self.workload.total_instructions is None:
            return float("inf")
        return max(0.0, self.workload.total_instructions - self.instructions_done)
