"""Performance model coupling cache occupancy to execution speed.

Translates "this vCPU ran for N cycles while holding a fraction of its
working set in the LLC" into instructions retired and LLC misses suffered.
This is where the paper's measured latencies (L1 4 / L2 12 / LLC 45 /
memory 180 cycles) enter the model, and it is the source of every IPC and
miss-rate number in the reproduction.

The model:

* ``base_cpi`` covers execution plus all private-cache (L1/L2) activity.
* ``lapki`` LLC-reaching accesses per kilo-instruction.  An access hits
  with probability :func:`hit_probability` (a concave function of how much
  of the working set is resident, skewed by a locality exponent) and costs
  the LLC latency; otherwise it costs the (local or remote) memory latency.
* ``mlp`` divides the memory stall — overlapped misses hide latency.

Hence ``cpi = base_cpi + (lapki/1000) * avg_access_cycles / mlp`` and the
number of instructions that fit in a cycle budget follows directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.hardware.latency import LatencyModel


@dataclass(frozen=True)
class CacheBehavior:
    """Cache-relevant characterisation of an application.

    Attributes:
        wss_lines: working-set size in LLC lines (64 B each by default).
        lapki: LLC-reaching accesses per kilo-instruction.
        base_cpi: cycles per instruction excluding LLC/memory stalls.
        locality_theta: exponent of the hit-probability curve.  1.0 means
            uniform reuse over the working set; values < 1 mean a hot
            subset keeps hitting even when little of the set is resident.
        stream_fraction: fraction of LLC accesses that can never hit
            (compulsory/streaming traffic); these always insert.
        mlp: memory-level parallelism factor (>= 1) dividing miss stalls.
        pollution_footprint_lines: optional bound on the LLC lines the
            application effectively occupies, when smaller than its
            working set.  Models how adaptive replacement policies on
            modern LLCs confine pure streaming traffic: scanned-through
            lines are dead on arrival and get recycled within a limited
            region instead of flushing co-runners.  None means the
            working-set size bounds occupancy (the default).
    """

    wss_lines: float
    lapki: float
    base_cpi: float = 0.8
    locality_theta: float = 1.0
    stream_fraction: float = 0.0
    mlp: float = 1.0
    pollution_footprint_lines: Optional[float] = None

    def __post_init__(self) -> None:
        if self.wss_lines < 0:
            raise ValueError(f"wss_lines must be >= 0, got {self.wss_lines}")
        if self.lapki < 0:
            raise ValueError(f"lapki must be >= 0, got {self.lapki}")
        if self.base_cpi <= 0:
            raise ValueError(f"base_cpi must be > 0, got {self.base_cpi}")
        if not 0 < self.locality_theta <= 4.0:
            raise ValueError(
                f"locality_theta must be in (0, 4], got {self.locality_theta}"
            )
        if not 0.0 <= self.stream_fraction <= 1.0:
            raise ValueError(
                f"stream_fraction must be in [0,1], got {self.stream_fraction}"
            )
        if self.mlp < 1.0:
            raise ValueError(f"mlp must be >= 1, got {self.mlp}")
        if (
            self.pollution_footprint_lines is not None
            and self.pollution_footprint_lines <= 0
        ):
            raise ValueError(
                "pollution_footprint_lines must be positive or None, got "
                f"{self.pollution_footprint_lines}"
            )

    @property
    def footprint_cap_lines(self) -> float:
        """Bound on LLC occupancy: the pollution footprint if set, else
        the working-set size."""
        if self.pollution_footprint_lines is not None:
            return min(self.pollution_footprint_lines, self.wss_lines)
        return self.wss_lines


class StepResult(NamedTuple):
    """Outcome of executing one vCPU for a cycle budget.

    A NamedTuple rather than a dataclass: one is constructed per core per
    sub-step, and tuple construction is measurably cheaper there.
    """

    cycles: int
    instructions: float
    llc_accesses: float
    llc_misses: float
    cpi: float

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the step."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


def hit_probability(behavior: CacheBehavior, occupancy_lines: float) -> float:
    """Probability that an LLC-reaching access hits, given residency.

    ``resident = occupancy / wss`` is the fraction of the working set in
    the cache; the reusable (non-streaming) accesses hit with probability
    ``resident ** theta``.  ``theta < 1`` models locality: the resident
    lines tend to be the hot ones, so hit probability rises quickly.
    """
    if behavior.wss_lines <= 0 or behavior.lapki == 0:
        return 1.0
    resident = min(1.0, max(0.0, occupancy_lines / behavior.wss_lines))
    reuse_hit = resident ** behavior.locality_theta
    return (1.0 - behavior.stream_fraction) * reuse_hit


def cycles_per_instruction(
    behavior: CacheBehavior,
    hit_prob: float,
    latency: LatencyModel,
    remote_memory: bool = False,
) -> float:
    """Effective CPI for a given LLC hit probability."""
    access_cost = (
        hit_prob * latency.llc_cycles
        + (1.0 - hit_prob) * latency.memory_cycles_for(remote_memory)
    )
    return behavior.base_cpi + (behavior.lapki / 1000.0) * access_cost / behavior.mlp


def solo_ipc(
    behavior: CacheBehavior,
    latency: LatencyModel,
    warm: bool = True,
) -> float:
    """Steady-state IPC of the application running alone.

    ``warm=True`` assumes the working set (up to LLC capacity) is already
    loaded — the state an application reaches after its first time slice.
    Callers that want cold-start behaviour pass ``warm=False``.
    """
    occupancy = behavior.wss_lines if warm else 0.0
    hit = hit_probability(behavior, occupancy)
    return 1.0 / cycles_per_instruction(behavior, hit, latency)


def execute_step(
    behavior: CacheBehavior,
    occupancy_lines: float,
    cycles: int,
    latency: LatencyModel,
    remote_memory: bool = False,
) -> StepResult:
    """Run the application for ``cycles`` with frozen occupancy.

    Returns the instructions retired, LLC accesses and misses produced in
    the step.  The caller (the machine simulator) is responsible for
    feeding the misses back into the shared
    :class:`~repro.cachesim.occupancy.LlcOccupancyDomain` and updating the
    occupancy used for the *next* step — that feedback loop at sub-tick
    granularity is what creates the contention dynamics.

    This function is the *reference semantics* for the step arithmetic.
    The batched tick engine (``repro.hypervisor.batch``) re-implements
    the same chain over slot locals (inline in
    ``BatchTickEngine.execute_tick``) and is pinned bit-identical to it
    by property tests and the experiment goldens; any change to an
    expression here must be mirrored there (and vice versa), keeping the
    evaluation order of every float operation intact.
    """
    if cycles < 0:
        raise ValueError(f"cycles must be >= 0, got {cycles}")
    # hit_probability and cycles_per_instruction, inlined: this runs once
    # per core per sub-step and the two call frames are measurable there.
    # The arithmetic must stay expression-for-expression identical to the
    # standalone helpers (results are pinned by experiment goldens).
    if behavior.wss_lines <= 0 or behavior.lapki == 0:
        hit = 1.0
    else:
        resident = min(1.0, max(0.0, occupancy_lines / behavior.wss_lines))
        reuse_hit = resident ** behavior.locality_theta
        hit = (1.0 - behavior.stream_fraction) * reuse_hit
    access_cost = (
        hit * latency.llc_cycles
        + (1.0 - hit) * latency.memory_cycles_for(remote_memory)
    )
    cpi = behavior.base_cpi + (behavior.lapki / 1000.0) * access_cost / behavior.mlp
    instructions = cycles / cpi
    llc_accesses = instructions * behavior.lapki / 1000.0
    llc_misses = llc_accesses * (1.0 - hit)
    return StepResult(
        cycles=cycles,
        instructions=instructions,
        llc_accesses=llc_accesses,
        llc_misses=llc_misses,
        cpi=cpi,
    )
