"""Virtual CPUs.

A vCPU is the schedulable entity: it executes its VM's workload when a
scheduler places it on a core, and accumulates both *truth* metrics (known
exactly by the simulator) and, separately, virtualised PMC readings via
:mod:`repro.pmc.perfctr` — the distinction matters because Kyoto only gets
to see the latter.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.workloads.base import Workload, WorkloadProgress

if TYPE_CHECKING:  # pragma: no cover
    from .vm import VirtualMachine


class VCpu:
    """One virtual CPU of a VM."""

    def __init__(
        self,
        gid: int,
        vm: "VirtualMachine",
        index: int,
        workload: Workload,
        pinned_core: Optional[int] = None,
    ) -> None:
        #: Globally unique vCPU id (the cache-owner tag).
        self.gid = gid
        self.vm = vm
        #: Index of this vCPU within its VM.
        self.index = index
        self.progress = WorkloadProgress(workload)
        #: Core this vCPU is pinned to (None = scheduler's choice).
        self.pinned_core = pinned_core
        #: Core the vCPU currently occupies (None when descheduled).
        self.current_core: Optional[int] = None
        #: Set False by the hypervisor/scheduler to park the vCPU.
        self.paused = False

        # Truth metrics (simulator-exact; reset at measurement windows).
        self.instructions_retired = 0.0
        self.cycles_run = 0
        self.llc_accesses = 0.0
        self.llc_misses = 0.0
        # Fractional miss counts carried over so integer PMCs stay exact.
        self._miss_carry = 0.0
        self._instr_carry = 0.0
        self._access_carry = 0.0

    @property
    def name(self) -> str:
        return f"{self.vm.name}.v{self.index}"

    @property
    def workload(self) -> Workload:
        return self.progress.workload

    @property
    def runnable(self) -> bool:
        """True if the vCPU wants CPU time right now."""
        return not self.paused and not self.progress.done

    @property
    def is_running(self) -> bool:
        return self.current_core is not None

    @property
    def ipc(self) -> float:
        """Instructions per cycle over all cycles this vCPU ran."""
        if self.cycles_run == 0:
            return 0.0
        return self.instructions_retired / self.cycles_run

    def record_execution(
        self,
        cycles: int,
        instructions: float,
        llc_accesses: float,
        llc_misses: float,
    ) -> None:
        """Accumulate one execution step's truth metrics."""
        self.cycles_run += cycles
        self.instructions_retired += instructions
        self.llc_accesses += llc_accesses
        self.llc_misses += llc_misses
        self.progress.advance(instructions)

    def take_integer_misses(self, misses: float) -> int:
        """Convert fractional misses to an integer count, carrying remainder.

        Keeps the PMC counters integer-exact over time even though the
        analytical model produces fractional expected miss counts.
        """
        self._miss_carry += misses
        whole = int(self._miss_carry)
        self._miss_carry -= whole
        return whole

    def take_integer_instructions(self, instructions: float) -> int:
        """Same carry trick for the instruction counter."""
        self._instr_carry += instructions
        whole = int(self._instr_carry)
        self._instr_carry -= whole
        return whole

    def take_integer_accesses(self, accesses: float) -> int:
        """Same carry trick for the LLC-references counter.

        Truncating each sub-step's fractional access count separately
        (the old behaviour) dropped up to one access per sub-step, which
        systematically undercounted LLC_REFERENCES over a window.
        """
        self._access_carry += accesses
        whole = int(self._access_carry)
        self._access_carry -= whole
        return whole

    def batch_mirror(self):
        """Snapshot truth metrics, progress and carry state as a tuple.

        Consumed by the batched tick engine when it primes a core slot:
        the engine accumulates into slot-local copies of these values
        (in the same order as :meth:`record_execution` and the
        ``take_integer_*`` carries would) and writes them back with
        :meth:`batch_writeback`, keeping the carry fields private to
        this class.  Field order is the writeback argument order.
        """
        return (
            self.cycles_run,
            self.instructions_retired,
            self.llc_accesses,
            self.llc_misses,
            self.progress.instructions_done,
            self._instr_carry,
            self._miss_carry,
            self._access_carry,
        )

    def batch_writeback(
        self,
        cycles_run: int,
        instructions_retired: float,
        llc_accesses: float,
        llc_misses: float,
        instructions_done: float,
        instr_carry: float,
        miss_carry: float,
        access_carry: float,
    ) -> None:
        """Apply a batched engine's accumulated mirrors (see
        :meth:`batch_mirror`).  Idempotent: flushing twice with the same
        values is a no-op."""
        self.cycles_run = cycles_run
        self.instructions_retired = instructions_retired
        self.llc_accesses = llc_accesses
        self.llc_misses = llc_misses
        self.progress.instructions_done = instructions_done
        self._instr_carry = instr_carry
        self._miss_carry = miss_carry
        self._access_carry = access_carry

    def reset_metrics(self) -> None:
        """Zero truth metrics (start of a measurement window)."""
        self.instructions_retired = 0.0
        self.cycles_run = 0
        self.llc_accesses = 0.0
        self.llc_misses = 0.0

    def __repr__(self) -> str:
        return f"VCpu(gid={self.gid}, name={self.name!r})"
