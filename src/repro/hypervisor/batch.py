"""Batched struct-of-arrays tick engine.

``BatchTickEngine`` replaces :meth:`VirtualizedSystem._execute_tick`'s
per-core calls into :func:`~repro.cachesim.perfmodel.execute_step` with a
struct-of-arrays pass over *core slots*: one persistent record per
physical core holding the occupant vCPU's cycle budget, pending
context-switch penalty, behavior sample, occupancy memo, truth-metric
mirrors, integer-carry state and PMC deltas.  The engine is **bit-exact**
with the scalar path — every float expression is kept
expression-identical and every accumulation runs in the same order — so
the experiment goldens (sha256-pinned reports) do not move.

Why it is faster than the scalar loop:

* **Exact fixed-point memoisation.**  At a steady periodic schedule the
  inputs of a sub-step — behavior sample, occupancy, cycle budget — are
  *bitwise identical* to the previous sub-step for the overwhelming
  majority of slot-steps (>93% on the tick-loop benchmarks).  Floats are
  deterministic functions of their inputs, so the step outputs are
  reused without recomputing ``resident ** theta`` and the CPI chain.
  Under heavy overcommit the occupants keep changing and most slot-steps
  miss; the miss path runs the step inline, with the behavior-only
  constants precomputed per sample (:func:`_load_behavior`).
* **Deferred flushing.**  Truth metrics, workload progress, carry
  state and PMC counts accumulate in slot-local variables and are
  flushed to the vCPU / counter objects only at tick end or before any
  code that may observe them mid-tick (a context switch, a scheduler
  refill).  Integer PMC accumulation is associative modulo the 48-bit
  counter mask, so one flushed ``add`` equals the scalar per-sub-step
  sequence.
* **Relax elision.**  When every contributor on a socket produced a
  bitwise-identical (pressure, cap) pair to the previous sub-step and
  that sub-step's relaxation provably left the occupancy state
  untouched, this sub-step's relaxation is skipped outright — same
  deterministic inputs, same no-op result.
* **Steady-state fast-forward.**  Once a whole sub-step was steady —
  every occupied slot memo-hit with a static behavior right after
  executing the previous sub-step, nothing was vacated, finished or
  blocked, and every socket's relax was elided or a proven no-op — the
  machine is at a fixed point until a finite workload clips or finishes.
  :meth:`BatchTickEngine._fast_forward` replays the rest of the tick up
  to that step in slot locals, with each accumulator's float additions
  in the scalar order.  The window never crosses a tick boundary, so the
  scheduler and Kyoto observe nothing new.

The flush discipline ("flush before escape") is the one invariant to
keep in mind when extending the engine: any call that can read vCPU
progress, PMC counters or the penalty map mid-tick must be preceded by
:meth:`BatchTickEngine._flush`.  See docs/performance.md for the field
map and how to add a per-step quantity without breaking goldens.

An optional numpy backend (``tick_engine="batch-numpy"``) vectorises the
perf-model arithmetic across memo-missing slots.  Elementwise float64
add/sub/mul/div/min/max in numpy are bitwise identical to CPython, but
``np.power`` is **not** (SIMD pow differs by 1 ulp on ~4% of inputs), so
the ``resident ** theta`` term is always computed with per-element
Python pow.  The kernel only pays off when many slots miss the memo at
once (cold starts, mass phase changes on wide machines); the
pure-python engine is the default.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.cachesim.occupancy import LlcOccupancyDomain
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover
    from .system import VirtualizedSystem
    from .vcpu import VCpu

#: Sentinel for "this slot did not execute the previous sub-step".
_NEVER = -10


class _OccupancyView:
    """dict-``get`` adapter over a duck-typed occupancy domain.

    Sockets normally carry a :class:`LlcOccupancyDomain`, whose private
    occupancy dict the hot loop reads directly.  Partitioning swaps in
    replacement domains (e.g. ``PartitionedLlcDomain``) that only expose
    ``occupancy_of``; this view gives them the same ``.get`` surface so
    the sub-step loop stays branch-free.
    """

    __slots__ = ("_domain",)

    def __init__(self, domain) -> None:
        self._domain = domain

    def get(self, owner: int, default: float = 0.0) -> float:
        return self._domain.occupancy_of(owner)


class _CoreSlot:
    """Struct-of-arrays record for one physical core.

    Groups everything the sub-step loop touches for the core's current
    occupant so the hot loop runs on slot locals instead of chasing
    vCPU / counter / dict attributes.  Mirrored state is written back by
    :meth:`BatchTickEngine._flush`.
    """

    __slots__ = (
        # immutable per machine
        "core", "core_id", "socket_id", "budget_cycles", "occ_map", "pmcs",
        # occupant
        "vcpu", "gid", "workload", "static_behavior", "boundary_fn",
        "finite_total", "memory_cycles", "stopped", "executed",
        # pending context-switch penalty mirror
        "pending_cycles", "pending_dirty",
        # behavior fields of m_behavior and the step constants derived from
        # them (reloaded together by _load_behavior)
        "b_wss", "b_lapki", "b_theta", "b_base_cpi", "b_mlp", "b_cap",
        "b_trivial", "b_keep", "b_lapki_k",
        # step memo: inputs (occupant, behavior identity, occupancy at a
        # full budget) -> raw step outputs
        "m_vcpu", "m_behavior", "m_occ", "r_instructions", "r_accesses",
        "r_misses",
        # truth-metric mirrors (same accumulation order as the vCPU's)
        "t_cycles", "t_instructions", "t_accesses", "t_misses",
        "done_instructions",
        # integer-carry mirrors
        "c_instr", "c_miss", "c_access",
        # last-tick accumulators
        "lt_cycles", "lt_instructions", "lt_misses",
        # pending (unflushed) integer PMC deltas
        "p_cycles", "p_instr", "p_miss", "p_ref",
        # relax-elision bookkeeping
        "last_exec_stamp", "sub_miss",
    )

    def __init__(self, core, budget_cycles: int, occ_map, pmcs) -> None:
        self.core = core
        self.core_id = core.core_id
        self.socket_id = core.socket_id
        self.budget_cycles = budget_cycles
        self.occ_map = occ_map
        self.pmcs = pmcs
        self.vcpu = None
        self.gid = -1
        self.workload = None
        self.static_behavior = None
        self.boundary_fn = None
        self.finite_total = None
        self.memory_cycles = 0.0
        self.stopped = False
        self.executed = False
        self.pending_cycles = 0
        self.pending_dirty = False
        self.b_wss = 0.0
        self.b_lapki = 0.0
        self.b_theta = 1.0
        self.b_base_cpi = 1.0
        self.b_mlp = 1.0
        self.b_cap = 0.0
        self.b_trivial = True
        self.b_keep = 1.0
        self.b_lapki_k = 0.0
        self.m_vcpu = None
        self.m_behavior = None
        self.m_occ = -1.0
        self.r_instructions = 0.0
        self.r_accesses = 0.0
        self.r_misses = 0.0
        self.t_cycles = 0
        self.t_instructions = 0.0
        self.t_accesses = 0.0
        self.t_misses = 0.0
        self.done_instructions = 0.0
        self.c_instr = 0.0
        self.c_miss = 0.0
        self.c_access = 0.0
        self.lt_cycles = 0
        self.lt_instructions = 0.0
        self.lt_misses = 0.0
        self.p_cycles = 0
        self.p_instr = 0
        self.p_miss = 0
        self.p_ref = 0
        self.last_exec_stamp = _NEVER
        self.sub_miss = 0.0


class BatchTickEngine:
    """Executes one scheduler tick over per-core slots, bit-exactly."""

    def __init__(
        self, system: "VirtualizedSystem", use_numpy: bool = False
    ) -> None:
        self._np = None
        if use_numpy:
            # Imported here, not at module level, so runs that never select
            # batch-numpy do not pay numpy's import time and memory.
            try:
                import numpy
            except ImportError:  # pragma: no cover - numpy is optional
                raise RuntimeError(
                    "tick_engine='batch-numpy' requires numpy, which is not "
                    "importable in this environment"
                ) from None
            self._np = numpy
        self.system = system
        self.use_numpy = use_numpy
        self.slots: List[_CoreSlot] = [
            _CoreSlot(
                core,
                system._substep_budget_cycles[core.core_id],
                None,
                system._substep_pmcs[core.core_id],
            )
            for core in system.machine.cores
        ]
        num_sockets = len(system.machine.sockets)
        self.socket_slots: List[List[_CoreSlot]] = [
            [slot for slot in self.slots if slot.socket_id == socket_id]
            for socket_id in range(num_sockets)
        ]
        self._llc_cycles = float(system.spec.latency.llc_cycles)
        # Monotone sub-step counter; never reset, so relax elision keeps
        # working across tick boundaries at a steady schedule.
        self._stamp = 0
        self._stopped_count = 0
        #: Sub-steps replayed by :meth:`_fast_forward` instead of the
        #: sub-step loop (a test oracle; not telemetry).
        self.fast_forwarded_substeps = 0
        # Per-socket relax-elision state: was the previous relaxation a
        # provable no-op, and at which occupancy-state version.
        self._prev_nop: List[bool] = [False] * num_sockets
        self._ver_after: List[int] = [-1] * num_sockets
        self._dirty: List[bool] = [True] * num_sockets
        # Per-socket domain binding: the domain object each slot's
        # occupancy view currently reads, and whether it is a native
        # LlcOccupancyDomain (direct dict reads + relax elision) or a
        # duck-typed replacement (method reads, relax always called).
        self._bound_domains: List = [None] * num_sockets
        self._fast_domain: List[bool] = [True] * num_sockets
        self._rebind_domains()

    def _rebind_domains(self) -> None:
        """Re-check each socket's LLC domain identity and rebind views.

        Partitioning controllers replace ``system.llc_domains[socket_id]``
        wholesale (``apply_page_coloring``), potentially between any two
        ticks.  A native :class:`LlcOccupancyDomain` keeps the direct
        occupancy-dict read and relax elision; a duck-typed replacement
        (e.g. ``PartitionedLlcDomain``) reads through ``occupancy_of``
        and has its relaxation called unconditionally — it carries no
        ``_state_version``, so no-op relaxations cannot be proven.
        """
        domains = self.system.llc_domains
        bound = self._bound_domains
        for socket_id, domain in enumerate(domains):
            if domain is bound[socket_id]:
                continue
            bound[socket_id] = domain
            fast = isinstance(domain, LlcOccupancyDomain)
            self._fast_domain[socket_id] = fast
            occ_map = domain._occupancy if fast else _OccupancyView(domain)
            for slot in self.socket_slots[socket_id]:
                slot.occ_map = occ_map
            self._prev_nop[socket_id] = False
            self._ver_after[socket_id] = -1
            self._dirty[socket_id] = True

    # -- fleet lifecycle -----------------------------------------------------

    def invalidate_fleet(self) -> None:
        """Drop every slot's occupant mirror and step memo.

        Called by the system between ticks when the fleet changes
        (:meth:`~repro.hypervisor.system.VirtualizedSystem.admit_vm` /
        ``retire_vm``): retired vCPUs must not survive in slot mirrors or
        memo keys, and every socket's relax-elision proof is stale once
        occupancies changed under it.  ``execute_tick`` re-primes each
        slot from ``core.running``, so the next tick rebuilds exactly the
        state a freshly constructed engine would hold — bit-identical to
        the scalar path.
        """
        for slot in self.slots:
            slot.vcpu = None
            slot.gid = -1
            slot.m_vcpu = None
            slot.m_behavior = None
            slot.last_exec_stamp = _NEVER
            slot.executed = False
        num_sockets = len(self._prev_nop)
        for socket_id in range(num_sockets):
            self._prev_nop[socket_id] = False
            self._ver_after[socket_id] = -1
            self._dirty[socket_id] = True

    # -- occupant priming ----------------------------------------------------

    def _prime(self, slot: _CoreSlot, vcpu: "VCpu") -> None:
        """Load ``vcpu``'s state into ``slot`` (tick start or refill)."""
        system = self.system
        slot.vcpu = vcpu
        slot.gid = vcpu.gid
        stopped = not vcpu.runnable
        slot.stopped = stopped
        if stopped:
            self._stopped_count += 1
        progress = vcpu.progress
        workload = progress.workload
        slot.workload = workload
        # Only PhasedWorkload overrides behavior_at; a workload using the
        # base implementation has one constant behavior for its lifetime,
        # so the per-sub-step sample call is skipped entirely.
        slot.static_behavior = (
            workload.behavior
            if type(workload).behavior_at is Workload.behavior_at
            else None
        )
        slot.boundary_fn = vcpu._boundary_fn
        slot.finite_total = workload.total_instructions
        if vcpu is not slot.m_vcpu:
            # New occupant: the step memo belongs to the old one.
            slot.m_vcpu = vcpu
            slot.m_behavior = None
            slot.last_exec_stamp = _NEVER
            slot.memory_cycles = float(
                system.spec.latency.memory_cycles_for(
                    slot.socket_id != vcpu.vm.config.memory_node
                )
            )
        # Mirrors: monitors may have reset metrics between ticks, and the
        # scheduler may have charged a fresh switch-in penalty.
        (
            slot.t_cycles,
            slot.t_instructions,
            slot.t_accesses,
            slot.t_misses,
            slot.done_instructions,
            slot.c_instr,
            slot.c_miss,
            slot.c_access,
        ) = vcpu.batch_mirror()
        slot.pending_cycles = system._pending_penalty_cycles.get(
            slot.core_id, 0
        )
        slot.pending_dirty = False
        slot.lt_cycles = 0
        slot.lt_instructions = 0.0
        slot.lt_misses = 0.0
        slot.executed = False
        slot.p_cycles = 0
        slot.p_instr = 0
        slot.p_miss = 0
        slot.p_ref = 0

    # -- flushing ------------------------------------------------------------

    def _flush(self) -> None:
        """Write every slot's mirrored state back to the live objects.

        Idempotent and re-entrant: slots keep accumulating after a flush
        and later flushes overwrite with the larger totals.  Must run
        before any code that can observe vCPU progress, PMC counters or
        the penalty map mid-tick (context switches, scheduler refills),
        and at tick end.
        """
        system = self.system
        last_cycles = system.last_tick_cycles
        last_misses = system.last_tick_misses
        last_instructions = system.last_tick_instructions
        pending_map = system._pending_penalty_cycles
        for slot in self.slots:
            if not slot.executed:
                continue
            slot.vcpu.batch_writeback(
                slot.t_cycles,
                slot.t_instructions,
                slot.t_accesses,
                slot.t_misses,
                slot.done_instructions,
                slot.c_instr,
                slot.c_miss,
                slot.c_access,
            )
            gid = slot.gid
            last_cycles[gid] = slot.lt_cycles
            last_misses[gid] = slot.lt_misses
            last_instructions[gid] = slot.lt_instructions
            cycles_pmc, instr_pmc, miss_pmc, ref_pmc = slot.pmcs
            if slot.p_cycles:
                cycles_pmc.add(slot.p_cycles)
                slot.p_cycles = 0
            if slot.p_instr:
                instr_pmc.add(slot.p_instr)
                slot.p_instr = 0
            if slot.p_miss:
                miss_pmc.add(slot.p_miss)
                slot.p_miss = 0
            if slot.p_ref:
                ref_pmc.add(slot.p_ref)
                slot.p_ref = 0
            if slot.pending_dirty:
                pending_map[slot.core_id] = slot.pending_cycles

    # -- mid-tick vacate / refill --------------------------------------------

    def _vacate(self, slot: _CoreSlot) -> None:
        """Mirror the scalar path's mid-tick vacate-and-refill.

        The full flush first: the scheduler's refill may read any vCPU's
        progress (runnable checks) and the context switch virtualises the
        core's PMCs.
        """
        system = self.system
        self._flush()
        core = slot.core
        system.context_switch(core, None)
        system.scheduler.refill_core(core)
        if slot.stopped:
            slot.stopped = False
            self._stopped_count -= 1
        self._dirty[slot.socket_id] = True
        vcpu = core.running
        if vcpu is None:
            # Core goes idle: any pending switch penalty dies with the
            # departed occupant (see VirtualizedSystem._execute_tick).
            system._pending_penalty_cycles.pop(slot.core_id, None)
            slot.vcpu = None
            slot.executed = False
            return
        self._prime(slot, vcpu)
        if not vcpu.runnable:
            system._pending_penalty_cycles.pop(slot.core_id, None)
            slot.pending_cycles = 0
            slot.pending_dirty = False

    # -- the tick ------------------------------------------------------------

    def execute_tick(self) -> None:
        system = self.system
        system.last_tick_cycles = {}
        system.last_tick_misses = {}
        system.last_tick_instructions = {}
        now_usec = system.engine.clock.now_usec
        pending_map = system._pending_penalty_cycles
        slots = self.slots
        dirty = self._dirty
        self._rebind_domains()

        # Prime every slot against the placement on_tick_start produced.
        self._stopped_count = 0
        for slot in slots:
            occupant = slot.core.running
            if occupant is None:
                if slot.vcpu is not None:
                    slot.vcpu = None
                    dirty[slot.socket_id] = True
                slot.executed = False
                pending_map.pop(slot.core_id, None)
                continue
            if occupant is not slot.vcpu:
                dirty[slot.socket_id] = True
            self._prime(slot, occupant)

        jitter_fraction = system.perf_jitter_fraction
        jitter_stream = system._jitter_stream if jitter_fraction else None
        domains = system.llc_domains
        socket_slots = self.socket_slots
        prev_nop = self._prev_nop
        ver_after = self._ver_after
        fast_domain = self._fast_domain
        use_numpy = self.use_numpy
        llc_cycles = self._llc_cycles
        load_behavior = _load_behavior
        substeps = system.substeps_per_tick
        # A fixed point is provable only without jitter (every step would
        # take _finish_step) and on native domains (a duck-typed relax
        # carries no version counter).
        may_fast_forward = jitter_stream is None and all(fast_domain)

        step = 0
        while step < substeps:
            step += 1
            self._stamp += 1
            stamp = self._stamp
            prev_stamp = stamp - 1
            # Deferred memo-miss slots for the numpy kernel.  Safe only
            # when no vacate can interleave (a vacate flushes, and
            # deferred slots would flush stale mirrors) and jitter is off
            # (the RNG stream must advance in core order).
            defer: Optional[List[Tuple]] = (
                []
                if use_numpy
                and self._stopped_count == 0
                and jitter_stream is None
                else None
            )

            for slot in slots:
                vcpu = slot.vcpu
                if vcpu is None:
                    continue
                if slot.stopped:
                    # Finished or blocked mid-tick: vacate and let the
                    # scheduler place a replacement immediately.
                    self._vacate(slot)
                    vcpu = slot.vcpu
                    if vcpu is None or slot.stopped:
                        continue
                static = slot.static_behavior
                behavior = (
                    static
                    if static is not None
                    else slot.workload.behavior_at(slot.done_instructions)
                )
                occupancy = slot.occ_map.get(slot.gid, 0.0)
                budget_cycles = slot.budget_cycles
                if (
                    slot.pending_cycles == 0
                    and behavior is slot.m_behavior
                    and occupancy == slot.m_occ
                ):
                    # Memo hit: bitwise-identical step inputs, reuse the
                    # raw step outputs.
                    instructions = slot.r_instructions
                    accesses = slot.r_accesses
                    misses = slot.r_misses
                    memo_hit = True
                else:
                    # Memo miss: pay any pending penalty, recompute the
                    # step.
                    pending_cycles = slot.pending_cycles
                    if pending_cycles:
                        penalty = min(budget_cycles, pending_cycles)
                        slot.pending_cycles = pending_cycles - penalty
                        slot.pending_dirty = True
                        work_cycles = budget_cycles - penalty
                    else:
                        work_cycles = budget_cycles
                    if behavior is not slot.m_behavior:
                        load_behavior(slot, behavior)
                    if defer is not None:
                        defer.append((slot, behavior, occupancy, work_cycles))
                        continue
                    # The perf-model step, expression-identical to the
                    # reference execute_step; the numpy kernel in
                    # _run_deferred is the engine's only other copy.
                    # min(1.0, max(0.0, r)) is spelled out: max() keeps its
                    # first argument unless a later one is strictly larger,
                    # min() unless strictly smaller.
                    if slot.b_trivial:
                        hit = 1.0
                    else:
                        resident = occupancy / slot.b_wss
                        if resident > 0.0:
                            if not resident < 1.0:
                                resident = 1.0
                        else:
                            resident = 0.0
                        hit = slot.b_keep * resident ** slot.b_theta
                    access_cost = (
                        hit * llc_cycles + (1.0 - hit) * slot.memory_cycles
                    )
                    instructions = work_cycles / (
                        slot.b_base_cpi
                        + slot.b_lapki_k * access_cost / slot.b_mlp
                    )
                    # instructions * lapki / 1000.0, in that order.
                    accesses = instructions * slot.b_lapki / 1000.0
                    misses = accesses * (1.0 - hit)
                    if work_cycles == budget_cycles:
                        slot.m_behavior = behavior
                        slot.m_occ = occupancy
                        slot.r_instructions = instructions
                        slot.r_accesses = accesses
                        slot.r_misses = misses
                    memo_hit = False
                finite_total = slot.finite_total
                unclipped = finite_total is None or instructions < max(
                    0.0, finite_total - slot.done_instructions
                )
                if (
                    not unclipped
                    or jitter_stream is not None
                    or slot.boundary_fn is not None
                ):
                    self._finish_step(
                        slot,
                        budget_cycles,
                        instructions,
                        accesses,
                        misses,
                        jitter_fraction,
                        jitter_stream,
                        now_usec,
                        stamp,
                    )
                    continue
                # Unclipped, unjittered, no boundary: _finish_step's scale
                # is exactly 1.0 (or 0.0 on a zero-instruction step, whose
                # accesses and misses are 0.0 already), so the outputs
                # accumulate unchanged.
                slot.t_cycles += budget_cycles
                slot.t_instructions += instructions
                slot.t_accesses += accesses
                slot.t_misses += misses
                slot.done_instructions += instructions
                slot.lt_cycles += budget_cycles
                slot.lt_instructions += instructions
                slot.lt_misses += misses
                slot.p_cycles += budget_cycles
                carry = slot.c_instr + instructions
                whole = int(carry)
                slot.c_instr = carry - whole
                slot.p_instr += whole
                carry = slot.c_miss + misses
                whole = int(carry)
                slot.c_miss = carry - whole
                slot.p_miss += whole
                carry = slot.c_access + accesses
                whole = int(carry)
                slot.c_access = carry - whole
                slot.p_ref += whole
                if not slot.executed:
                    slot.executed = True
                slot.sub_miss = misses
                # A recomputed step may contribute a different pressure
                # than last sub-step, so a miss always dirties its socket.
                if not memo_hit or slot.last_exec_stamp != prev_stamp:
                    dirty[slot.socket_id] = True
                slot.last_exec_stamp = stamp
                if (
                    finite_total is not None
                    and slot.done_instructions >= finite_total
                ):
                    self._mark_finished(slot, now_usec)

            if defer:
                self._run_deferred(defer, now_usec, stamp)

            # Steady: no socket was dirtied this sub-step, so every
            # occupied slot took the memo-hit unclipped tail right after
            # executing the previous sub-step, no vacate ran, and nothing
            # finished or blocked.  The relax pass below must leave every
            # occupancy untouched too.
            steady = (
                may_fast_forward
                and self._stopped_count == 0
                and True not in dirty
            )

            # Relaxation pass, one socket at a time, contributors in
            # core order (the scalar path builds its pressure dicts in
            # exactly this order; float summation order is pinned).
            for socket_id, domain in enumerate(domains):
                if (
                    not dirty[socket_id]
                    and prev_nop[socket_id]
                    and domain._state_version == ver_after[socket_id]
                ):
                    # Identical contributor set with bitwise-identical
                    # pressures and caps, against unchanged occupancy
                    # state, and the previous call provably changed
                    # nothing: relax is a deterministic function, so
                    # this call would be a no-op too.
                    continue
                # A contributor's b_cap is its cap this sub-step: only the
                # step it just executed can have reloaded it.
                pressures: Dict[int, float] = {}
                caps: Dict[int, float] = {}
                for slot in socket_slots[socket_id]:
                    if slot.last_exec_stamp == stamp:
                        pressures[slot.gid] = slot.sub_miss
                        caps[slot.gid] = slot.b_cap
                if pressures:
                    if fast_domain[socket_id]:
                        version_before = domain._state_version
                        domain.relax(pressures, caps)
                        version_now = domain._state_version
                        nop = version_now == version_before
                        prev_nop[socket_id] = nop
                        ver_after[socket_id] = version_now
                        if not nop:
                            steady = False
                    else:
                        # Duck-typed domain: no version counter, so a
                        # no-op relaxation can never be proven.
                        domain.relax(pressures, caps)
                        prev_nop[socket_id] = False
                else:
                    prev_nop[socket_id] = False
                dirty[socket_id] = False

            if steady and step < substeps:
                step += self._fast_forward(substeps - step)

        self._flush()

    # -- steady-state fast-forward ------------------------------------------

    def _fast_forward(self, remaining: int) -> int:
        """Replay up to ``remaining`` sub-steps of a machine at a fixed point.

        Called after a steady sub-step: every occupied slot memo-hit with
        a static behavior and every socket's relax was elided or a proven
        no-op, so each following sub-step repeats the same step outputs
        against the same occupancy, and its relax pass is elided.  Only
        the accumulators move.  The window is the largest ``k`` for which
        no finite slot clips or finishes, evaluated with the sub-step
        loop's own expressions; that step runs on the normal path.  Each
        float accumulator is advanced slot by slot with the same
        additions in the same order as ``k`` inline tails; integer cycles
        advance as ``budget * k``, which is exact.  Returns ``k``.
        """
        occupied: List[_CoreSlot] = []
        k = remaining
        for slot in self.slots:
            if slot.vcpu is None:
                continue
            if slot.static_behavior is None:
                # A phase may change the behavior sample inside the window.
                return 0
            finite_total = slot.finite_total
            if finite_total is not None:
                instructions = slot.r_instructions
                done = slot.done_instructions
                safe = 0
                while safe < k and instructions < max(
                    0.0, finite_total - done
                ):
                    done += instructions
                    if done >= finite_total:
                        break
                    safe += 1
                if safe == 0:
                    return 0
                k = safe
            occupied.append(slot)
        for slot in occupied:
            instructions = slot.r_instructions
            accesses = slot.r_accesses
            misses = slot.r_misses
            t_instructions = slot.t_instructions
            t_accesses = slot.t_accesses
            t_misses = slot.t_misses
            done = slot.done_instructions
            lt_instructions = slot.lt_instructions
            lt_misses = slot.lt_misses
            c_instr = slot.c_instr
            c_miss = slot.c_miss
            c_access = slot.c_access
            p_instr = slot.p_instr
            p_miss = slot.p_miss
            p_ref = slot.p_ref
            for _ in range(k):
                t_instructions += instructions
                t_accesses += accesses
                t_misses += misses
                done += instructions
                lt_instructions += instructions
                lt_misses += misses
                carry = c_instr + instructions
                whole = int(carry)
                c_instr = carry - whole
                p_instr += whole
                carry = c_miss + misses
                whole = int(carry)
                c_miss = carry - whole
                p_miss += whole
                carry = c_access + accesses
                whole = int(carry)
                c_access = carry - whole
                p_ref += whole
            slot.t_instructions = t_instructions
            slot.t_accesses = t_accesses
            slot.t_misses = t_misses
            slot.done_instructions = done
            slot.lt_instructions = lt_instructions
            slot.lt_misses = lt_misses
            slot.c_instr = c_instr
            slot.c_miss = c_miss
            slot.c_access = c_access
            slot.p_instr = p_instr
            slot.p_miss = p_miss
            slot.p_ref = p_ref
            cycles = slot.budget_cycles * k
            slot.t_cycles += cycles
            slot.lt_cycles += cycles
            slot.p_cycles += cycles
            slot.last_exec_stamp += k
        self._stamp += k
        self.fast_forwarded_substeps += k
        return k

    # -- step tail ----------------------------------------------------------

    def _finish_step(
        self,
        slot: _CoreSlot,
        budget_cycles: int,
        raw_instructions: float,
        raw_accesses: float,
        raw_misses: float,
        jitter_fraction: float,
        jitter_stream,
        now_usec: int,
        stamp: int,
    ) -> None:
        """The post-step tail: jitter, clipping, blocking, accumulation.

        Mirrors ``_execute_substep`` line for line; used for every step
        that cannot take the unclipped fast path.
        """
        system = self.system
        jittered = raw_instructions
        if jitter_fraction:
            jittered *= 1.0 + jitter_stream.uniform(
                -jitter_fraction, jitter_fraction
            )
        finite_total = slot.finite_total
        if finite_total is None:
            instructions = jittered
        else:
            instructions = min(
                jittered, max(0.0, finite_total - slot.done_instructions)
            )
        boundary_fn = slot.boundary_fn
        if boundary_fn is not None:
            done = slot.done_instructions
            to_boundary = boundary_fn(done) - done
            if instructions >= to_boundary:
                instructions = to_boundary
                slot.vcpu.blocked_until_usec = (
                    now_usec + slot.workload.think_usec
                )
                system._sleeping_count += 1
                if not slot.stopped:
                    slot.stopped = True
                    self._stopped_count += 1
        scale = (
            instructions / raw_instructions if raw_instructions > 0 else 0.0
        )
        llc_accesses = raw_accesses * scale
        llc_misses = raw_misses * scale

        slot.t_cycles += budget_cycles
        slot.t_instructions += instructions
        slot.t_accesses += llc_accesses
        slot.t_misses += llc_misses
        slot.done_instructions += instructions
        slot.lt_cycles += budget_cycles
        slot.lt_instructions += instructions
        slot.lt_misses += llc_misses
        slot.p_cycles += budget_cycles
        carry = slot.c_instr + instructions
        whole = int(carry)
        slot.c_instr = carry - whole
        slot.p_instr += whole
        carry = slot.c_miss + llc_misses
        whole = int(carry)
        slot.c_miss = carry - whole
        slot.p_miss += whole
        carry = slot.c_access + llc_accesses
        whole = int(carry)
        slot.c_access = carry - whole
        slot.p_ref += whole
        if not slot.executed:
            slot.executed = True
        slot.sub_miss = llc_misses
        # Conservative: any slow-tail step invalidates relax elision on
        # its socket (its contribution may differ from last sub-step).
        self._dirty[slot.socket_id] = True
        slot.last_exec_stamp = stamp
        if (
            finite_total is not None
            and slot.done_instructions >= finite_total
        ):
            self._mark_finished(slot, now_usec)

    def _mark_finished(self, slot: _CoreSlot, now_usec: int) -> None:
        if not slot.stopped:
            slot.stopped = True
            self._stopped_count += 1
        progress = slot.vcpu.progress
        if progress.finished_at_usec is None:
            progress.finished_at_usec = now_usec

    # -- numpy kernel --------------------------------------------------------

    def _run_deferred(
        self, deferred: List[Tuple], now_usec: int, stamp: int
    ) -> None:
        """Finish memo-missing slots with the vectorised step.

        Deferral is order-safe here: no vacate can interleave (checked at
        sub-step start) and the tail effects are per-slot independent, so
        running the tails after the scan leaves identical state.  Every
        deferred slot's ``b_*`` fields were loaded during the scan.
        """
        np = self._np
        count = len(deferred)
        wss = np.empty(count)
        lapki = np.empty(count)
        lapki_k = np.empty(count)
        theta = np.empty(count)
        keep = np.empty(count)
        base_cpi = np.empty(count)
        mlp = np.empty(count)
        memory_cycles = np.empty(count)
        occupancy_arr = np.empty(count)
        work = np.empty(count)
        for index, (slot, _behavior, occupancy, work_cycles) in enumerate(
            deferred
        ):
            wss[index] = slot.b_wss
            lapki[index] = slot.b_lapki
            lapki_k[index] = slot.b_lapki_k
            theta[index] = slot.b_theta
            keep[index] = slot.b_keep
            base_cpi[index] = slot.b_base_cpi
            mlp[index] = slot.b_mlp
            memory_cycles[index] = slot.memory_cycles
            occupancy_arr[index] = occupancy
            work[index] = float(work_cycles)
        trivial = (wss <= 0.0) | (lapki == 0.0)
        safe_wss = np.where(trivial, 1.0, wss)
        resident = np.minimum(
            1.0, np.maximum(0.0, occupancy_arr / safe_wss)
        )
        # np.power diverges from CPython pow by 1 ulp on ~4% of inputs
        # (SIMD pow); x ** 1.0 == x bitwise, so only theta != 1.0 needs
        # the per-element Python pow.
        reuse_hit = resident.copy()
        for index in np.nonzero(theta != 1.0)[0]:
            reuse_hit[index] = float(resident[index]) ** float(theta[index])
        hit = keep * reuse_hit
        hit[trivial] = 1.0
        access_cost = hit * self._llc_cycles + (1.0 - hit) * memory_cycles
        cpi = base_cpi + lapki_k * access_cost / mlp
        instructions_arr = work / cpi
        accesses_arr = instructions_arr * lapki / 1000.0
        misses_arr = accesses_arr * (1.0 - hit)
        for index, (slot, behavior, occupancy, work_cycles) in enumerate(
            deferred
        ):
            # float() strips the numpy scalar type: the values flow into
            # reports and json cannot serialise np.float64.
            self._store_memo_and_finish(
                slot, behavior, occupancy, work_cycles,
                float(instructions_arr[index]),
                float(accesses_arr[index]),
                float(misses_arr[index]),
                now_usec, stamp,
            )

    def _store_memo_and_finish(
        self,
        slot: _CoreSlot,
        behavior,
        occupancy: float,
        work_cycles: int,
        instructions: float,
        accesses: float,
        misses: float,
        now_usec: int,
        stamp: int,
    ) -> None:
        if work_cycles == slot.budget_cycles:
            slot.m_behavior = behavior
            slot.m_occ = occupancy
            slot.r_instructions = instructions
            slot.r_accesses = accesses
            slot.r_misses = misses
        # Deferred steps only exist with jitter off (checked at sub-step
        # start), so no jitter fraction or stream is threaded through.
        self._finish_step(
            slot,
            slot.budget_cycles,
            instructions,
            accesses,
            misses,
            0.0,
            None,
            now_usec,
            stamp,
        )


def _load_behavior(slot: _CoreSlot, behavior) -> None:
    """Load ``behavior`` into ``slot``'s ``b_*`` fields.

    Also derives the step constants that depend on the behavior alone
    (the trivial-hit test, ``1.0 - stream_fraction`` and
    ``lapki / 1000.0``), so they are computed once per sample change
    instead of once per step, for both the inline step and the numpy
    kernel.  Invalidates the memo first: the ``b_*`` fields must always
    describe ``m_behavior``, and a penalty-shortened step (which never
    stores a memo) would otherwise leave them describing a different
    sample than a surviving memo entry.
    """
    slot.m_behavior = None
    wss = behavior.wss_lines
    lapki = behavior.lapki
    slot.b_wss = wss
    slot.b_lapki = lapki
    slot.b_theta = behavior.locality_theta
    slot.b_base_cpi = behavior.base_cpi
    slot.b_mlp = behavior.mlp
    slot.b_cap = behavior.footprint_cap_lines
    slot.b_trivial = wss <= 0 or lapki == 0
    slot.b_keep = 1.0 - behavior.stream_fraction
    slot.b_lapki_k = lapki / 1000.0
