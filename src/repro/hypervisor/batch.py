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
  deterministic inputs, same no-op result.  Every LLC domain, the
  colour-partitioned ``PartitionedLlcDomain`` included, exposes the two
  things the proof needs: its live occupancy dict (``_occupancy``, read
  directly by the slots) and a monotone ``_state_version``.
* **Steady-state fast-forward.**  After a *pure* sub-step (every
  occupied slot ran a full-budget step through the unclipped tail, and
  nothing was vacated, finished or blocked) the machine is at a fixed
  point if no relax changed a domain, and on a period-2 orbit if the
  sub-step before was pure too and every changed socket is back in its
  state of two sub-steps ago (pinned co-runs often flip forever between
  two states one ulp apart).  :meth:`BatchTickEngine._fast_forward`
  replays the rest of the tick in slot locals, alternating two memo
  entries per slot, with the scalar order of float additions.  The
  window never crosses a tick boundary, so the scheduler and Kyoto
  observe nothing new.

The flush discipline ("flush before escape") is the one invariant to
keep in mind when extending the engine: any call that can read vCPU
progress, PMC counters or the penalty map mid-tick must be preceded by
:meth:`BatchTickEngine._flush`.  See docs/performance.md for the field
map and how to add a per-step quantity without breaking goldens.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.cachesim.occupancy import LlcOccupancyDomain
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover
    from .system import VirtualizedSystem
    from .vcpu import VCpu

#: Sentinel for "this slot did not execute the previous sub-step".
_NEVER = -10
#: A socket's change-log entry before any logged relax change.
_NO_CHANGE = (_NEVER, -1, -1.0, None)


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
        # full budget) -> raw step outputs, as an (occupancy, instructions,
        # accesses, misses) entry, and the entry it replaced
        "m_vcpu", "m_behavior", "memo", "memo_prev",
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
        self.vcpu = self.workload = self.static_behavior = None
        self.boundary_fn = self.finite_total = None
        self.gid = -1
        self.memory_cycles = 0.0
        self.stopped = self.executed = self.pending_dirty = False
        self.pending_cycles = 0
        self.b_wss = self.b_lapki = self.b_cap = self.b_lapki_k = 0.0
        self.b_theta = self.b_base_cpi = self.b_mlp = self.b_keep = 1.0
        self.b_trivial = True
        self.m_vcpu = self.m_behavior = None
        self.memo = self.memo_prev = (-1.0, 0.0, 0.0, 0.0)
        self.t_cycles = self.lt_cycles = 0
        self.t_instructions = self.t_accesses = self.t_misses = 0.0
        self.done_instructions = self.lt_instructions = self.lt_misses = 0.0
        self.c_instr = self.c_miss = self.c_access = 0.0
        self.p_cycles = self.p_instr = self.p_miss = self.p_ref = 0
        self.last_exec_stamp = _NEVER
        self.sub_miss = 0.0


class BatchTickEngine:
    """Executes one scheduler tick over per-core slots, bit-exactly."""

    def __init__(self, system: "VirtualizedSystem") -> None:
        self.system = system
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
        #: sub-step loop, and those of them on a period-2 orbit (test
        #: oracles; not telemetry).
        self.fast_forwarded_substeps = 0
        self.orbit_substeps = 0
        # Consecutive pure sub-steps, and per socket the last two relax
        # changes as (stamp, version, used lines, occupancy copy).
        self._pure_run = 0
        self._changes = [[_NO_CHANGE] * 2 for _ in range(num_sockets)]
        # Per-socket relax-elision state: was the previous relaxation a
        # provable no-op, and at which occupancy-state version.
        self._prev_nop: List[bool] = [False] * num_sockets
        self._ver_after: List[int] = [-1] * num_sockets
        self._dirty: List[bool] = [True] * num_sockets
        # The domain object each socket's slots currently read.
        self._bound_domains: List = [None] * num_sockets
        self._rebind_domains()

    def _rebind_domains(self) -> None:
        """Rebind any socket whose LLC domain object was replaced.

        Partitioning replaces ``system.llc_domains[socket_id]`` wholesale
        (``apply_page_coloring``, ``UcpController``), potentially between
        any two ticks.  Every domain exposes its live occupancy dict as
        ``_occupancy`` and a monotone ``_state_version``, so the slots
        read the new dict directly and the socket's relax-elision proof
        starts over.
        """
        bound = self._bound_domains
        for socket_id, domain in enumerate(self.system.llc_domains):
            if domain is bound[socket_id]:
                continue
            bound[socket_id] = domain
            for slot in self.socket_slots[socket_id]:
                slot.occ_map = domain._occupancy
            self._prev_nop[socket_id] = False
            self._ver_after[socket_id] = -1
            self._dirty[socket_id] = True
            self._changes[socket_id] = [_NO_CHANGE] * 2

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
        llc_cycles = self._llc_cycles
        load_behavior = _load_behavior
        substeps = system.substeps_per_tick
        # A fixed point is provable only without jitter (every step would
        # take _finish_step).
        may_fast_forward = jitter_stream is None
        # A new occupant or a rebound domain breaks every orbit proof; a
        # mutation from outside the engine breaks the version count.
        pure_run = 0 if True in dirty else self._pure_run

        step = 0
        while step < substeps:
            step += 1
            self._stamp += 1
            stamp = self._stamp
            prev_stamp = stamp - 1
            # Pure: every occupied slot runs a full-budget step through
            # the unclipped tail, and no slot is vacated.
            pure = may_fast_forward

            for slot in slots:
                vcpu = slot.vcpu
                if vcpu is None:
                    continue
                if slot.stopped:
                    # Finished or blocked mid-tick: vacate and let the
                    # scheduler place a replacement immediately.
                    self._vacate(slot)
                    pure = False
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
                memo = slot.memo
                if (
                    occupancy == memo[0]
                    and behavior is slot.m_behavior
                    and slot.pending_cycles == 0
                ):
                    # Memo hit: bitwise-identical step inputs, reuse the
                    # raw step outputs.
                    _, instructions, accesses, misses = memo
                    memo_hit = True
                else:
                    # Memo miss: pay any pending penalty, recompute the
                    # step.
                    pending_cycles = slot.pending_cycles
                    if pending_cycles:
                        pure = False
                        penalty = min(budget_cycles, pending_cycles)
                        slot.pending_cycles = pending_cycles - penalty
                        slot.pending_dirty = True
                        work_cycles = budget_cycles - penalty
                    else:
                        work_cycles = budget_cycles
                    if behavior is not slot.m_behavior:
                        load_behavior(slot, behavior)
                    # The perf-model step, expression-identical to the
                    # reference execute_step.  min(1.0, max(0.0, r)) is
                    # spelled out: max() keeps its first argument unless a
                    # later one is strictly larger, min() unless strictly
                    # smaller.
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
                        slot.memo_prev = memo
                        slot.memo = (occupancy, instructions, accesses, misses)
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
                    pure = False
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

            # A pure sub-step with nothing finished is a fixed point if its
            # relax pass changes nothing, and on a period-2 orbit if the
            # previous sub-step was pure too and every changed socket is
            # back in its state of two sub-steps ago.
            pure_run = pure_run + 1 if pure and not self._stopped_count else 0
            settled = True
            orbit = pure_run > 1

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
                    version_before = domain._state_version
                    domain.relax(pressures, caps)
                    version_now = domain._state_version
                    nop = version_now == version_before
                    prev_nop[socket_id] = nop
                    ver_after[socket_id] = version_now
                    if not nop:
                        settled = False
                        # Orbits are sought only in ticks pure so far: after
                        # a switch or sampling charge they rarely re-form.
                        orbit = pure_run >= step and self._log_change(
                            socket_id, stamp, orbit
                        )
                else:
                    prev_nop[socket_id] = False
                dirty[socket_id] = False

            if pure_run and (settled or orbit) and step < substeps:
                step += self._fast_forward(substeps - step)

        self._pure_run = pure_run
        self._flush()

    # -- steady-state fast-forward ------------------------------------------

    def _log_change(self, socket_id: int, stamp: int, check: bool) -> bool:
        """Log sub-step ``stamp``'s relax change on ``socket_id``; with
        ``check``, return whether the socket is a plain
        ``LlcOccupancyDomain`` back, items in order, in its state of two
        sub-steps and exactly two relaxations ago."""
        domain = self.system.llc_domains[socket_id]
        changes = self._changes[socket_id]
        older, newer = changes
        version = domain._state_version
        occupancy = domain._occupancy
        changes[0] = newer
        changes[1] = (stamp, version, domain.used_lines, occupancy.copy())
        return (
            check
            and older[0] == stamp - 2
            and newer[0] == stamp - 1
            and older[1] + 2 == version
            and type(domain) is LlcOccupancyDomain
            and older[3] == occupancy
            and list(older[3]) == list(occupancy)
        )

    def _fast_forward(self, remaining: int) -> int:
        """Replay up to ``remaining`` sub-steps of a machine on an orbit.

        Each occupied slot alternates ``a``, the memo entry keyed by its
        occupancy now (what the sub-step before last read; at a fixed
        point the memo itself), and ``b``, the last sub-step's.  The
        window is the largest ``k`` for which no finite slot clips or
        finishes, with the loop's own expressions.  Float accumulators
        repeat the inline tail's additions in order; ``carry % 1.0``
        equals ``carry - int(carry)`` for ``carry >= 0``.  Each changed
        socket ends in the recorded state of the window's last phase,
        its version advanced by ``k``.  Returns ``k``.
        """
        stepping = []
        k = remaining
        for slot in self.slots:
            if slot.vcpu is None:
                continue
            if slot.static_behavior is None:
                # A phase may change the behavior sample inside the window.
                return 0
            b = slot.memo
            a = b if b[0] == slot.occ_map.get(slot.gid, 0.0) else slot.memo_prev
            finite_total = slot.finite_total
            if finite_total is not None:
                done = slot.done_instructions
                safe = 0
                while safe < k:
                    instructions = (b if safe & 1 else a)[1]
                    if not instructions < max(0.0, finite_total - done):
                        break
                    done += instructions
                    if done >= finite_total:
                        break
                    safe += 1
                if safe == 0:
                    return 0
                k = safe
            stepping.append((slot, a, b))
        for slot, a, b in stepping:
            steps = ((a, b) * k)[:k]
            t_instructions = slot.t_instructions
            t_accesses = slot.t_accesses
            t_misses = slot.t_misses
            done = slot.done_instructions
            lt_instructions = slot.lt_instructions
            lt_misses = slot.lt_misses
            c_instr = slot.c_instr
            c_miss = slot.c_miss
            c_access = slot.c_access
            w_instr = w_miss = w_ref = 0.0
            for _, instructions, accesses, misses in steps:
                t_instructions += instructions
                t_accesses += accesses
                t_misses += misses
                done += instructions
                lt_instructions += instructions
                lt_misses += misses
                carry = c_instr + instructions
                c_instr = carry % 1.0
                w_instr += carry - c_instr
                carry = c_miss + misses
                c_miss = carry % 1.0
                w_miss += carry - c_miss
                carry = c_access + accesses
                c_access = carry % 1.0
                w_ref += carry - c_access
            slot.t_instructions = t_instructions
            slot.t_accesses = t_accesses
            slot.t_misses = t_misses
            slot.done_instructions = done
            slot.lt_instructions = lt_instructions
            slot.lt_misses = lt_misses
            slot.c_instr = c_instr
            slot.c_miss = c_miss
            slot.c_access = c_access
            slot.p_instr += int(w_instr)
            slot.p_miss += int(w_miss)
            slot.p_ref += int(w_ref)
            cycles = slot.budget_cycles * k
            slot.t_cycles += cycles
            slot.lt_cycles += cycles
            slot.p_cycles += cycles
            slot.sub_miss = steps[-1][3]
            if a is not b:
                # Every replayed step missed the memo and shifted it.
                slot.memo, slot.memo_prev = (a, b) if k & 1 else (b, a)
            slot.last_exec_stamp += k
        stamp = self._stamp
        orbit = False
        for socket_id, domain in enumerate(self.system.llc_domains):
            changes = self._changes[socket_id]
            older, newer = changes
            if newer[0] != stamp:
                continue
            orbit = True
            if k & 1:
                domain._occupancy.clear()
                domain._occupancy.update(older[3])
                domain._used_lines = older[2]
            domain._state_version += k
            domain._relax_memo = None
            self._ver_after[socket_id] = domain._state_version
            first, last = (newer, older) if k & 1 else (older, newer)
            changes[0] = (stamp + k - 1, domain._state_version - 1) + first[2:]
            changes[1] = (stamp + k, domain._state_version) + last[2:]
        self._stamp += k
        self.fast_forwarded_substeps += k
        if orbit:
            self.orbit_substeps += k
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


def _load_behavior(slot: _CoreSlot, behavior) -> None:
    """Load ``behavior`` into ``slot``'s ``b_*`` fields.

    Also derives the step constants that depend on the behavior alone
    (the trivial-hit test, ``1.0 - stream_fraction`` and
    ``lapki / 1000.0``), so they are computed once per sample change
    instead of once per step.  Invalidates the memo first: the ``b_*``
    fields must always describe ``m_behavior``, and a penalty-shortened
    step (which never stores a memo) would otherwise leave them
    describing a different sample than a surviving memo entry.
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
