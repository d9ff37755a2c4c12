"""Analytical shared-LLC occupancy model.

Simulating a 10 MB LLC access-by-access for seconds of machine time is far
too slow in pure Python, and unnecessary: the contention phenomena the
paper measures (Figs 1-6, 8) are driven by *line ownership dynamics* —
who holds how much of the LLC, and how fast competitors erode it.  This
module models exactly that:

* Each owner (a vCPU) holds a fractional number of LLC lines.
* A miss inserts one line.  If the cache has free lines the insertion
  consumes one; otherwise one resident line is evicted, chosen
  proportionally to current per-owner occupancy — the mean-field behaviour
  of LRU/random replacement under well-mixed set indices.
* An owner's footprint is capped at its working-set size: once its whole
  working set is resident, further (streaming) misses churn its own lines
  and keep pressuring everyone else without net growth.

Descheduled owners keep their lines but lose them to running owners'
insertions, which reproduces the paper's Fig 2 zigzag: after each time
slice spent descheduled, a VM restarts with a cold(er) cache and pays a
burst of reload misses.

:meth:`LlcOccupancyDomain.relax` advances this state once per simulated
sub-step, so it is the model's hot path; it reproduces a frozen
round-by-round reference bit for bit (``tests/test_cachesim_occupancy.py``).

The model is deliberately deterministic (expected-value dynamics); the
stochastic fine structure is available from the faithful simulator in
:mod:`repro.cachesim.setassoc` when needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.lint.contracts import check as contract_check


@dataclass
class InsertionOutcome:
    """Bookkeeping for one batch of insertions.

    Attributes:
        inserted: number of lines the owner attempted to insert.
        from_free: insertions satisfied from free (invalid) lines.
        evicted_by_owner: lines evicted from each owner (inserter included).
    """

    inserted: float
    from_free: float
    evicted_by_owner: Dict[int, float]


class LlcOccupancyDomain:
    """Shared-LLC line-ownership state for one socket."""

    def __init__(self, total_lines: int) -> None:
        if total_lines <= 0:
            raise ValueError(f"total_lines must be positive, got {total_lines}")
        self.total_lines = float(total_lines)
        self._occupancy: Dict[int, float] = {}
        # Cache of sum(self._occupancy.values()), refreshed at the end of
        # every mutation.  The hot paths (relax, insert, the per-substep
        # free_lines/occupancy_of queries) would otherwise re-sum the dict
        # several times per call.  The cache is always refreshed by a full
        # re-sum — never updated incrementally — so its value is bit-exact
        # with what summing on demand would return (float addition is not
        # associative; an incremental running total would drift).
        self._used_lines = 0.0
        # No-op relax memo.  ``_state_version`` advances whenever the
        # occupancy map may have changed; ``_relax_memo`` records the
        # inputs of the last :meth:`relax` call that provably left every
        # occupancy value bitwise unchanged.  A repeat call with the same
        # inputs against the same state is then skipped outright — at the
        # fixed point of the relaxation (a steady periodic schedule) the
        # overwhelming majority of per-substep relax calls hit this memo.
        self._state_version = 0
        self._relax_memo: Optional[
            Tuple[int, Dict[int, float], Dict[int, float], Optional[frozenset]]
        ] = None

    # -- queries -------------------------------------------------------------

    @property
    def used_lines(self) -> float:
        """Total resident lines across all owners."""
        return self._used_lines

    def _refresh_used(self) -> float:
        self._used_lines = sum(self._occupancy.values())
        return self._used_lines

    @property
    def free_lines(self) -> float:
        """Lines not owned by anyone."""
        return max(0.0, self.total_lines - self.used_lines)

    def occupancy_of(self, owner: int) -> float:
        """Lines currently held by ``owner`` (0.0 if unknown)."""
        return self._occupancy.get(owner, 0.0)

    def share_of(self, owner: int) -> float:
        """Fraction of the whole LLC held by ``owner``."""
        return self.occupancy_of(owner) / self.total_lines

    def owners(self) -> Iterable[int]:
        """Owners with non-zero occupancy."""
        return [o for o, occ in self._occupancy.items() if occ > 0.0]

    def snapshot(self) -> Dict[int, float]:
        """Copy of the per-owner occupancy map."""
        return dict(self._occupancy)

    # -- mutations -----------------------------------------------------------

    def insert(
        self,
        owner: int,
        n_lines: float,
        footprint_cap: Optional[float] = None,
    ) -> InsertionOutcome:
        """Insert ``n_lines`` lines on behalf of ``owner``.

        ``footprint_cap`` bounds the owner's resident footprint (its
        working-set size in lines).  Insertions beyond the cap still evict
        other owners' lines (churn pressure) but do not grow the owner.
        """
        if n_lines < 0:
            raise ValueError(f"cannot insert a negative line count: {n_lines}")
        if n_lines == 0:
            return InsertionOutcome(0.0, 0.0, {})
        self._state_version += 1

        from_free = min(n_lines, self.free_lines)
        overflow = n_lines - from_free
        evicted: Dict[int, float] = {}

        if overflow > 0:
            used = self.used_lines
            if used > 0:
                # Evict proportionally to occupancy; eviction amount cannot
                # exceed what an owner actually holds.
                scale = min(1.0, overflow / used)
                for victim, occ in list(self._occupancy.items()):
                    loss = occ * scale
                    if loss > 0:
                        self._occupancy[victim] = occ - loss
                        evicted[victim] = evicted.get(victim, 0.0) + loss

        gained = from_free + sum(evicted.values())
        self._occupancy[owner] = self._occupancy.get(owner, 0.0) + gained

        if footprint_cap is not None and self._occupancy[owner] > footprint_cap:
            # Streaming churn: the owner replaced its own lines instead of
            # growing; excess becomes free space again.
            self._occupancy[owner] = footprint_cap

        self._prune()
        contract_check(
            self.used_lines <= self.total_lines * (1.0 + 1e-9),
            "occupancy-conservation",
            f"{self.used_lines} lines resident in a {self.total_lines}-line LLC",
        )
        return InsertionOutcome(
            inserted=n_lines, from_free=from_free, evicted_by_owner=evicted
        )

    def evict_owner(self, owner: int, n_lines: float) -> float:
        """Forcefully remove up to ``n_lines`` of ``owner``; returns removed."""
        if n_lines < 0:
            raise ValueError(f"cannot evict a negative line count: {n_lines}")
        occ = self._occupancy.get(owner, 0.0)
        removed = min(occ, n_lines)
        if removed > 0:
            self._state_version += 1
            self._occupancy[owner] = occ - removed
            self._prune()
        return removed

    def flush_owner(self, owner: int) -> float:
        """Drop every line of ``owner`` (e.g. after a socket migration)."""
        return self.evict_owner(owner, self.occupancy_of(owner))

    def reset(self) -> None:
        """Empty the cache entirely."""
        self._state_version += 1
        self._occupancy.clear()
        self._used_lines = 0.0

    def _prune(
        self, epsilon: float = 1e-9, used: Optional[float] = None
    ) -> None:
        """Drop sub-epsilon owners; refreshes the used-lines cache.

        Every mutation path ends in a ``_prune`` call, which is what keeps
        the cache coherent with the occupancy map.  ``used`` is the
        caller's own sum of the map as it stands; when nothing is pruned
        it is stored as is, being exactly what a re-sum would return.
        """
        doomed = [o for o, occ in self._occupancy.items() if occ <= epsilon]
        for owner in doomed:
            del self._occupancy[owner]
        if doomed or used is None:
            self._refresh_used()
        else:
            self._used_lines = used

    # -- continuous-time relaxation (the machine simulation's fast path) ------

    def relax(
        self,
        pressures: Mapping[int, float],
        footprint_caps: Mapping[int, float],
        active: Optional[Iterable[int]] = None,
    ) -> None:
        """Advance the occupancy state after a batch of insertions.

        ``pressures[owner]`` is the number of lines the owner inserted
        during the elapsed interval (its misses); ``footprint_caps[owner]``
        bounds its resident footprint (working-set size in lines);
        ``active`` lists the owners currently *executing* (defaults to the
        keys of ``pressures``).  Pressures are miss counts: a negative one
        raises :class:`ValueError`.

        The naive per-batch exchange (:meth:`insert`) is numerically
        unstable once the batch size approaches the cache size — at
        realistic miss rates the whole LLC turns over in well under a
        millisecond, so a tick-level simulation would oscillate.  Instead
        the update mirrors the mean-field behaviour of LRU replacement:

        * **dead lines first** — lines of inactive (descheduled) owners
          are never re-touched, drift to the LRU end, and absorb eviction
          pressure before anyone else's; they are consumed linearly, which
          is what makes a VM restart cold after a time slice spent
          descheduled (the paper's Fig 2 zigzag);
        * **growth is insertion-bounded** — an owner gains at most as many
          lines as it actually inserted, so a cold working set reloads
          linearly (one lap of the pointer chain), not instantaneously;
        * **contention among active owners** relaxes toward a waterfilled
          equilibrium: shares proportional to insertion pressure, capped
          by footprints, with one cache-capacity's worth of insertions as
          the exponential time constant.

        A call whose waterfill would finish in its first round (no
        ``active`` list, every pressure and cap positive, no owner's share
        reaching its cap) computes the shares inline instead of calling
        :func:`waterfill_allocation`; the result is bitwise the same.
        """
        if pressures and min(pressures.values()) < 0:
            raise ValueError(f"negative insertion pressure: {pressures}")
        total_insertions = sum(pressures.values())
        if total_insertions == 0:
            return
        memo = self._relax_memo
        if (
            memo is not None
            and memo[0] == self._state_version
            and memo[1] == pressures
            and memo[2] == footprint_caps
            and (
                memo[3] is None
                if active is None
                else memo[3] is not None and memo[3] == frozenset(active)
            )
        ):
            # Same inputs against the same state as the last provably
            # bitwise-no-op call: the relaxation is at its fixed point.
            return
        occupancy = self._occupancy
        active_set: Optional[set] = None
        if active is None and occupancy.keys() <= pressures.keys():
            # The shape of every sub-step at a dense schedule: every
            # resident owner is contributing, so there are no dead lines.
            # Phase 1 would find dead_total == 0.0 and consume nothing,
            # leaving capacity_active at max(1.0, total_lines - 0.0),
            # which is max(1.0, total_lines) exactly.
            changed = False
            capacity_active = max(1.0, self.total_lines)
        else:
            active_set = set(pressures) if active is None else set(active)
            changed, capacity_active = self._consume_dead_lines(
                total_insertions, active_set
            )

        # Phase 2: active owners move toward the waterfilled equilibrium
        # of the capacity not pinned down by surviving dead lines.
        targets: Optional[Dict[int, float]] = None
        if active is None:
            # Single-round shape: when every owner passes waterfill's
            # filter and none saturates, waterfill returns its first
            # round's shares in pressures order, over a total pressure
            # summed from the same floats in the same order as
            # total_insertions, so each share here is the same float.
            # The walk below visits owners in pressures order instead of
            # sorted(pressures): an existing key keeps its dict position
            # either way, and fresh owners are inserted sorted.
            targets = {}
            caps_get = footprint_caps.get
            for owner, pressure in pressures.items():
                share = capacity_active * pressure / total_insertions
                # A cap above a non-negative share is positive; a NaN
                # cap fails here as it fails waterfill's filter.
                if not (pressure > 0 and caps_get(owner, capacity_active) > share):
                    targets = None
                    break
                targets[owner] = share
        if targets is None:
            equilibrium = waterfill_allocation(
                capacity_active, pressures, footprint_caps
            )
            if active_set is None:
                # With no dead owners, equilibrium | (occupancy & active)
                # is a subset of pressures.  An owner it leaves out holds
                # no lines and has no equilibrium share, so it would grow
                # by min(0.0, pressure) == 0.0 (pressures are
                # non-negative) and is never stored: walking all of
                # pressures changes nothing.
                order = sorted(pressures)
            else:
                order = sorted(set(equilibrium) | (set(occupancy) & active_set))
            equilibrium_get = equilibrium.get
            targets = {owner: equilibrium_get(owner, 0.0) for owner in order}
        survive = math.exp(-total_insertions / capacity_active)
        occupancy_get = occupancy.get
        pressures_get = pressures.get
        fresh = []
        for owner, target in targets.items():
            current = occupancy_get(owner, 0.0)
            if target >= current:
                # min(target - current, pressure), spelled out: min()
                # keeps its first argument unless a later one is strictly
                # smaller.
                gap = target - current
                pressure = pressures_get(owner, 0.0)
                updated = current + (pressure if pressure < gap else gap)
            else:
                updated = target + (current - target) * survive
            # Skipping a bitwise-equal store is state-identical: an
            # existing key keeps its dict position either way, and an
            # absent key with updated == 0.0 would be pruned right after.
            if updated != current:
                if owner in occupancy:
                    occupancy[owner] = updated
                else:
                    fresh.append((owner, updated))
                changed = True
        # Owners new to the map join it in sorted order, as a sorted walk
        # stores them (owners are distinct, so only the keys compare).
        fresh.sort()
        for owner, updated in fresh:
            occupancy[owner] = updated

        if not changed:
            # Every store this call would have made was bitwise equal to
            # the value already present, so pruning and the used-lines
            # refresh would change nothing either (no sub-epsilon entries
            # can have appeared).  Record the fixed point.
            self._relax_memo = (
                self._state_version,
                dict(pressures),
                dict(footprint_caps),
                None if active is None else frozenset(active),
            )
            return
        self._state_version += 1
        self._relax_memo = None

        # Conservation guard: insertion-bounded growth plus exponential
        # shrink can transiently oversubscribe; squeeze proportionally.
        # The map is summed once here; _prune re-sums only if the squeeze
        # or the prune changed it.
        used: Optional[float] = sum(occupancy.values())
        if used > self.total_lines:
            scale = self.total_lines / used
            for owner in occupancy:
                occupancy[owner] *= scale
            used = None
        self._prune(used=used)
        used = self._used_lines
        if used > self.total_lines * (1.0 + 1e-9):
            # Detail string built only on violation; this contract sits on
            # the per-substep fast path.
            contract_check(
                False,
                "occupancy-conservation",
                f"{used} lines resident in a {self.total_lines}-line LLC",
            )

    def _consume_dead_lines(
        self, total_insertions: float, active_set: set
    ) -> Tuple[bool, float]:
        """Phase 1 of :meth:`relax`: dead lines absorb eviction first.

        Eviction pressure beyond free space consumes inactive owners'
        (dead) lines, proportionally among them.  Returns whether any
        occupancy changed and the capacity left to the active owners.
        """
        # Two passes over the same filter instead of building a
        # dead-owner dict: the second pass is usually skipped.
        occupancy = self._occupancy
        changed = False
        overflow = max(0.0, total_insertions - self.free_lines)
        dead_total = 0.0
        for owner, occ in occupancy.items():
            if owner not in active_set and occ > 0.0:
                dead_total += occ
        from_dead = min(overflow, dead_total)
        if from_dead > 0:
            for owner, occ in occupancy.items():
                if owner not in active_set and occ > 0.0:
                    shrunk = occ - from_dead * occ / dead_total
                    if shrunk != occ:
                        occupancy[owner] = shrunk
                        changed = True
        surviving_dead = dead_total - from_dead
        return changed, max(1.0, self.total_lines - surviving_dead)


def waterfill_allocation(
    capacity: float,
    pressures: Mapping[int, float],
    footprint_caps: Mapping[int, float],
) -> Dict[int, float]:
    """Steady-state cache allocation under proportional replacement.

    Each owner with positive insertion pressure receives a share of
    ``capacity`` proportional to its pressure, except that no owner can
    hold more than its footprint cap; capacity freed by saturated owners
    is redistributed among the rest (classic waterfilling).
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    caps_get = footprint_caps.get
    active = {
        owner: pressure
        for owner, pressure in pressures.items()
        if pressure > 0 and caps_get(owner, capacity) > 0
    }
    allocation: Dict[int, float] = {}
    remaining = capacity
    while active and remaining > 0:
        total_pressure = sum(active.values())
        # Each share is computed once: when no owner saturates, this
        # round's shares complete the allocation, in ``active`` order.
        shares: Dict[int, float] = {}
        for owner, pressure in active.items():
            share = remaining * pressure / total_pressure
            if caps_get(owner, capacity) <= share:
                break
            shares[owner] = share
        else:
            if not allocation:
                return shares
            allocation.update(shares)
            return allocation
        # A set (not a list) on purpose: ``remaining`` is debited in set
        # iteration order below, and float subtraction order is
        # observable — goldens pin this exact order.
        saturated = {
            owner
            for owner, pressure in active.items()
            if footprint_caps.get(owner, capacity)
            <= remaining * pressure / total_pressure
        }
        for owner in saturated:
            cap = footprint_caps.get(owner, capacity)
            allocation[owner] = cap
            remaining -= cap
            del active[owner]
    for owner in active:
        allocation.setdefault(owner, 0.0)
    return allocation
