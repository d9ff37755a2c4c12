"""Tests for the shared-LLC occupancy/contention model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import occupancy as occupancy_module
from repro.cachesim.occupancy import (
    LlcOccupancyDomain,
    waterfill_allocation,
)


class TestBasics:
    def test_starts_empty(self):
        domain = LlcOccupancyDomain(1000)
        assert domain.used_lines == 0
        assert domain.free_lines == 1000

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LlcOccupancyDomain(0)

    def test_insert_into_free_space(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 100)
        assert domain.occupancy_of(1) == 100
        assert domain.free_lines == 900

    def test_negative_insert_rejected(self):
        with pytest.raises(ValueError):
            LlcOccupancyDomain(1000).insert(1, -1)

    def test_share_of(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 250)
        assert domain.share_of(1) == 0.25

    def test_owners_listing(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 10)
        domain.insert(2, 20)
        assert sorted(domain.owners()) == [1, 2]

    def test_footprint_cap(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 500, footprint_cap=200)
        assert domain.occupancy_of(1) == 200

    def test_proportional_eviction_when_full(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 600)
        domain.insert(2, 400)
        domain.insert(3, 100)  # must evict 100 proportionally
        assert domain.occupancy_of(1) == pytest.approx(540)
        assert domain.occupancy_of(2) == pytest.approx(360)
        assert domain.occupancy_of(3) == pytest.approx(100)
        assert domain.used_lines == pytest.approx(1000)

    def test_evict_owner(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 300)
        removed = domain.evict_owner(1, 100)
        assert removed == 100
        assert domain.occupancy_of(1) == 200

    def test_evict_more_than_held(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 50)
        assert domain.evict_owner(1, 100) == 50
        assert domain.occupancy_of(1) == 0

    def test_flush_owner(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 300)
        assert domain.flush_owner(1) == 300
        assert 1 not in list(domain.owners())

    def test_reset(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 300)
        domain.reset()
        assert domain.used_lines == 0

    def test_snapshot_is_a_copy(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 300)
        snap = domain.snapshot()
        snap[1] = 0
        assert domain.occupancy_of(1) == 300


class TestWaterfill:
    def test_proportional_when_uncapped(self):
        alloc = waterfill_allocation(100, {1: 3, 2: 1}, {})
        assert alloc[1] == pytest.approx(75)
        assert alloc[2] == pytest.approx(25)

    def test_cap_binds_and_redistributes(self):
        alloc = waterfill_allocation(100, {1: 3, 2: 1}, {1: 50})
        assert alloc[1] == 50
        assert alloc[2] == pytest.approx(50)

    def test_all_capped_leaves_free_space(self):
        alloc = waterfill_allocation(100, {1: 1, 2: 1}, {1: 20, 2: 30})
        assert alloc == {1: 20, 2: 30}

    def test_zero_pressure_excluded(self):
        alloc = waterfill_allocation(100, {1: 5, 2: 0}, {})
        assert alloc.get(2, 0.0) == 0.0
        assert alloc[1] == 100

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            waterfill_allocation(0, {1: 1}, {})

    def test_never_exceeds_capacity(self):
        alloc = waterfill_allocation(100, {1: 7, 2: 13, 3: 1}, {2: 40})
        assert sum(alloc.values()) <= 100 + 1e-9


class TestRelax:
    def test_no_insertions_no_change(self):
        domain = LlcOccupancyDomain(1000)
        domain.insert(1, 300)
        domain.relax({1: 0.0}, {1: 300})
        assert domain.occupancy_of(1) == 300

    def test_growth_bounded_by_insertions(self):
        domain = LlcOccupancyDomain(1000)
        domain.relax({1: 50.0}, {1: 800})
        assert domain.occupancy_of(1) == pytest.approx(50)

    def test_linear_reload_into_free_space(self):
        domain = LlcOccupancyDomain(1000)
        for _ in range(4):
            domain.relax({1: 100.0}, {1: 800})
        assert domain.occupancy_of(1) == pytest.approx(400)

    def test_growth_stops_at_footprint(self):
        domain = LlcOccupancyDomain(1000)
        for _ in range(10):
            domain.relax({1: 100.0}, {1: 300})
        assert domain.occupancy_of(1) == pytest.approx(300)

    def test_dead_lines_decay_first(self):
        domain = LlcOccupancyDomain(1000)
        # Owner 2 fills the cache, then stops running.
        for _ in range(20):
            domain.relax({2: 200.0}, {2: 2000})
        assert domain.occupancy_of(2) == pytest.approx(1000)
        # Owner 1 runs alone: its insertions consume owner 2's dead lines.
        domain.relax({1: 100.0}, {1: 500}, active=[1])
        assert domain.occupancy_of(1) == pytest.approx(100)
        assert domain.occupancy_of(2) == pytest.approx(900)

    def test_descheduled_owner_fully_evicted_eventually(self):
        domain = LlcOccupancyDomain(1000)
        for _ in range(20):
            domain.relax({2: 200.0}, {2: 2000})
        for _ in range(20):
            domain.relax({1: 200.0}, {1: 2000}, active=[1])
        assert domain.occupancy_of(2) == pytest.approx(0, abs=1e-6)

    def test_never_oversubscribed(self):
        domain = LlcOccupancyDomain(1000)
        for step in range(50):
            domain.relax({1: 300.0, 2: 500.0, 3: 100.0},
                         {1: 700, 2: 5000, 3: 90})
            assert domain.used_lines <= 1000 + 1e-6

    def test_contention_equilibrium_proportional(self):
        domain = LlcOccupancyDomain(1000)
        for _ in range(200):
            domain.relax({1: 300.0, 2: 100.0}, {1: 5000, 2: 5000})
        assert domain.occupancy_of(1) == pytest.approx(750, rel=0.05)
        assert domain.occupancy_of(2) == pytest.approx(250, rel=0.05)

    def test_negative_pressure_rejected(self):
        domain = LlcOccupancyDomain(1000)
        with pytest.raises(ValueError):
            domain.relax({1: -5.0}, {1: 100})

    @pytest.mark.parametrize(
        "pressures", [{1: 10.0, 2: -1.0}, {1: 5.0, 2: -5.0}]
    )
    def test_any_negative_pressure_rejected(self, pressures):
        # Rejected even when the total is positive or zero, and before
        # any state moves: the dense fast path relies on it.
        domain = LlcOccupancyDomain(1000)
        domain.relax({3: 100.0}, {3: 400})
        before = (domain.snapshot(), domain._state_version)
        with pytest.raises(ValueError, match="negative insertion pressure"):
            domain.relax(pressures, {1: 400, 2: 400})
        assert (domain.snapshot(), domain._state_version) == before

    def test_active_zero_pressure_owner_keeps_lines_without_attack(self):
        domain = LlcOccupancyDomain(1000)
        for _ in range(5):
            domain.relax({1: 100.0}, {1: 400})
        # Now fully resident and not missing: no pressure from anyone.
        domain.relax({1: 0.0}, {1: 400}, active=[1])
        assert domain.occupancy_of(1) == pytest.approx(400)


# -- bitwise oracle: the relaxation before its fast paths --------------------
#
# Every tick engine calls the same ``relax``, so the engine-equivalence
# properties cannot see a change to it; only the experiment goldens could.
# These are the round-by-round waterfill and the two-phase relax as they
# stood before the dense-shape and single-round fast paths, frozen here as
# the reference (free_lines, _refresh_used and _prune inlined).  The live
# code must reproduce them bit for bit: occupancy values and dict order,
# used_lines, the state version and the no-op memo.


def _reference_waterfill(capacity, pressures, footprint_caps):
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    active = {
        owner: pressure
        for owner, pressure in pressures.items()
        if pressure > 0 and footprint_caps.get(owner, capacity) > 0
    }
    allocation = {}
    remaining = capacity
    while active and remaining > 0:
        total_pressure = sum(active.values())
        any_saturated = False
        for owner, pressure in active.items():
            if (
                footprint_caps.get(owner, capacity)
                <= remaining * pressure / total_pressure
            ):
                any_saturated = True
                break
        if not any_saturated:
            for owner, pressure in active.items():
                allocation[owner] = remaining * pressure / total_pressure
            return allocation
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


def _reference_relax(domain, pressures, footprint_caps, active=None):
    total_insertions = sum(pressures.values())
    if total_insertions < 0:
        raise ValueError(f"negative total insertion pressure: {pressures}")
    if total_insertions == 0:
        return
    memo = domain._relax_memo
    if (
        memo is not None
        and memo[0] == domain._state_version
        and memo[1] == pressures
        and memo[2] == footprint_caps
        and (
            memo[3] is None
            if active is None
            else memo[3] is not None and memo[3] == frozenset(active)
        )
    ):
        return
    active_set = set(pressures) if active is None else set(active)
    changed = False
    occupancy = domain._occupancy
    free_lines = max(0.0, domain.total_lines - domain._used_lines)
    overflow = max(0.0, total_insertions - free_lines)
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
    capacity_active = max(1.0, domain.total_lines - surviving_dead)
    equilibrium = _reference_waterfill(
        capacity_active, pressures, footprint_caps
    )
    survive = math.exp(-total_insertions / capacity_active)
    for owner in sorted(set(equilibrium) | (set(occupancy) & active_set)):
        current = occupancy.get(owner, 0.0)
        target = equilibrium.get(owner, 0.0)
        if target >= current:
            grow = min(target - current, pressures.get(owner, 0.0))
            updated = current + grow
        else:
            updated = target + (current - target) * survive
        if updated != current:
            occupancy[owner] = updated
            changed = True
    if not changed:
        domain._relax_memo = (
            domain._state_version,
            dict(pressures),
            dict(footprint_caps),
            None if active is None else frozenset(active),
        )
        return
    domain._state_version += 1
    domain._relax_memo = None
    used = sum(occupancy.values())
    if used > domain.total_lines:
        scale = domain.total_lines / used
        for owner in occupancy:
            occupancy[owner] *= scale
    for owner in [o for o, occ in occupancy.items() if occ <= 1e-9]:
        del occupancy[owner]
    domain._used_lines = sum(occupancy.values())


def _bits(value):
    """A float's exact identity: distinguishes -0.0 from 0.0."""
    return value.hex() if isinstance(value, float) else value


def _items_bits(mapping):
    return [(key, _bits(value)) for key, value in mapping.items()]


def _domain_bits(domain):
    memo = domain._relax_memo
    if memo is not None:
        memo = (
            memo[0],
            _items_bits(memo[1]),
            _items_bits(memo[2]),
            memo[3],
        )
    return (
        _items_bits(domain._occupancy),
        _bits(domain.used_lines),
        domain._state_version,
        memo,
    )


_INT_OWNERS = list(range(6))
_STR_OWNERS = [f"vm{index}" for index in range(6)]

# Line counts on the scale of total_lines below, plus sub-epsilon values
# (pruned on the next mutation) and exact zeros.
_lines = st.one_of(
    st.floats(min_value=0.0, max_value=2500.0),
    st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 2e-9, 1.0]),
)
_pressure = st.one_of(
    st.floats(min_value=0.0, max_value=3000.0),
    st.sampled_from([0.0, 1e-12, 1.0, 50.0]),
)
# A missing cap defaults to the capacity; 0 excludes the owner; small
# caps saturate, possibly over several waterfill rounds.
_cap = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1.0, 10.0, 100.0]),
    st.floats(min_value=0.0, max_value=3000.0),
)


@st.composite
def _relax_case(draw):
    owners = draw(st.sampled_from([_INT_OWNERS, _STR_OWNERS]))
    total_lines = draw(st.sampled_from([1, 10, 500, 1000, 2000]))
    occupancy = draw(
        st.dictionaries(st.sampled_from(owners), _lines, max_size=len(owners))
    )
    calls = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if calls and draw(st.booleans()):
            # Repeat the previous call: exercises the no-op memo once the
            # state sits at its fixed point.
            calls.append(calls[-1])
            continue
        pressures = draw(
            st.dictionaries(
                st.sampled_from(owners), _pressure, max_size=len(owners)
            )
        )
        caps = {}
        for owner in owners:
            cap = draw(_cap)
            if cap is not None:
                caps[owner] = cap
        if occupancy and draw(st.booleans()):
            # Caps equal to current holdings: the owner's target is its
            # occupancy exactly, the shape of a no-op relaxation.
            for owner, occ in occupancy.items():
                caps[owner] = occ
        active = draw(
            st.one_of(
                st.none(),
                st.lists(st.sampled_from(owners), max_size=len(owners)),
            )
        )
        calls.append((pressures, caps, active))
    return total_lines, occupancy, calls


class TestRelaxMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_relax_case())
    def test_relax_is_bitwise_the_reference(self, case):
        total_lines, occupancy, calls = case
        live = LlcOccupancyDomain(total_lines)
        reference = LlcOccupancyDomain(total_lines)
        for domain in (live, reference):
            # Arbitrary states, including sub-epsilon and oversubscribed
            # ones no mutation would leave behind.
            domain._occupancy = dict(occupancy)
            domain._used_lines = sum(occupancy.values())
        for pressures, caps, active in calls:
            outcomes = []
            for relax in (
                live.relax,
                lambda p, c, a: _reference_relax(reference, p, c, a),
            ):
                try:
                    relax(dict(pressures), dict(caps), active)
                    outcomes.append(None)
                except ValueError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            assert _domain_bits(live) == _domain_bits(reference)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.floats(min_value=1e-6, max_value=3000.0),
            st.sampled_from([1.0, 100.0, 1000.0]),
        ),
        st.sampled_from([_INT_OWNERS, _STR_OWNERS]).flatmap(
            lambda owners: st.tuples(
                st.dictionaries(
                    st.sampled_from(owners), _pressure, max_size=len(owners)
                ),
                st.dictionaries(
                    st.sampled_from(owners),
                    st.one_of(
                        st.sampled_from([0.0, 1.0, 10.0, 100.0]),
                        st.floats(min_value=0.0, max_value=3000.0),
                    ),
                    max_size=len(owners),
                ),
            )
        ),
    )
    def test_waterfill_is_bitwise_the_reference(self, capacity, inputs):
        pressures, caps = inputs
        assert _items_bits(waterfill_allocation(capacity, pressures, caps)) == (
            _items_bits(_reference_waterfill(capacity, pressures, caps))
        )

    def test_dense_shape_takes_the_fast_path_bitwise(self):
        # Sixteen resident contributors, no dead owners, no saturation:
        # the shape of every relax call at a dense schedule.
        live = LlcOccupancyDomain(327_680)
        reference = LlcOccupancyDomain(327_680)
        caps = {gid: 40_000.0 + 1_000.0 * gid for gid in range(16)}
        for step in range(200):
            pressures = {
                gid: 500.0 + 37.0 * ((gid * 7 + step) % 16) for gid in range(16)
            }
            live.relax(pressures, caps)
            _reference_relax(reference, pressures, caps)
            assert _domain_bits(live) == _domain_bits(reference)
        assert len(live.snapshot()) == 16


# -- the single-round path ---------------------------------------------------


def _zigzag_pressures(step):
    """Owners 0-7 and 8-15 take turns, five sub-steps each (Fig 2)."""
    first = 0 if (step // 5) % 2 == 0 else 8
    return {gid: 400.0 + 29.0 * ((gid * 5 + step) % 11) for gid in range(first, first + 8)}


class TestSingleRoundPath:
    """Calls whose waterfill ends in its first round skip the waterfill."""

    @pytest.fixture
    def no_waterfill(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("waterfill_allocation reached")

        monkeypatch.setattr(occupancy_module, "waterfill_allocation", refuse)

    def test_dense_and_dead_owner_calls_skip_waterfill(self, no_waterfill):
        domain = LlcOccupancyDomain(327_680)
        caps = {gid: 100_000.0 for gid in range(16)}
        domain.relax({gid: 5_000.0 + gid for gid in range(16)}, caps)
        assert len(domain.snapshot()) == 16
        # Owners 8-15 are descheduled and hold lines: a dead-owner call.
        dead_before = domain.occupancy_of(8)
        domain.relax({gid: 400_000.0 + gid for gid in range(8)}, caps)
        assert domain.occupancy_of(8) < dead_before

    @pytest.mark.parametrize(
        "pressures, caps, active",
        [
            # Owner 0's share passes its cap: a second round.
            ({0: 500.0, 1: 500.0}, {0: 10.0, 1: 4_000.0}, None),
            # A share exactly at its cap saturates too.
            ({0: 500.0, 1: 500.0}, {0: 500.0}, None),
            # A zero pressure is waterfill's filter at work.
            ({0: 500.0, 1: 0.0, 2: 500.0}, {}, None),
            # A zero cap likewise.
            ({0: 500.0, 1: 500.0, 2: 500.0}, {1: 0.0}, None),
            # An explicit active list walks the general order.
            ({0: 500.0, 1: 500.0}, {}, [0, 1]),
        ],
    )
    def test_other_calls_take_the_rounds_path(
        self, no_waterfill, pressures, caps, active
    ):
        domain = LlcOccupancyDomain(1_000)
        with pytest.raises(RuntimeError, match="waterfill_allocation reached"):
            domain.relax(pressures, caps, active)

    def test_dead_owner_shape_takes_the_fast_path_bitwise(self, no_waterfill):
        live = LlcOccupancyDomain(327_680)
        reference = LlcOccupancyDomain(327_680)
        caps = {gid: 60_000.0 + 1_000.0 * gid for gid in range(16)}
        dead_owner_calls = 0
        for step in range(200):
            pressures = _zigzag_pressures(step)
            if not live.snapshot().keys() <= pressures.keys():
                dead_owner_calls += 1
            live.relax(pressures, caps)
            _reference_relax(reference, pressures, caps)
            assert _domain_bits(live) == _domain_bits(reference)
        # Only the first five calls, before anyone was descheduled, do not.
        assert dead_owner_calls == 195

    @pytest.mark.parametrize(
        "owners",
        [[9, 2, 14, 0, 5], ["vm9", "vm2", "vm14", "vm0", "vm5"]],
    )
    def test_fresh_owners_join_in_sorted_order(self, no_waterfill, owners):
        live = LlcOccupancyDomain(2_000)
        reference = LlcOccupancyDomain(2_000)
        first, second = owners[:3], owners[3:]
        # The second call names its fresh owners first and in reverse.
        for pressures in (
            {owner: 100.0 for owner in first},
            {owner: 50.0 for owner in second[::-1] + first},
        ):
            live.relax(pressures, {})
            _reference_relax(reference, pressures, {})
            assert _domain_bits(live) == _domain_bits(reference)
        assert list(live.snapshot()) == sorted(first) + sorted(second)
