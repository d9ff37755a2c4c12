"""Property-based tests (hypothesis) on core data structures/invariants."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.kendall import kendall_tau, ranking_from_scores
from repro.cachesim.occupancy import LlcOccupancyDomain, waterfill_allocation
from repro.cachesim.perfmodel import (
    CacheBehavior,
    cycles_per_instruction,
    execute_step,
    hit_probability,
)
from repro.cachesim.setassoc import SetAssociativeCache
from repro.core.equation import llc_cap_act
from repro.core.pollution import PollutionAccount
from repro.hardware.latency import PAPER_LATENCIES
from repro.hardware.specs import CacheSpec, KIB
from repro.pmc.counters import COUNTER_MASK, delta


# -- strategies ---------------------------------------------------------------

behaviors = st.builds(
    CacheBehavior,
    wss_lines=st.floats(min_value=1, max_value=1e7),
    lapki=st.floats(min_value=0, max_value=1000),
    base_cpi=st.floats(min_value=0.1, max_value=5),
    locality_theta=st.floats(min_value=0.1, max_value=4),
    stream_fraction=st.floats(min_value=0, max_value=1),
    mlp=st.floats(min_value=1, max_value=64),
)

pressure_maps = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=0, max_value=1e6),
    min_size=1,
    max_size=6,
)


class TestHitProbabilityProperties:
    @given(behaviors, st.floats(min_value=0, max_value=2e7))
    def test_bounded(self, behavior, occ):
        p = hit_probability(behavior, occ)
        assert 0.0 <= p <= 1.0

    @given(behaviors, st.floats(min_value=0, max_value=1e7),
           st.floats(min_value=0, max_value=1e7))
    def test_monotone_in_occupancy(self, behavior, occ_a, occ_b):
        lo, hi = sorted((occ_a, occ_b))
        assert hit_probability(behavior, lo) <= hit_probability(behavior, hi) + 1e-12

    @given(behaviors, st.floats(min_value=0, max_value=1e7))
    def test_streaming_caps_hits(self, behavior, occ):
        # (The lapki == 0 case is a degenerate "no LLC traffic" shortcut.)
        assume(behavior.lapki > 0)
        assert hit_probability(behavior, occ) <= 1.0 - behavior.stream_fraction + 1e-12


class TestCpiProperties:
    @given(behaviors, st.floats(min_value=0, max_value=1))
    def test_cpi_at_least_base(self, behavior, hit):
        cpi = cycles_per_instruction(behavior, hit, PAPER_LATENCIES)
        assert cpi >= behavior.base_cpi - 1e-12

    @given(behaviors, st.floats(min_value=0, max_value=1),
           st.floats(min_value=0, max_value=1))
    def test_more_hits_never_slower(self, behavior, hit_a, hit_b):
        lo, hi = sorted((hit_a, hit_b))
        slow = cycles_per_instruction(behavior, lo, PAPER_LATENCIES)
        fast = cycles_per_instruction(behavior, hi, PAPER_LATENCIES)
        assert fast <= slow + 1e-9

    @given(behaviors, st.floats(min_value=0, max_value=1e7),
           st.integers(min_value=0, max_value=10_000_000))
    def test_execute_step_conservation(self, behavior, occ, cycles):
        result = execute_step(behavior, occ, cycles, PAPER_LATENCIES)
        assert result.instructions >= 0
        assert 0 <= result.llc_misses <= result.llc_accesses + 1e-9
        assert result.cycles == cycles


class TestOccupancyProperties:
    @given(pressure_maps)
    @settings(max_examples=60)
    def test_relax_conserves_capacity(self, pressures):
        domain = LlcOccupancyDomain(100_000)
        caps = {owner: 200_000.0 for owner in pressures}
        for _ in range(10):
            domain.relax(pressures, caps)
            assert domain.used_lines <= 100_000 + 1e-6
            assert all(occ >= 0 for occ in domain.snapshot().values())

    @given(pressure_maps)
    @settings(max_examples=60)
    def test_waterfill_respects_caps_and_capacity(self, pressures):
        caps = {owner: (owner + 1) * 10_000.0 for owner in pressures}
        alloc = waterfill_allocation(100_000, pressures, caps)
        assert sum(alloc.values()) <= 100_000 + 1e-6
        for owner, amount in alloc.items():
            assert amount <= caps.get(owner, float("inf")) + 1e-9
            assert amount >= 0

    @given(st.floats(min_value=1, max_value=1e6),
           st.floats(min_value=0, max_value=1e6))
    def test_insert_never_overflows(self, capacity, amount):
        domain = LlcOccupancyDomain(capacity)
        domain.insert(1, amount)
        assert domain.used_lines <= capacity + 1e-6


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=300))
    @settings(max_examples=40)
    def test_accesses_partition_into_hits_and_misses(self, addresses):
        cache = SetAssociativeCache(CacheSpec("T", 1 * KIB, 2))
        for address in addresses:
            cache.access(address)
        stats = cache.stats.total
        assert stats.hits + stats.misses == stats.accesses == len(addresses)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=300))
    @settings(max_examples=40)
    def test_residency_bounded_by_capacity(self, addresses):
        cache = SetAssociativeCache(CacheSpec("T", 1 * KIB, 2))
        for address in addresses:
            cache.access(address)
        assert cache.resident_lines() <= cache.spec.num_lines

    @given(st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1,
                    max_size=200))
    @settings(max_examples=40)
    def test_immediate_rereference_always_hits(self, addresses):
        cache = SetAssociativeCache(CacheSpec("T", 1 * KIB, 2))
        for address in addresses:
            cache.access(address)
            assert cache.access(address).hit is True


class TestPollutionProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=100),
           st.floats(min_value=1, max_value=1e6))
    def test_quota_never_exceeds_max(self, debits, llc_cap):
        account = PollutionAccount(llc_cap=llc_cap)
        for debit in debits:
            account.debit(debit)
            account.refill(ticks=3)
            assert account.quota <= account.quota_max + 1e-9

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=100),
           st.floats(min_value=1, max_value=1e6))
    def test_punishments_monotone_nondecreasing(self, debits, llc_cap):
        account = PollutionAccount(llc_cap=llc_cap)
        previous = 0
        for debit in debits:
            account.debit(debit)
            assert account.punishments >= previous
            previous = account.punishments

    @given(st.floats(min_value=1, max_value=1e6),
           st.floats(min_value=0, max_value=0.99))
    def test_compliant_rate_never_punished(self, llc_cap, fraction):
        account = PollutionAccount(llc_cap=llc_cap)
        for _ in range(50):
            account.debit(llc_cap * fraction)
            account.refill(ticks=1)
        assert account.punishments == 0


class TestEquationProperties:
    @given(st.floats(min_value=0, max_value=1e12),
           st.floats(min_value=1, max_value=1e12))
    def test_nonnegative(self, misses, cycles):
        assert llc_cap_act(misses, cycles, 2_800_000) >= 0

    @given(st.floats(min_value=1e-6, max_value=1e9),
           st.floats(min_value=1, max_value=1e12),
           st.floats(min_value=1.0, max_value=10.0))
    def test_scale_invariance(self, misses, cycles, k):
        """Scaling misses and cycles together leaves the rate unchanged."""
        base = llc_cap_act(misses, cycles, 2_800_000)
        scaled = llc_cap_act(misses * k, cycles * k, 2_800_000)
        assert math.isclose(base, scaled, rel_tol=1e-9, abs_tol=1e-12)


class TestPmcProperties:
    @given(st.integers(min_value=0, max_value=COUNTER_MASK),
           st.integers(min_value=0, max_value=COUNTER_MASK))
    def test_delta_inverts_wrapping_addition(self, start, increment):
        later = (start + increment) & COUNTER_MASK
        assert delta(start, later) == increment


class TestKendallProperties:
    @given(st.permutations(list("abcdefg")))
    def test_self_correlation_is_one(self, order):
        assert kendall_tau(order, order) == 1.0

    @given(st.permutations(list("abcdefg")))
    def test_reverse_is_minus_one(self, order):
        assert kendall_tau(order, list(reversed(order))) == -1.0

    @given(st.permutations(list("abcdef")), st.permutations(list("abcdef")))
    def test_bounded_and_symmetric(self, a, b):
        tau = kendall_tau(a, b)
        assert -1.0 <= tau <= 1.0
        assert tau == kendall_tau(b, a)

    @given(st.dictionaries(st.text(min_size=1, max_size=3),
                           st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2, max_size=8))
    def test_ranking_is_a_permutation(self, scores):
        order = ranking_from_scores(scores)
        assert sorted(order) == sorted(scores)
