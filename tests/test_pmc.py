"""Tests for the PMC model and the perfctr-style virtualisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmc.counters import (
    COUNTER_MASK,
    EVENTS,
    CoreCounters,
    HardwareCounter,
    PmcEvent,
    delta,
)
from repro.pmc.perfctr import PerfctrError, PerfctrVirtualizer


class TestHardwareCounter:
    def test_starts_at_zero(self):
        assert HardwareCounter(PmcEvent.LLC_MISSES).read() == 0

    def test_add(self):
        counter = HardwareCounter(PmcEvent.LLC_MISSES)
        counter.add(5)
        counter.add(7)
        assert counter.read() == 12

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            HardwareCounter(PmcEvent.LLC_MISSES).add(-1)

    def test_wraps_at_48_bits(self):
        counter = HardwareCounter(PmcEvent.LLC_MISSES)
        counter.write(COUNTER_MASK)
        counter.add(2)
        assert counter.read() == 1

    def test_write_masks(self):
        counter = HardwareCounter(PmcEvent.LLC_MISSES)
        counter.write(COUNTER_MASK + 10)
        assert counter.read() == 9


class TestDelta:
    def test_simple(self):
        assert delta(40, 100) == 60

    def test_wrap_aware(self):
        assert delta(COUNTER_MASK - 4, 5) == 10

    def test_zero(self):
        assert delta(7, 7) == 0


class TestCoreCounters:
    def test_independent_events(self):
        bank = CoreCounters(0)
        bank.add(PmcEvent.LLC_MISSES, 3)
        bank.add(PmcEvent.INSTRUCTIONS_RETIRED, 100)
        assert bank.read(PmcEvent.LLC_MISSES) == 3
        assert bank.read(PmcEvent.INSTRUCTIONS_RETIRED) == 100
        assert bank.read(PmcEvent.UNHALTED_CORE_CYCLES) == 0

    def test_read_all(self):
        bank = CoreCounters(0)
        bank.add(PmcEvent.LLC_MISSES, 3)
        snapshot = bank.read_all()
        assert snapshot[PmcEvent.LLC_MISSES] == 3
        assert len(snapshot) == len(PmcEvent)


class TestPerfctr:
    def setup_method(self):
        self.cores = {0: CoreCounters(0), 1: CoreCounters(1)}
        self.virt = PerfctrVirtualizer(self.cores)

    def test_attributes_deltas_to_vcpu(self):
        self.virt.context_switch_in(7, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 50)
        deltas = self.virt.context_switch_out(7)
        assert deltas[PmcEvent.LLC_MISSES] == 50
        assert self.virt.account(7).read(PmcEvent.LLC_MISSES) == 50

    def test_only_own_window_counted(self):
        self.cores[0].add(PmcEvent.LLC_MISSES, 999)  # before switch-in
        self.virt.context_switch_in(7, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 10)
        deltas = self.virt.context_switch_out(7)
        assert deltas[PmcEvent.LLC_MISSES] == 10

    def test_two_vcpus_interleaved_on_one_core(self):
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 5)
        self.virt.context_switch_out(1)
        self.virt.context_switch_in(2, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 7)
        self.virt.context_switch_out(2)
        assert self.virt.account(1).read(PmcEvent.LLC_MISSES) == 5
        assert self.virt.account(2).read(PmcEvent.LLC_MISSES) == 7

    def test_double_switch_in_rejected(self):
        self.virt.context_switch_in(1, 0)
        with pytest.raises(PerfctrError):
            self.virt.context_switch_in(1, 1)

    def test_switch_out_without_in_rejected(self):
        with pytest.raises(PerfctrError):
            self.virt.context_switch_out(1)

    def test_accumulates_across_stints(self):
        for i in range(3):
            self.virt.context_switch_in(1, 0)
            self.cores[0].add(PmcEvent.LLC_MISSES, 10)
            self.virt.context_switch_out(1)
        assert self.virt.account(1).read(PmcEvent.LLC_MISSES) == 30

    def test_counter_wrap_handled(self):
        self.cores[0].add(PmcEvent.LLC_MISSES, COUNTER_MASK - 3)
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 10)  # wraps
        deltas = self.virt.context_switch_out(1)
        assert deltas[PmcEvent.LLC_MISSES] == 10

    def test_sample_returns_delta_since_last_sample(self):
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 10)
        first = self.virt.sample(1)
        self.cores[0].add(PmcEvent.LLC_MISSES, 4)
        second = self.virt.sample(1)
        assert first[PmcEvent.LLC_MISSES] == 10
        assert second[PmcEvent.LLC_MISSES] == 4

    def test_sample_of_descheduled_vcpu(self):
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 10)
        self.virt.context_switch_out(1)
        assert self.virt.sample(1)[PmcEvent.LLC_MISSES] == 10
        assert self.virt.sample(1)[PmcEvent.LLC_MISSES] == 0

    def test_flush_running_keeps_vcpu_switched_in(self):
        self.virt.context_switch_in(1, 0)
        self.cores[0].add(PmcEvent.LLC_MISSES, 3)
        self.virt.flush_running(1)
        assert self.virt.is_running(1)
        self.cores[0].add(PmcEvent.LLC_MISSES, 2)
        self.virt.context_switch_out(1)
        assert self.virt.account(1).read(PmcEvent.LLC_MISSES) == 5

    def test_flush_running_noop_when_descheduled(self):
        self.virt.flush_running(42)  # must not raise


# -- array-backed virtualisation vs a dict-based reference model ---------------


class _DictPerfctrModel:
    """The perfctr protocol written with enum-keyed dicts throughout.

    An independent statement of the semantics the array-backed
    :class:`PerfctrVirtualizer` must keep: raw 48-bit counters per core,
    baseline snapshots at switch-in, wrap-aware deltas banked at
    switch-out, flush as an out+in pair, and samples as the change of the
    cumulative totals since the previous sample.  Method names match the
    virtualiser's, so one op sequence drives both.
    """

    def __init__(self, core_ids):
        self.raw = {core: {event: 0 for event in PmcEvent} for core in core_ids}
        self.totals = {}
        self.last = {}
        self.active = {}

    @staticmethod
    def _zeros():
        return {event: 0 for event in PmcEvent}

    def add(self, core, event, amount):
        self.raw[core][event] = (self.raw[core][event] + amount) & COUNTER_MASK

    def context_switch_in(self, vcpu, core):
        if vcpu in self.active:
            raise PerfctrError("double switch-in")
        self.active[vcpu] = (core, dict(self.raw[core]))

    def context_switch_out(self, vcpu):
        if vcpu not in self.active:
            raise PerfctrError("switch-out without switch-in")
        core, baselines = self.active.pop(vcpu)
        totals = self.totals.setdefault(vcpu, self._zeros())
        deltas = {}
        for event in PmcEvent:
            deltas[event] = (self.raw[core][event] - baselines[event]) & COUNTER_MASK
            totals[event] += deltas[event]
        return deltas

    def flush_running(self, vcpu):
        if vcpu in self.active:
            core = self.active[vcpu][0]
            self.context_switch_out(vcpu)
            self.context_switch_in(vcpu, core)

    def sample(self, vcpu):
        self.flush_running(vcpu)
        totals = self.totals.setdefault(vcpu, self._zeros())
        last = self.last.get(vcpu, self._zeros())
        deltas = {event: totals[event] - last[event] for event in PmcEvent}
        self.last[vcpu] = dict(totals)
        return deltas

    # The row primitives' results are compared as event-keyed dicts
    # (see _apply), so the model states them as the dict operations.
    switch_out_row = context_switch_out
    sample_row = sample

    def retire_account(self, vcpu):
        if vcpu in self.active:
            raise PerfctrError("retire while switched in")
        self.totals.pop(vcpu, None)
        self.last.pop(vcpu, None)

    def read(self, vcpu, event):
        return self.totals.get(vcpu, self._zeros())[event]


_VCPUS = st.integers(min_value=0, max_value=1)
_CORES = st.integers(min_value=0, max_value=1)
_AMOUNTS = st.one_of(
    st.integers(min_value=0, max_value=10_000),
    # Large increments push the counters across the 2**48 wrap.
    st.integers(min_value=COUNTER_MASK - 10_000, max_value=COUNTER_MASK),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("context_switch_in"), _VCPUS, _CORES),
        st.tuples(st.just("context_switch_out"), _VCPUS),
        st.tuples(st.just("flush_running"), _VCPUS),
        st.tuples(st.just("sample"), _VCPUS),
        st.tuples(st.just("switch_out_row"), _VCPUS),
        st.tuples(st.just("sample_row"), _VCPUS),
        st.tuples(st.just("retire_account"), _VCPUS),
        st.tuples(st.just("add"), _CORES, st.sampled_from(list(PmcEvent)), _AMOUNTS),
    ),
    min_size=20,
    max_size=80,
)


_ROW_OPS = ("switch_out_row", "sample_row")


def _apply(virtualiser, add, op):
    """Run one op; return its result, or ``PerfctrError`` if it raised.

    An EVENTS-ordered row comes back as its event-keyed dict view.
    """
    kind, *args = op
    try:
        result = add(*args) if kind == "add" else getattr(virtualiser, kind)(*args)
    except PerfctrError:
        return PerfctrError
    if kind in _ROW_OPS and isinstance(result, list):
        return dict(zip(EVENTS, result))
    return result


class TestPerfctrMatchesDictModel:
    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS)
    def test_array_backed_perfctr_matches_dict_model(self, ops):
        cores = {0: CoreCounters(0), 1: CoreCounters(1)}
        virt = PerfctrVirtualizer(cores)
        model = _DictPerfctrModel(cores)

        def add_to_core(core, event, amount):
            cores[core].add(event, amount)

        for op in ops:
            assert _apply(virt, add_to_core, op) == _apply(model, model.add, op), op
            for vcpu in range(2):
                assert virt.is_running(vcpu) == (vcpu in model.active)
                for event in PmcEvent:
                    assert virt.account(vcpu).read(event) == model.read(vcpu, event)
            for core in cores:
                assert cores[core].read_all() == model.raw[core]
