"""Tests for repro.simulation.clock."""

import pytest

from repro.simulation.clock import (
    USEC_PER_MSEC,
    USEC_PER_SEC,
    XEN_TICK_USEC,
    XEN_TIME_SLICE_USEC,
    cycles_to_usec,
    msec_to_usec,
    usec_to_cycles,
    usec_to_msec,
)


class TestConstants:
    def test_xen_tick_is_10ms(self):
        assert XEN_TICK_USEC == 10_000

    def test_time_slice_is_three_ticks(self):
        assert XEN_TIME_SLICE_USEC == 3 * XEN_TICK_USEC

    def test_unit_ratios(self):
        assert USEC_PER_SEC == 1000 * USEC_PER_MSEC


class TestConversions:
    def test_usec_to_msec(self):
        assert usec_to_msec(2_500) == 2.5

    def test_msec_to_usec_roundtrip(self):
        assert msec_to_usec(usec_to_msec(12_345)) == 12_345

    def test_msec_to_usec_rounds(self):
        assert msec_to_usec(0.0004) == 0
        assert msec_to_usec(0.0006) == 1

    def test_usec_to_cycles_at_2_8ghz(self):
        # 2.8 GHz = 2_800_000 kHz; 1 usec = 2800 cycles.
        assert usec_to_cycles(1, 2_800_000) == 2_800

    def test_one_tick_of_cycles(self):
        assert usec_to_cycles(XEN_TICK_USEC, 2_800_000) == 28_000_000

    def test_cycles_to_usec_inverse(self):
        cycles = usec_to_cycles(777, 2_800_000)
        assert cycles_to_usec(cycles, 2_800_000) == pytest.approx(777)
