"""Simulated-time units.

All of the machine simulation runs in *simulated* time, decoupled from wall
clock.  Time is kept in integer **microseconds** (the ``now_usec`` tick
clock of ``VirtualizedSystem``) so that tick arithmetic is exact: Xen's
scheduler tick is 10 ms and its time slice (accounting period) is 30 ms,
both of which are exact multiples of one microsecond.

Cycle math uses the socket frequency: at 2.8 GHz, one microsecond is 2800
cycles.  Conversions are provided here so that the rest of the code never
hand-rolls unit conversions.
"""

from __future__ import annotations

#: Number of microseconds in one millisecond.
USEC_PER_MSEC = 1_000
#: Number of microseconds in one second.
USEC_PER_SEC = 1_000_000

#: Xen scheduler tick length (10 ms), as in the paper's footnote 1.
XEN_TICK_USEC = 10 * USEC_PER_MSEC
#: Xen time slice / credit accounting period (30 ms = 3 ticks).
XEN_TIME_SLICE_USEC = 30 * USEC_PER_MSEC


def usec_to_msec(usec: int) -> float:
    """Convert microseconds to (possibly fractional) milliseconds."""
    return usec / USEC_PER_MSEC


def msec_to_usec(msec: float) -> int:
    """Convert milliseconds to integer microseconds (rounded)."""
    return int(round(msec * USEC_PER_MSEC))


def usec_to_cycles(usec: int, freq_khz: int) -> int:
    """Number of core cycles elapsed in ``usec`` at frequency ``freq_khz``.

    ``freq_khz`` is kilocycles per second, hence cycles = usec * freq_khz
    / 1000 exactly when freq_khz is a multiple of 1000 (it always is for
    the machines we model).
    """
    return usec * freq_khz // 1_000


def cycles_to_usec(cycles: int, freq_khz: int) -> float:
    """Wall-clock microseconds taken by ``cycles`` cycles at ``freq_khz``."""
    return cycles * 1_000 / freq_khz
