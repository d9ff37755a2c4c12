"""Simulation substrate: simulated-time units and deterministic RNG."""

from .clock import (
    USEC_PER_MSEC,
    USEC_PER_SEC,
    XEN_TICK_USEC,
    XEN_TIME_SLICE_USEC,
    cycles_to_usec,
    msec_to_usec,
    usec_to_cycles,
    usec_to_msec,
)
from .rng import RngRegistry, derive_seed

__all__ = [
    "RngRegistry",
    "USEC_PER_MSEC",
    "USEC_PER_SEC",
    "XEN_TICK_USEC",
    "XEN_TIME_SLICE_USEC",
    "cycles_to_usec",
    "derive_seed",
    "msec_to_usec",
    "usec_to_cycles",
    "usec_to_msec",
]
