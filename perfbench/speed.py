"""Host speed: a fixed calibration kernel and the scale it gives.

The shared host this benchmark runs on switches between a fast and a slow
state every few seconds to minutes, and the simulator slows by the same
factor as any pure-Python loop.  So the benchmark times this kernel around
every stretch of work it measures and scales the stretch to the reference
speed, :data:`REFERENCE_S`.  The kernel lives in the benchmark, not in
``src/``: a change to the simulator never changes it, so a faster or slower
simulator moves every scaled timing by exactly its own factor.

This module imports nothing from the simulator, so the set-up probe can
calibrate before it starts its clock.
"""

from __future__ import annotations

import time
from typing import Dict

#: Seconds the kernel takes on the reference host.  A fixed constant: the
#: kernel took 7 to 12 ms on a 2-vCPU VM (Python 3.11), so scaled values
#: there are near host seconds.
REFERENCE_S = 0.010
#: Passes of the kernel over its cells.
ROUNDS = 60


class _Cell:
    __slots__ = ("value", "weight", "owner")

    def __init__(self, index: int) -> None:
        self.value = index * 0.5
        self.weight = 1.0 + (index % 7) * 0.125
        self.owner = index % 61


# Built once, so a calibration allocates nothing the garbage collector
# tracks and cannot start a collection inside a measured body.
_CELLS = [_Cell(index) for index in range(1024)]
_TABLE: Dict[int, float] = {cell.owner: 0.0 for cell in _CELLS}


def calibration_s() -> float:
    """Seconds of the kernel now: slotted attribute reads, float
    arithmetic and dict updates, the mix the simulator's hot loops are
    made of."""
    start = time.perf_counter()
    table = _TABLE
    total = 0.0
    for _ in range(ROUNDS):
        for cell in _CELLS:
            total += cell.value * cell.weight
            table[cell.owner] = table[cell.owner] + total * 1e-9
            if total > 1e6:
                total -= 1e6
    return time.perf_counter() - start


def scale(before_s: float, after_s: float) -> float:
    """Factor from host seconds between two calibrations to reference
    seconds."""
    return REFERENCE_S / ((before_s + after_s) / 2.0)
