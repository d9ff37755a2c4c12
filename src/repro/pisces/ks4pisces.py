"""KS4Pisces: Kyoto enforcement inside the Pisces co-kernel.

Pisces has no time-sharing scheduler to piggyback on, so the CPU lever
takes its most direct form: when an enclave's pollution quota goes
negative its dedicated cores are forced idle (duty-cycling) until the
time-slice refill restores the quota.  Fig 8 shows this restores
performance predictability that core dedication alone cannot provide.
"""

from __future__ import annotations

from repro.core.engine import KyotoScheduler

from .cokernel import PiscesCoKernel


class KS4Pisces(KyotoScheduler, PiscesCoKernel):
    """Pisces co-kernel + pollution permits."""

    name = "ks4pisces"
