"""KS4Linux: the Kyoto scheduler for Linux/KVM.

The paper's second implementation ports Kyoto to the Linux CFS scheduler
(KVM VMs are ordinary processes under CFS).  Enforcement uses the same
pollution accounts; the lever is CFS-bandwidth-style *throttling*: a VM
whose quota is negative is removed from the runqueue until a time-slice
refill turns its quota positive again.
"""

from __future__ import annotations

from repro.schedulers.cfs import CfsScheduler

from .engine import KyotoScheduler


class KS4Linux(KyotoScheduler, CfsScheduler):
    """CFS + pollution permits."""

    name = "ks4linux"
