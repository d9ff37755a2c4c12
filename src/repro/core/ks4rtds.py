"""KS4RTDS: the Kyoto extension of Xen's RTDS scheduler.

The fourth port, confirming the paper's claim that the approach "can
easily be implemented within other systems": the pollution accounts and
monitoring come unchanged from :class:`~repro.core.engine.KyotoEngine`;
the scheduler-specific part is once again just the ``is_parked`` hook —
a VM whose pollution quota is negative is ineligible for dispatch even
if its real-time server has budget left.  (Its deadline guarantees are
deliberately subordinated to the cache permit: pollution beyond the
booked level is exactly what the VM did *not* pay for.)
"""

from __future__ import annotations

from repro.schedulers.rtds import RtdsScheduler

from .engine import KyotoScheduler


class KS4RTDS(KyotoScheduler, RtdsScheduler):
    """RTDS + pollution permits."""

    name = "ks4rtds"
