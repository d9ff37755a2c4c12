"""KS4Xen: the Kyoto scheduler for Xen.

Extends the credit scheduler (XCS) exactly as Section 3.2 describes: in
addition to the credit ``c``, a VM is configured with the pollution level
``llc_cap`` it booked.  Each monitoring period the measured
``llc_cap_act`` is debited from the VM's ``pollution_quota``; a negative
quota puts the VM in priority ``OVER`` (parked), and each time slice the
VM earns quota back according to its booked ``llc_cap``.
"""

from __future__ import annotations

from repro.schedulers.credit import CreditScheduler

from .engine import KyotoScheduler


class KS4Xen(KyotoScheduler, CreditScheduler):
    """Credit scheduler + pollution permits."""

    name = "ks4xen"
