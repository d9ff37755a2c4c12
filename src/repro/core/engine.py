"""The Kyoto enforcement engine.

Glue shared by every Kyoto scheduler (KS4Xen, KS4Linux, KS4Pisces): it
owns the per-VM :class:`~repro.core.pollution.PollutionAccount` objects,
drives the monitor at each monitoring period, debits quotas, and answers
the one question schedulers ask — *is this VM currently allowed to use
the processor?*

Keeping this logic in one place mirrors the paper's claim that the
approach "can easily be implemented within other systems": each port is
the scheduler-specific ~100 LOC that calls into this engine.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, TYPE_CHECKING

from repro.lint.contracts import InvariantChecker, contracts_enabled
from repro.telemetry import MetricsRecorder, current_recorder

from .monitor import DirectPmcMonitor, MonitorError, PollutionMonitor
from .pollution import PollutionAccount

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.system import VirtualizedSystem
    from repro.hypervisor.vm import VirtualMachine


class KyotoEngine:
    """Pollution-permit accounting and enforcement."""

    def __init__(
        self,
        system: "VirtualizedSystem",
        monitor: Optional[PollutionMonitor] = None,
        quota_max_factor: float = 3.0,
        monitor_period_ticks: int = 1,
        recorder: Optional[MetricsRecorder] = None,
        quota_min_factor: Optional[float] = None,
        estimate_alpha: float = 0.3,
    ) -> None:
        if monitor_period_ticks <= 0:
            raise ValueError(
                f"monitor_period_ticks must be positive, got {monitor_period_ticks}"
            )
        if not 0.0 < estimate_alpha <= 1.0:
            raise ValueError(
                f"estimate_alpha must be in (0, 1], got {estimate_alpha}"
            )
        self.system = system
        self.monitor = monitor if monitor is not None else DirectPmcMonitor(system)
        self.quota_max_factor = quota_max_factor
        self.monitor_period_ticks = monitor_period_ticks
        #: Optional quota floor factor (see PollutionAccount): bounds how
        #: deep a VM's quota can sink, so no fault can park it forever.
        self.quota_min_factor = quota_min_factor
        #: Smoothing of the per-VM last-good estimate debited when the
        #: monitor produces nothing trustworthy for a period.
        self.estimate_alpha = estimate_alpha
        self.accounts: Dict[int, PollutionAccount] = {}
        #: Runtime contracts (docs/static_analysis.md): on under pytest,
        #: toggled by KYOTO_CONTRACTS, no-op otherwise.
        self.invariants = InvariantChecker("KyotoEngine")
        #: Telemetry hook (docs/telemetry.md): defaults to the system's
        #: recorder so one ``recording()`` scope covers the whole stack.
        if recorder is not None:
            self.recorder = recorder
        else:
            system_recorder = getattr(system, "recorder", None)
            self.recorder = (
                system_recorder if system_recorder is not None else current_recorder()
            )
        #: vm_id -> vm.cycles_run at its last monitoring sample; used to
        #: skip VMs that never executed during a period (see on_tick_end).
        self._cycles_at_last_sample: Dict[int, int] = {}
        #: vm_id -> EWMA of trusted measurements: the fallback debit when
        #: the monitor fails or lies (never a garbage reading).
        self._estimates: Dict[int, float] = {}
        #: Reentrancy guard: a monitor whose sampling window runs real
        #: ticks (socket dedication) re-enters the tick loop; monitoring
        #: must not recurse inside its own sampling window.
        self._sampling = False
        #: Plain-int mirrors of the failure-path telemetry counters.
        self.monitor_failures = 0
        self.implausible_samples = 0
        self.estimated_debits = 0

    # -- registration -------------------------------------------------------------

    def register_vm(self, vm: "VirtualMachine") -> Optional[PollutionAccount]:
        """Open an account for a VM with a booked llc_cap (None otherwise)."""
        if vm.llc_cap is None:
            return None
        if vm.vm_id not in self.accounts:
            self.accounts[vm.vm_id] = PollutionAccount(
                llc_cap=vm.llc_cap,
                quota_max_factor=self.quota_max_factor,
                quota_min_factor=self.quota_min_factor,
                recorder=self.recorder,
            )
        return self.accounts[vm.vm_id]

    def account_of(self, vm: "VirtualMachine") -> Optional[PollutionAccount]:
        """The VM's pollution account, or None if it is not managed."""
        return self.accounts.get(vm.vm_id)

    def retire_vm(self, vm: "VirtualMachine") -> None:
        """Close a VM's account with a final settlement debit.

        The inverse of :meth:`register_vm`, called while the VM is still
        live and measurable (before the hypervisor tears down its perfctr
        accounts).  Pollution produced since the last monitoring sample
        is debited now — without settlement, a VM could emit a burst and
        retire before the period boundary bills it, breaking the quota
        bank's conservation story.  Unmanaged VMs (no ``llc_cap``) have
        nothing to settle.
        """
        account = self.accounts.get(vm.vm_id)
        if account is not None:
            ran = vm.cycles_run != self._cycles_at_last_sample.get(vm.vm_id, 0)
            if ran:
                measured = self._sample_or_estimate(vm)
                account.debit(measured * self.monitor_period_ticks)
                self.recorder.inc("kyoto.settlement_debits")
            del self.accounts[vm.vm_id]
            self.recorder.inc("kyoto.accounts_retired")
        self._cycles_at_last_sample.pop(vm.vm_id, None)
        self._estimates.pop(vm.vm_id, None)

    # -- enforcement ----------------------------------------------------------------

    def is_parked(self, vm: "VirtualMachine") -> bool:
        """True when the VM's quota is negative (priority OVER)."""
        account = self.accounts.get(vm.vm_id)
        return account is not None and account.parked

    def on_tick_end(self, tick_index: int) -> None:
        """Run the monitoring period: measure and debit each managed VM.

        Only VMs that actually *executed* during the period are sampled:
        debiting a parked or blocked VM would append a zero-rate entry to
        its :class:`PollutionAccount`, diluting ``samples`` and
        ``mean_measured`` with periods in which the VM could not pollute
        at all.  Execution is detected by the VM's cumulative
        ``cycles_run`` moving since the previous sample.

        **Failure tolerance**: a monitor that raises
        :class:`~repro.core.monitor.MonitorError`, or returns a
        non-finite/negative value, never crashes the engine and never
        reaches an account.  The VM is debited the EWMA of its previous
        trusted measurements instead — billing degrades to the VM's own
        recent history, not to a garbage reading and not to an unbounded
        punishment (docs/faults.md).
        """
        if self._sampling:
            # A sampling window (socket dedication) is running real
            # ticks inside this very method; don't recurse.
            return
        if (tick_index + 1) % self.monitor_period_ticks != 0:
            return
        # Resolved once per period: the contract lookup reads the
        # environment, and with telemetry off the per-VM counter calls
        # would all be no-ops.
        checking = contracts_enabled()
        recorder = self.recorder
        telemetry = recorder.enabled
        accounts = self.accounts
        cycles_at_last_sample = self._cycles_at_last_sample
        period_ticks = self.monitor_period_ticks
        for vm in self.system.vms:
            vm_id = vm.vm_id
            account = accounts.get(vm_id)
            if account is None:
                continue
            cycles_run = vm.cycles_run
            if cycles_run == cycles_at_last_sample.get(vm_id, 0):
                if telemetry:
                    recorder.inc("kyoto.idle_skips")
                continue
            cycles_at_last_sample[vm_id] = cycles_run
            measured = self._sample_or_estimate(vm)
            if checking:
                # Detail string built only on violation; the evaluation
                # is still counted for every sample.
                sane = measured >= 0.0
                self.invariants.require(
                    sane,
                    "non-negative-sample",
                    ""
                    if sane
                    else (
                        f"monitor {self.monitor.name} returned {measured} "
                        f"for {vm.name}"
                    ),
                )
            # llc_cap_act is a *rate* (misses/ms); the debit covers the
            # whole monitoring period so that the sustainable average
            # rate equals the booked llc_cap regardless of how often the
            # monitor runs.
            newly_punished = account.debit(measured * period_ticks)
            if telemetry:
                recorder.inc("kyoto.samples")
                if newly_punished:
                    recorder.inc("kyoto.punishments")
                recorder.record(f"kyoto.quota.{vm.name}", tick_index, account.quota)

    def _sample_or_estimate(self, vm: "VirtualMachine") -> float:
        """One monitored sample, degraded to the EWMA estimate on failure.

        Successful, finite, non-negative samples update the per-VM EWMA;
        anything else (a :class:`MonitorError`, NaN, a negative reading)
        is replaced by the estimate — 0.0 for a VM that never produced a
        trustworthy sample, so an untrusted VM is never punished on
        garbage.
        """
        measured: Optional[float] = None
        self._sampling = True
        try:
            measured = self.monitor.sample(vm)
        except MonitorError:
            self.monitor_failures += 1
            self.recorder.inc("kyoto.monitor_failures")
        finally:
            self._sampling = False
        if measured is not None and not (
            math.isfinite(measured) and measured >= 0.0
        ):
            self.implausible_samples += 1
            self.recorder.inc("kyoto.implausible_samples")
            measured = None
        if measured is None:
            self.estimated_debits += 1
            self.recorder.inc("kyoto.estimated_debits")
            return self._estimates.get(vm.vm_id, 0.0)
        previous = self._estimates.get(vm.vm_id)
        self._estimates[vm.vm_id] = (
            measured
            if previous is None
            else self.estimate_alpha * measured
            + (1.0 - self.estimate_alpha) * previous
        )
        return measured

    def on_accounting(self, tick_index: int) -> None:
        """Time-slice boundary: every managed VM earns quota."""
        checking = contracts_enabled()
        ticks = self.system.ticks_per_slice
        for account in self.accounts.values():
            account.refill(ticks=ticks)
            if checking:
                # Detail string built only on violation, as above.
                capped = account.quota <= account.quota_max + 1e-9
                self.invariants.require(
                    capped,
                    "quota-cap",
                    ""
                    if capped
                    else f"quota {account.quota} exceeds cap {account.quota_max}",
                )

    # -- reporting ------------------------------------------------------------------

    def punishments(self, vm: "VirtualMachine") -> int:
        """Punishment count of a VM (0 if unmanaged)."""
        account = self.accounts.get(vm.vm_id)
        return 0 if account is None else account.punishments

    def quota(self, vm: "VirtualMachine") -> Optional[float]:
        """Current pollution quota (None if unmanaged)."""
        account = self.accounts.get(vm.vm_id)
        return None if account is None else account.quota
