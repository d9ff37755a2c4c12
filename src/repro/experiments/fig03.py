"""Fig 3 — The processor is a good lever for punishing disruptive VMs.

Runs each sensitive VM (vsen1..3 = gcc, omnetpp, soplex) in parallel with
vdis1 (lbm) while sweeping the disruptor's computing capacity (its XCS
cap) from 0 to 100 percent of a core.

Expected shape (paper): each sensitive VM's degradation increases
(roughly linearly) with the disruptor's computing power, peaking around
15-23%.  This is the observation that justifies using the CPU as the
enforcement lever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.analysis.metrics import degradation_percent
from repro.analysis.reporting import format_table
from repro.analysis.statistics import linear_fit
from repro.scenario import ScenarioSpec, VmSpec, WorkloadSpec, materialize
from repro.workloads.profiles import SENSITIVE_APPS

from .common import measured_ipc

DEFAULT_CAPS = (0, 20, 40, 60, 80, 100)


@dataclass
class Fig03Result:
    """Degradation of each vsen vs the disruptor's cap."""

    caps: List[int]
    #: vm name ("vsen1"..) -> degradation % per cap point.
    degradation: Dict[str, List[float]] = field(default_factory=dict)


def run(
    caps: Sequence[int] = DEFAULT_CAPS,
    disruptor_app: str = "lbm",
    warmup_ticks: int = 30,
    measure_ticks: int = 120,
) -> Fig03Result:
    result = Fig03Result(caps=list(caps))
    for vsen, app in SENSITIVE_APPS.items():
        # The sensitive VM alone is both the solo baseline and the cap-0
        # point, so one run serves both.
        solo = _sensitive_ipc(vsen, app, 0, disruptor_app, warmup_ticks, measure_ticks)
        result.degradation[vsen] = [
            degradation_percent(
                solo,
                solo if cap == 0 else _sensitive_ipc(
                    vsen, app, cap, disruptor_app, warmup_ticks, measure_ticks
                ),
            )
            for cap in caps
        ]
    return result


def _sensitive_ipc(
    vsen: str,
    app: str,
    cap: int,
    disruptor_app: str,
    warmup_ticks: int,
    measure_ticks: int,
) -> float:
    """IPC of ``vsen`` on core 0 beside vdis1 capped at ``cap`` percent
    on core 1 (alone when ``cap`` is 0)."""
    vms = [VmSpec(name=vsen, workload=WorkloadSpec(app=app), pinned_cores=(0,))]
    if cap > 0:
        vms.append(
            VmSpec(
                name="vdis1",
                workload=WorkloadSpec(app=disruptor_app),
                cap_percent=float(cap),
                pinned_cores=(1,),
            )
        )
    built = materialize(ScenarioSpec(name=f"fig03-{vsen}-cap{cap}", vms=tuple(vms)))
    return measured_ipc(built.system, built.vm(vsen), warmup_ticks, measure_ticks)


def is_monotone_increasing(series: Sequence[float], tolerance: float = 1.0) -> bool:
    """True if the series rises with the cap (small dips tolerated)."""
    return all(
        later >= earlier - tolerance
        for earlier, later in zip(series, series[1:])
    )


def linearity_r_squared(result: Fig03Result, vsen: str) -> float:
    """R² of the degradation-vs-cap series (the paper claims linearity)."""
    return linear_fit(
        [float(c) for c in result.caps], result.degradation[vsen]
    ).r_squared


def format_report(result: Fig03Result) -> str:
    rows = []
    for i, cap in enumerate(result.caps):
        rows.append([cap] + [result.degradation[v][i] for v in sorted(result.degradation)])
    table = format_table(
        ["vdis1 cap %"] + sorted(result.degradation),
        rows,
        title="Fig 3: sensitive-VM degradation vs disruptor computing power",
    )
    fits = ", ".join(
        f"{vsen} R2={linearity_r_squared(result, vsen):.3f}"
        for vsen in sorted(result.degradation)
    )
    return table + f"\nlinearity: {fits}"
