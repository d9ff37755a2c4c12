"""Workload ``churn_stream``: a churning service fleet streaming telemetry.

A ``ServiceLoop`` on the paper's 4-core machine under ``KS4Xen``:
Poisson arrivals at 0.5 per tick, exponential lifetimes with a mean of 20
ticks, admission capped at 16 vCPUs, and four permit-booked templates.
A ``MetricsRecorder`` with a ``StreamingSink`` spools every series point
into the episode's directory; the loop drains at the end and the sink is
closed.  Ticks are cheap here, so admit, retire, series compaction and
stream writes are a visible share of the time.  The seed drives the
arrival, lifetime and template streams.

Check: a digest of the ``ServiceLoop.summary()`` counts and the Kyoto
counters, which must repeat across episodes, and a read-back of the
stream that must be clean, finalized and hold exactly
``sink.points_streamed`` points.  One operation is one tick.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Dict

from repro.core.ks4xen import KS4Xen
from repro.hardware.specs import paper_machine
from repro.hypervisor.system import VirtualizedSystem
from repro.service import CapacityCapAdmission, ChurnGenerator, ServiceLoop, VmTemplate
from repro.telemetry import MetricsRecorder, StreamingSink, read_stream
from repro.telemetry.stream import stream_chunks
from repro.workloads.profiles import application_workload

from tracing import TickClock

APPS = ("gcc", "lbm", "mcf", "povray")
#: Booked pollution permit of every template (LLC misses/ms).
LLC_CAP = 200_000
ARRIVALS_PER_TICK = 0.5
MEAN_LIFETIME_TICKS = 20.0
MAX_VCPUS = 16
EPISODE_TICKS = 1500


def build(seed: int, workdir: str) -> Dict[str, Any]:
    stream_dir = os.path.join(workdir, "stream")
    sink = StreamingSink(stream_dir)
    recorder = MetricsRecorder(sink=sink)
    system = VirtualizedSystem(KS4Xen(), paper_machine(), seed=seed, recorder=recorder)
    churn = ChurnGenerator(
        system.rng.stream("perfbench.churn.arrivals"),
        system.rng.stream("perfbench.churn.lifetimes"),
        rate_per_tick=ARRIVALS_PER_TICK,
        lifetime_kind="exponential",
        lifetime_mean_ticks=MEAN_LIFETIME_TICKS,
    )
    templates = [
        VmTemplate(
            name=app,
            make_workload=functools.partial(application_workload, app),
            llc_cap=LLC_CAP,
        )
        for app in APPS
    ]
    loop = ServiceLoop(
        system,
        churn,
        CapacityCapAdmission(max_vcpus=MAX_VCPUS),
        templates,
        system.rng.stream("perfbench.churn.templates"),
        drain_at_end=True,
    )
    return {"loop": loop, "sink": sink, "recorder": recorder, "stream_dir": stream_dir}


def run(state: Dict[str, Any], clock: TickClock) -> None:
    loop = state["loop"]
    clock.attach(loop.system)
    state["summary"] = loop.run(EPISODE_TICKS)
    state["sink"].close(state["recorder"])


def operations() -> int:
    return EPISODE_TICKS


def check(state: Dict[str, Any]) -> Dict[str, Any]:
    summary = state["summary"]
    sink = state["sink"]
    counters = state["recorder"].counters
    data = read_stream(state["stream_dir"])
    points = sum(len(series) for series in data.series.values())
    problems = []
    if not (data.clean and data.finalized):
        problems.append(f"stream read back clean={data.clean} finalized={data.finalized}")
    if points != sink.points_streamed:
        problems.append(f"stream holds {points} points, sink accepted {sink.points_streamed}")
    if summary["ticks_run"] != EPISODE_TICKS or summary["final_live_vms"] != 0:
        problems.append(f"loop ran {summary['ticks_run']} ticks and left {summary['final_live_vms']} VMs")
    evidence = {
        key: summary[key]
        for key in (
            "final_tick", "admitted", "rejected", "retired", "drained",
            "peak_live_vms", "retired_series_compactions", "context_switches",
        )
    }
    evidence["points_streamed"] = sink.points_streamed
    for name in ("kyoto.samples", "kyoto.punishments", "kyoto.settlement_debits"):
        evidence[name] = counters.get(name, 0.0)
    stream_bytes = sum(os.path.getsize(path) for path in stream_chunks(state["stream_dir"]))
    return {
        "evidence": evidence,
        "attempted": EPISODE_TICKS,
        "failed": EPISODE_TICKS if problems else 0,
        "problems": problems,
        "extras": {"service.rejected": summary["rejected"], "telemetry.stream_bytes": stream_bytes},
    }
