#!/usr/bin/env python3
"""Run the repository benchmark (see perfbench/README.md).

One workload per process, as the last line of stdout a JSON result::

    python3 perfbench/run.py --workload dense_fleet --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mib``, ``tick_p50_ms``, ``tick_p99_ms``); ``--trace 1`` runs
untraced and traced episodes alternately and reports the per-layer
metrics and the tracing overhead.  ``--workload all`` runs every workload
in its own child process and prints all of their metrics.

A run repeats episodes of its workload until ``--seconds`` have passed.
Each episode builds a fresh system from the seed (untimed), runs the timed
body, then checks the outputs (untimed).  A workload is the module of that
name beside this file, with ``build(seed, workdir)``, ``run(state,
clock)``, ``check(state)`` and ``operations()``.  Any exception, failed
check, or digest that differs from the run's first episode fails the
episode's operations; the run then exits 1.  Every timing is scaled to a
reference host speed measured by a calibration kernel run beside it.  Runs
from the repository root; the sources are read from ``src/`` and temporary
files go to ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("paper_figures", "dense_fleet", "churn_stream")
#: Seed used by no tuning run: a performance claim must also hold on it.
HELD_OUT_SEED = 20161212
#: Fresh processes that each time imports plus construction (setup_s).
SETUP_PROBES = 5
#: Bound on one setup probe, and per workload under ``--workload all``.
PROBE_TIMEOUT_S = 120

#: Per-layer metrics: (name, unit, source, key).  ``self`` is span self
#: time, ``spans`` the span count, ``outer`` the count of spans not nested
#: in a span of the same layer, ``hits`` a counted event, ``extra`` a value
#: the workload's check measured.  Every value is per traced episode.
LAYER_METRICS = (
    ("schedulers.tick_start_s", "s", "self", "schedulers.tick_start"),
    ("schedulers.tick_end_self_s", "s", "self", "schedulers.tick_end"),
    ("schedulers.accounting_self_s", "s", "self", "schedulers.accounting"),
    ("core.kyoto_tick_end_self_s", "s", "self", "core.kyoto_tick_end"),
    ("core.monitor_sample_s", "s", "self", "core.monitor_sample"),
    ("core.kyoto_accounting_s", "s", "self", "core.kyoto_accounting"),
    ("core.kyoto_samples", "count", "outer", "core.monitor_sample"),
    ("core.punishments", "count", "hits", "core.punishments"),
    ("cachesim.relax_s", "s", "self", "cachesim.relax"),
    ("cachesim.relax_calls", "count", "outer", "cachesim.relax"),
    ("hypervisor.execute_s", "s", "self", "hypervisor.execute"),
    ("hypervisor.context_switch_s", "s", "self", "hypervisor.context_switch"),
    ("hypervisor.context_switches", "count", "spans", "hypervisor.context_switch"),
    ("hypervisor.admit_s", "s", "self", "hypervisor.admit"),
    ("hypervisor.admits", "count", "spans", "hypervisor.admit"),
    ("hypervisor.retire_s", "s", "self", "hypervisor.retire"),
    ("hypervisor.retires", "count", "spans", "hypervisor.retire"),
    ("service.loop_self_s", "s", "self", "service.loop"),
    ("service.rejected", "count", "extra", "service.rejected"),
    ("telemetry.record_s", "s", "self", "telemetry.record"),
    ("telemetry.records", "count", "spans", "telemetry.record"),
    ("telemetry.compact_s", "s", "self", "telemetry.compact"),
    ("telemetry.stream_append_s", "s", "self", "telemetry.stream_append"),
    ("telemetry.stream_close_s", "s", "self", "telemetry.stream_close"),
    ("telemetry.stream_bytes", "bytes", "extra", "telemetry.stream_bytes"),
    ("scenario.materialize_s", "s", "self", "scenario.materialize"),
    ("experiments.run_one_s", "s", "self", "experiments.run_one"),
    ("experiments.campaign_self_s", "s", "self", "experiments.campaign"),
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument(
        "--seed", type=int, default=1,
        help=f"workload seed (paper_figures ignores it; {HELD_OUT_SEED} is held out)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return measure(args)


# -- set-up time -----------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> int:
    """Time imports plus one construction in this fresh process."""
    from speed import calibration_s, scale

    before_s = calibration_s()
    # time.time() is the clock repro.util.wall_clock reads; the simulator
    # is not imported yet, which is the point of the probe.
    start = time.time()
    workload = importlib.import_module(args.workload)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        workload.build(args.seed, workdir)
        elapsed = time.time() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed * scale(before_s, calibration_s())}))
    return 0


def _probe_setup_s(args: argparse.Namespace) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(completed.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


# -- one workload ----------------------------------------------------------------


def _episode(workload: Any, seed: int, workdir: str, clock: Any, tracer: Any) -> tuple:
    """Build, run (timed) and check one episode.

    Returns (scaled seconds, mean speed scale, outcome); ``clock`` times
    the body.  With a ``tracer`` the layer wrappers exist only while the
    body runs.
    """
    from tracing import install

    episode_dir = tempfile.mkdtemp(dir=workdir)
    try:
        state = workload.build(seed, episode_dir)
        clock.start(split=tracer is None)
        if tracer is not None:
            install(tracer)
        try:
            workload.run(state, clock)
        finally:
            seconds, scale = clock.stop()
            if tracer is not None:
                tracer.uninstall()
        return seconds, scale, workload.check(state)
    finally:
        shutil.rmtree(episode_dir, ignore_errors=True)


def measure(args: argparse.Namespace) -> int:
    setup_s = None if args.trace else _probe_setup_s(args)
    from repro.util import wall_clock
    from tracing import TickClock, Tracer

    workload = importlib.import_module(args.workload)
    clock = TickClock()
    tracer = Tracer() if args.trace else None
    walls: Dict[bool, List[float]] = {False: [], True: []}
    scales: List[float] = []
    extras: Dict[str, float] = {}
    problems: List[str] = []
    attempted = failed = episodes = 0
    reference = None
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    deadline = wall_clock() + args.seconds
    try:
        while True:
            # Traced episodes alternate with untraced ones; the first is
            # untraced, so lazy imports finish before any wrapper exists.
            traced = tracer is not None and episodes % 2 == 1
            scale = 1.0
            try:
                seconds, scale, outcome = _episode(
                    workload, args.seed, workdir, clock, tracer if traced else None
                )
                walls[traced].append(seconds)
                scales.append(scale)
            except Exception:  # the episode fails; the run goes on
                traceback.print_exc(file=sys.stderr)
                outcome = {
                    "evidence": None, "attempted": workload.operations(),
                    "failed": workload.operations(), "problems": ["raised"], "extras": {},
                }
            # Free the episode's systems now, not at a collection inside a
            # later timed body.
            gc.collect()
            if episodes == 0:
                # Later episodes repeat the same work; what they add to the
                # peak is allocator fragmentation and the tick store, which
                # grow with how many episodes fit in the run, so a faster
                # program would read as a memory regression.
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            digest = hashlib.sha256(
                json.dumps(outcome["evidence"], sort_keys=True).encode("utf-8")
            ).hexdigest()
            reference = reference or digest
            if digest != reference:
                outcome["failed"] = outcome["attempted"]
                outcome["problems"].append(f"digest {digest[:12]} != {reference[:12]}")
            attempted += outcome["attempted"]
            failed += outcome["failed"]
            problems.extend(f"episode {episodes}: {p}" for p in outcome["problems"])
            if traced:
                tracer.fold(scale)
                for key, value in outcome["extras"].items():
                    extras[key] = extras.get(key, 0.0) + value
            episodes += 1
            if wall_clock() >= deadline and (tracer is None or episodes >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not walls[False] or (tracer is not None and not walls[True]):
        print("perfbench: no episode completed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = _end_to_end(walls[False], setup_s, peak_rss_mib, clock)
    else:
        metrics = _per_layer(tracer, extras, walls)
    for line in problems[:20]:
        print(f"{args.workload}: {line}")
    print(f"{args.workload}: {episodes} episodes, error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    print(f"{args.workload}: host speed scale median {statistics.median(scales):.4g}, "
          f"range {min(scales):.4g} to {max(scales):.4g}")
    if tracer is None:
        profile = clock.profile_ms()
        beyond = sum(1 for value in profile if value > metrics["tick_p99_ms"][0])
        print(f"{args.workload}: tick samples n = {len(clock.samples_ms)}; profile of "
              f"{len(profile)} ticks over {len(clock.episodes)} episodes, {beyond} beyond p99")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def _end_to_end(
    walls: List[float], setup_s: float, peak_rss_mib: float, clock: Any
) -> Dict[str, tuple]:
    ticks = sorted(clock.profile_ms())
    if len(ticks) >= 2:
        p99 = statistics.quantiles(ticks, n=100, method="inclusive")[98]
    else:
        p99 = ticks[0]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "tick_p50_ms": (statistics.median(ticks), "ms"),
        "tick_p99_ms": (p99, "ms"),
    }


def _per_layer(tracer: Any, extras: Dict[str, float], walls: Dict[bool, List[float]]) -> Dict[str, tuple]:
    episodes = len(walls[True])
    sources = {
        "self": tracer.self_s, "spans": tracer.spans, "outer": tracer.outer_spans,
        "hits": tracer.hits, "extra": extras,
    }
    metrics = {
        name: (sources[source].get(key, 0) / episodes, unit)
        for name, unit, source, key in LAYER_METRICS
    }
    traced_wall = statistics.median(walls[True])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls[False]), "s")
    metrics["trace.unattributed_s"] = (
        sum(walls[True]) / episodes - sum(tracer.self_s.values()) / episodes, "s"
    )
    metrics["trace.spans"] = (sum(tracer.spans.values()) / episodes, "count")
    return metrics


# -- every workload --------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results: Dict[str, Any] = {}
    code = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
            timeout=3 * args.seconds + PROBE_TIMEOUT_S * SETUP_PROBES,
        )
        lines = completed.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
        if completed.returncode != 0 or results[name] is None:
            print(f"{name}: FAILED (exit {completed.returncode})")
            code = 1
    done = [result for result in results.values() if result is not None]
    print(json.dumps({
        "correct": code == 0,
        "attempted": sum(result["attempted"] for result in done),
        "failed": sum(result["failed"] for result in done),
        "metrics": {
            f"{name}.{metric}": value
            for name, result in results.items() if result is not None
            for metric, value in result["metrics"].items()
        },
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
