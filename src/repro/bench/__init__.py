"""Micro/macro benchmark harness for the simulator's hot paths.

The ROADMAP's north star demands a simulator that runs as fast as the
hardware allows; this package is how we *know* whether it does.  It is
dependency-free (stdlib only, wall clock strictly through
:func:`repro.util.wall_clock`) and has three parts:

* :mod:`repro.bench.runner` — warmup + repeats + median timing of named
  benchmarks, emitting schema ``repro.bench/2`` JSON documents with
  machine/python metadata and a deterministic per-benchmark ``check``
  value (so a benchmark run doubles as a semantics smoke test),
* :mod:`repro.bench.registry` — the benchmark catalogue: the tick loop
  at 2/8/32/256 vCPUs and on a period-2 occupancy orbit, occupancy
  ``relax``, credit ``_pick``/``_steal``, scenario materialization,
  campaign fan-out plumbing and the execution-time protocol (absorbing
  the old ``tools/bench_exec_time.py``),
* :mod:`repro.bench.compare` — regression gating against a committed
  baseline (``BENCH_pr26.json``): ``repro bench --compare BASELINE
  --tolerance PCT`` exits nonzero when any benchmark's median is slower
  than baseline by more than the tolerance.

See docs/performance.md for the hot-path map and workflow.
"""

from .compare import (
    BenchCompareError,
    Comparison,
    compare_documents,
    format_comparisons,
)
from .registry import BENCHMARKS, benchmark_names, benchmarks_named
from .runner import (
    BENCH_SCHEMA,
    Benchmark,
    BenchmarkResult,
    machine_metadata,
    results_document,
    run_benchmarks,
)

__all__ = [
    "BENCH_SCHEMA",
    "BENCHMARKS",
    "Benchmark",
    "BenchmarkResult",
    "BenchCompareError",
    "Comparison",
    "benchmark_names",
    "benchmarks_named",
    "compare_documents",
    "format_comparisons",
    "machine_metadata",
    "results_document",
    "run_benchmarks",
]
