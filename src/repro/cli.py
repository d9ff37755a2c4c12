"""Command-line interface.

Run any of the paper's reproduced experiments from a shell::

    python -m repro list
    python -m repro run fig05
    python -m repro run table1 fig02
    python -m repro run all --jobs 4 --json out/
    python -m repro run examples/scenarios/colocation.toml
    python -m repro campaign out/ --output BENCH.json
    python -m repro scenario validate examples/scenarios/*.toml
    python -m repro serve examples/scenarios/vm_churn.toml --ticks 100000
    python -m repro herd run all --jobs 4 --json herd-out/
    python -m repro herd resume herd-out/

``herd`` is the crash-resilient campaign driver (docs/herd.md): every
point's lifecycle is journalled, transient failures retry under
deterministic backoff, poison points are quarantined, and a killed
campaign resumes from its journal without re-running completed points.

Each experiment prints the same rows/series the paper's figure or table
reports (see EXPERIMENTS.md for the paper-vs-measured record).
``--jobs N`` fans experiments out over worker processes (reports stay
byte-identical to a serial run), ``--json DIR`` writes one JSON artifact
per experiment, and ``campaign`` aggregates an artifact directory into a
single summary (see docs/telemetry.md).

``run`` accepts scenario files (docs/scenarios.md) alongside registry
names; a file with a ``[sweep]`` table expands into one experiment per
grid point.  The ``scenario`` subcommand works with the files
themselves: ``list`` a directory, ``validate`` files, ``show`` the
canonical form of one point.

``--stream DIR`` (on ``run`` and ``serve``) spools
every telemetry series point to a full-resolution on-disk stream
(schema ``repro.telemetry.stream/1``, docs/telemetry.md) so long soaks
keep bounded memory with zero resolution loss, and ``report`` turns
artifact/stream/journal directories back into comparison tables and
series summaries (docs/reporting.md)::

    python -m repro serve examples/scenarios/vm_churn.toml --stream stream/
    python -m repro run chaos-sweep.toml --json out/ --stream out/streams/
    python -m repro report out/ stream/ --format json

The repo's own static-analysis gate (docs/static_analysis.md) runs as::

    python -m repro lint [paths ...] [--format json] [--baseline FILE]
                         [--jobs N] [--cache FILE] [--warn-only]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any, List, Optional

#: Directory ``repro scenario list`` scans when none is given.
DEFAULT_SCENARIO_DIR = "examples/scenarios"


def __getattr__(name: str) -> Any:
    # ``EXPERIMENTS`` (name -> (description, runner)) is kept as the CLI's
    # legacy public surface; the canonical table is
    # repro.experiments.registry.REGISTRY.  It is built on first access so
    # that importing the CLI loads no experiment module.
    if name != "EXPERIMENTS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.experiments.registry import REGISTRY

    table = {spec.name: (spec.description, spec.runner) for spec in REGISTRY.values()}
    globals()[name] = table
    return table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Mitigating performance unpredictability in "
            "the IaaS using the Kyoto principle' (Middleware 2016)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list the available experiments")
    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names, scenario/sweep files, or 'all'",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1 = serial; output is identical)",
    )
    run_parser.add_argument(
        "--json",
        dest="json_dir",
        metavar="DIR",
        help="write one {name}.json artifact per experiment into DIR",
    )
    run_parser.add_argument(
        "--timeout-sec",
        dest="timeout_sec",
        type=float,
        default=None,
        metavar="SEC",
        help=(
            "per-experiment watchdog: run each experiment in a supervised "
            "subprocess killed after SEC seconds (a hang is reported like "
            "a crash and the batch continues; combines with --jobs N for "
            "concurrent supervised workers)"
        ),
    )
    run_parser.add_argument(
        "--stream",
        dest="stream_dir",
        metavar="DIR",
        help=(
            "spool each experiment's full-resolution telemetry series "
            "into DIR/<name>/ (repro.telemetry.stream/1, docs/telemetry.md)"
        ),
    )
    herd_parser = subparsers.add_parser(
        "herd",
        help="crash-resilient resumable campaigns (docs/herd.md)",
    )
    herd_sub = herd_parser.add_subparsers(dest="herd_command", required=True)
    herd_run = herd_sub.add_parser(
        "run", help="start a journalled campaign into a fresh directory"
    )
    herd_run.add_argument(
        "experiments",
        nargs="+",
        help="experiment names, scenario/sweep files, or 'all'",
    )
    herd_run.add_argument(
        "--json",
        dest="json_dir",
        required=True,
        metavar="DIR",
        help="campaign directory: artifacts, journal.jsonl, herd-summary.json",
    )
    herd_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="concurrently supervised watchdog workers (default 1)",
    )
    herd_run.add_argument(
        "--timeout-sec",
        dest="timeout_sec",
        type=float,
        default=None,
        metavar="SEC",
        help="per-attempt watchdog timeout (a hang retries, then quarantines)",
    )
    herd_run.add_argument(
        "--max-attempts",
        dest="max_attempts",
        type=int,
        default=3,
        metavar="K",
        help="attempt budget per point before quarantine (default 3)",
    )
    herd_run.add_argument(
        "--seed",
        type=int,
        default=0,
        help="master seed for deterministic retry jitter (default 0)",
    )
    herd_run.add_argument(
        "--base-delay-sec",
        dest="base_delay_sec",
        type=float,
        default=0.5,
        metavar="SEC",
        help="backoff base delay before the first retry (default 0.5)",
    )
    herd_run.add_argument(
        "--max-delay-sec",
        dest="max_delay_sec",
        type=float,
        default=30.0,
        metavar="SEC",
        help="backoff delay cap (default 30)",
    )
    herd_resume = herd_sub.add_parser(
        "resume", help="resume a killed/interrupted campaign from its journal"
    )
    herd_resume.add_argument(
        "json_dir", metavar="DIR", help="campaign directory holding journal.jsonl"
    )
    herd_resume.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="override the journalled worker count",
    )
    herd_status = herd_sub.add_parser(
        "status", help="replay a campaign journal and print queue state"
    )
    herd_status.add_argument(
        "json_dir", metavar="DIR", help="campaign directory holding journal.jsonl"
    )
    campaign_parser = subparsers.add_parser(
        "campaign",
        help="aggregate a --json artifact directory into one summary",
    )
    campaign_parser.add_argument(
        "artifact_dir",
        help="directory of {name}.json artifacts from 'run --json'",
    )
    campaign_parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the campaign summary JSON to FILE instead of stdout",
    )
    scenario_parser = subparsers.add_parser(
        "scenario", help="work with scenario files (docs/scenarios.md)"
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    sc_list = scenario_sub.add_parser(
        "list", help="list scenario files in a directory"
    )
    sc_list.add_argument(
        "directory",
        nargs="?",
        default=DEFAULT_SCENARIO_DIR,
        help=f"directory to scan (default: {DEFAULT_SCENARIO_DIR})",
    )
    sc_validate = scenario_sub.add_parser(
        "validate", help="parse + validate scenario files (exit 2 on errors)"
    )
    sc_validate.add_argument(
        "files", nargs="+", help="scenario files (*.toml, *.json)"
    )
    sc_show = scenario_sub.add_parser(
        "show", help="print the canonical form of one scenario (or sweep point)"
    )
    sc_show.add_argument(
        "file", help="scenario file, optionally with a #index sweep point"
    )
    sc_show.add_argument(
        "--format",
        choices=("toml", "json"),
        default="toml",
        help="serialization to print (default: toml)",
    )
    serve_parser = subparsers.add_parser(
        "serve",
        help="run a churn-driven IaaS service soak (docs/service.md)",
    )
    serve_parser.add_argument(
        "spec",
        metavar="SPEC",
        help="scenario file with a [service] section (*.toml, *.json)",
    )
    serve_parser.add_argument(
        "--ticks",
        type=int,
        default=100_000,
        metavar="N",
        help="soak length in scheduler ticks (default: 100000)",
    )
    serve_parser.add_argument(
        "--json",
        dest="json_dir",
        metavar="DIR",
        help="write the repro.service/1 summary JSON into DIR",
    )
    serve_parser.add_argument(
        "--stop-when-idle",
        dest="stop_when_idle",
        action="store_true",
        help=(
            "end early once the fleet is empty and the arrival process "
            "can produce no further VMs"
        ),
    )
    serve_parser.add_argument(
        "--stream",
        dest="stream_dir",
        metavar="DIR",
        help=(
            "spool the soak's full-resolution telemetry series into DIR "
            "(repro.telemetry.stream/1; retired VMs' series survive on "
            "disk even after in-memory compaction)"
        ),
    )
    report_parser = subparsers.add_parser(
        "report",
        help=(
            "summarize artifact/stream/journal directories into "
            "comparison tables (docs/reporting.md)"
        ),
    )
    report_parser.add_argument(
        "dirs",
        nargs="+",
        metavar="DIR",
        help=(
            "directories to ingest: 'run --json' artifacts, herd "
            "campaigns, 'serve --json' summaries, '--stream' directories"
        ),
    )
    report_parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    report_parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE (atomically) instead of stdout",
    )
    report_parser.add_argument(
        "--counter",
        dest="counters",
        action="append",
        metavar="NAME",
        help=(
            "telemetry counter column for the comparison tables "
            "(repeatable; default: every counter that varies in a group)"
        ),
    )
    report_parser.add_argument(
        "--series",
        dest="series",
        action="append",
        metavar="NAME",
        help=(
            "only summarize series matching NAME exactly or dotted "
            "under it (repeatable; default: all)"
        ),
    )
    report_parser.add_argument(
        "--max-points",
        dest="max_points",
        type=int,
        default=256,
        metavar="N",
        help=(
            "downsampled points embedded per stream series in JSON "
            "output (default: 256)"
        ),
    )
    report_parser.add_argument(
        "--downsample",
        choices=("lttb", "stride-mean"),
        default="lttb",
        help=(
            "offline downsampler for stream series: lttb preserves "
            "visual extrema, stride-mean preserves bucket means "
            "(default: lttb)"
        ),
    )
    bench_parser = subparsers.add_parser(
        "bench", help="run the hot-path benchmark suite (docs/performance.md)"
    )
    bench_parser.add_argument(
        "benchmarks",
        nargs="*",
        metavar="NAME",
        help="benchmark names (default: the whole registry; see --list)",
    )
    bench_parser.add_argument(
        "--list",
        dest="list_benchmarks",
        action="store_true",
        help="list the registered benchmarks and exit",
    )
    bench_parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        help="write the repro.bench/2 results document to PATH",
    )
    bench_parser.add_argument(
        "--compare",
        metavar="BASELINE",
        help="compare against a repro.bench/2 baseline (e.g. BENCH_pr26.json)",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help=(
            "allowed median slowdown vs the baseline, in percent "
            "(default: 10; exit 1 beyond it)"
        ),
    )
    bench_parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="timed samples per benchmark (default: 5)",
    )
    bench_parser.add_argument(
        "--warmup",
        type=int,
        default=None,
        metavar="N",
        help="untimed warmup runs per benchmark (default: 1)",
    )
    lint_parser = subparsers.add_parser(
        "lint", help="run kyotolint over the source tree"
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint_parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file; matching findings warn instead of failing",
    )
    lint_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current findings",
    )
    lint_parser.add_argument(
        "--rules",
        action="store_true",
        help="list the known rules and exit",
    )
    lint_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="analyze files with N worker processes (default: 1)",
    )
    lint_parser.add_argument(
        "--cache",
        metavar="FILE",
        help="on-disk facts cache; skips re-analysis of unchanged files",
    )
    lint_parser.add_argument(
        "--warn-only",
        action="store_true",
        help="demote every finding to the warn tier (report, never gate)",
    )
    return parser


def list_experiments() -> str:
    from repro.experiments.registry import REGISTRY, experiment_names

    width = max(len(name) for name in REGISTRY)
    lines = ["available experiments:"]
    for spec in REGISTRY.values():
        lines.append(f"  {spec.name:{width}s} {spec.description}")
    in_all = set(experiment_names())
    extras = ", ".join(name for name in REGISTRY if name not in in_all)
    lines.append(f"  {'all':{width}s} run everything above except {extras}")
    return "\n".join(lines)


def run_experiments(
    names: List[str],
    out=sys.stdout,
    jobs: int = 1,
    json_dir: Optional[str] = None,
    timeout_sec: Optional[float] = None,
    stream_dir: Optional[str] = None,
) -> int:
    """Run experiments (the ``repro run`` subcommand).

    ``all`` expands deterministically to the registry order and repeated
    names run once; a crashing experiment is reported and the batch
    continues (nonzero exit code).  ``jobs > 1`` fans out over worker
    processes without changing the report text; ``timeout_sec`` arms the
    per-experiment watchdog; ``stream_dir`` spools full-resolution
    telemetry streams per experiment.
    """
    from repro.experiments.campaign import run_campaign
    from repro.experiments.registry import expand_names

    known, unknown = expand_names(names)
    if unknown:
        out.write(
            f"unknown experiment(s): {', '.join(unknown)}\n{list_experiments()}\n"
        )
        return 2
    return run_campaign(
        known,
        jobs=jobs,
        json_dir=json_dir,
        out=out,
        timeout_sec=timeout_sec,
        stream_dir=stream_dir,
    )


def _scenario_files_in(directory: str) -> List[str]:
    from repro.experiments.registry import SCENARIO_SUFFIXES

    root = pathlib.Path(directory)
    return sorted(
        str(path)
        for path in root.iterdir()
        if path.is_file() and path.suffix in SCENARIO_SUFFIXES
    )


def list_scenarios(directory: str, out=sys.stdout) -> int:
    """The ``repro scenario list`` subcommand."""
    from repro.experiments.registry import scenario_points
    from repro.scenario import ScenarioError

    if not pathlib.Path(directory).is_dir():
        sys.stderr.write(f"repro scenario: error: no such directory: {directory}\n")
        return 2
    files = _scenario_files_in(directory)
    if not files:
        out.write(f"no scenario files in {directory}\n")
        return 0
    for path in files:
        try:
            points = scenario_points(path)
        except ScenarioError as exc:
            first = str(exc).splitlines()[0]
            out.write(f"{path}: INVALID ({first})\n")
            continue
        spec = points[0][1]
        label = spec.description or spec.name
        suffix = f" [{len(points)} sweep points]" if len(points) > 1 else ""
        out.write(f"{path}: {label}{suffix}\n")
    return 0


def validate_scenarios(files: List[str], out=sys.stdout) -> int:
    """The ``repro scenario validate`` subcommand (exit 2 on any error)."""
    from repro.experiments.registry import scenario_points
    from repro.scenario import ScenarioError

    failed = False
    for path in files:
        try:
            points = scenario_points(path)
        except ScenarioError as exc:
            failed = True
            out.write(f"{path}: INVALID\n")
            for line in str(exc).splitlines():
                out.write(f"  {line}\n")
            continue
        names = ", ".join(spec.name for _, spec in points[:3])
        if len(points) > 3:
            names += ", ..."
        plural = "s" if len(points) != 1 else ""
        out.write(f"{path}: OK — {len(points)} point{plural} ({names})\n")
    return 2 if failed else 0


def show_scenario(token: str, fmt: str, out=sys.stdout) -> int:
    """The ``repro scenario show`` subcommand: canonical serialization."""
    from repro.experiments.registry import scenario_spec_of
    from repro.scenario import ScenarioError, dumps_json, dumps_toml

    try:
        spec = scenario_spec_of(token)
    except ScenarioError as exc:
        sys.stderr.write(f"repro scenario: error:\n{exc}\n")
        return 2
    out.write(dumps_json(spec) if fmt == "json" else dumps_toml(spec))
    return 0


def run_scenario_command(args, out=sys.stdout) -> int:
    """Dispatch ``repro scenario list | validate | show``."""
    if args.scenario_command == "list":
        return list_scenarios(args.directory, out=out)
    if args.scenario_command == "validate":
        return validate_scenarios(args.files, out=out)
    return show_scenario(args.file, args.format, out=out)


def run_herd_command(args, out=sys.stdout) -> int:
    """Dispatch ``repro herd run | resume | status`` (docs/herd.md)."""
    from repro import herd

    try:
        if args.herd_command == "run":
            config = herd.HerdConfig(
                jobs=args.jobs,
                timeout_sec=args.timeout_sec,
                max_attempts=args.max_attempts,
                backoff=herd.BackoffPolicy(
                    base_delay_sec=args.base_delay_sec,
                    max_delay_sec=args.max_delay_sec,
                ),
                seed=args.seed,
            )
            return herd.run_herd(
                args.experiments, args.json_dir, config, out=out
            )
        if args.herd_command == "resume":
            return herd.resume_herd(args.json_dir, jobs=args.jobs, out=out)
        return herd.herd_status(args.json_dir, out=out)
    except (herd.HerdError, herd.JournalError, herd.BackoffError) as exc:
        sys.stderr.write(f"repro herd: error: {exc}\n")
        return 2


def run_serve(args, out=sys.stdout) -> int:
    """The ``repro serve`` subcommand (docs/service.md).

    Materializes a ``[service]`` scenario and drives its
    :class:`~repro.service.loop.ServiceLoop` for ``--ticks`` ticks.
    ``--stream DIR`` spools every telemetry series point to a
    full-resolution stream directory (implies telemetry even when the
    scenario leaves it off).  Exit codes: 0 ok, 2 usage errors (bad
    file, no service section, unusable stream directory).
    """
    from repro.scenario import ScenarioError, load_scenario
    from repro.scenario.materialize import materialize
    from repro.telemetry import (
        MetricsRecorder,
        StreamError,
        StreamingSink,
        recording,
    )
    from repro.util import atomic_write_json

    try:
        spec = load_scenario(args.spec)
    except ScenarioError as exc:
        sys.stderr.write(f"repro serve: error:\n{exc}\n")
        return 2
    if spec.service is None:
        sys.stderr.write(
            f"repro serve: error: {args.spec} has no [service] section; "
            "add one (docs/service.md) or use 'repro run'\n"
        )
        return 2
    if args.ticks < 0:
        sys.stderr.write(
            f"repro serve: error: --ticks must be >= 0, got {args.ticks}\n"
        )
        return 2
    sink = None
    if args.stream_dir is not None:
        try:
            sink = StreamingSink(args.stream_dir)
        except StreamError as exc:
            sys.stderr.write(f"repro serve: error: {exc}\n")
            return 2
    if spec.telemetry.enabled or sink is not None:
        recorder = MetricsRecorder(
            max_series_points=spec.telemetry.series_capacity, sink=sink
        )
        with recording(recorder):
            built = materialize(spec)
    else:
        recorder = None
        built = materialize(spec)
    service = built.service
    assert service is not None  # spec.service checked above
    service.stop_when_idle = args.stop_when_idle or service.stop_when_idle
    out.write(
        f"serving {spec.name}: {args.ticks} ticks, "
        f"{service.churn.process} arrivals at "
        f"{service.churn.rate_per_tick:g}/tick, "
        f"{service.admission.name} admission\n"
    )
    summary = service.run(args.ticks)
    summary["scenario"] = spec.name
    if sink is not None:
        assert recorder is not None
        sink.close(recorder)
        summary["stream"] = {
            "points_streamed": sink.points_streamed,
            "chunks": sink.chunks_rolled,
        }
        out.write(
            f"streamed {sink.points_streamed} series points "
            f"({sink.chunks_rolled} chunks) to {args.stream_dir}\n"
        )
    out.write(
        f"ticks {summary['ticks_run']}  admitted {summary['admitted']}  "
        f"rejected {summary['rejected']}  retired {summary['retired']}  "
        f"drained {summary['drained']}  peak live {summary['peak_live_vms']}  "
        f"final live {summary['final_live_vms']}\n"
    )
    if args.json_dir is not None:
        artifact = pathlib.Path(args.json_dir) / f"{spec.name}.service.json"
        # Atomic: a kill mid-write must never leave a truncated summary
        # (the pre-fix plain open() could).
        atomic_write_json(str(artifact), summary)
        out.write(f"service summary written to {artifact}\n")
    return 0


def run_bench(args, out=sys.stdout) -> int:
    """The ``repro bench`` subcommand (see repro.bench, docs/performance.md).

    Exit codes: 0 ok, 1 at least one benchmark regressed beyond the
    ``--compare`` tolerance, 2 usage errors (unknown benchmark names,
    unreadable baselines, invalid repeat counts).
    """
    from repro import bench

    if args.list_benchmarks:
        for benchmark in bench.BENCHMARKS:
            out.write(f"{benchmark.name:22s} {benchmark.description}\n")
        return 0
    try:
        selected = (
            bench.benchmarks_named(args.benchmarks)
            if args.benchmarks
            else list(bench.BENCHMARKS)
        )
    except KeyError as exc:
        sys.stderr.write(f"repro bench: error: {exc.args[0]}\n")
        return 2
    baseline = None
    if args.compare is not None:
        try:
            baseline = bench.compare.load_baseline(args.compare)
        except bench.BenchCompareError as exc:
            sys.stderr.write(f"repro bench: error: {exc}\n")
            return 2
    warmup = args.warmup if args.warmup is not None else bench.runner.DEFAULT_WARMUP
    repeats = (
        args.repeats if args.repeats is not None else bench.runner.DEFAULT_REPEATS
    )

    def report_progress(result) -> None:
        out.write(
            f"{result.name:22s} median {result.median_sec * 1e3:9.2f} ms  "
            f"(min {result.min_sec * 1e3:.2f}, max {result.max_sec * 1e3:.2f}, "
            f"{result.repeats} repeats)\n"
        )

    try:
        results = bench.run_benchmarks(
            selected, warmup=warmup, repeats=repeats, progress=report_progress
        )
    except bench.runner.BenchmarkError as exc:
        sys.stderr.write(f"repro bench: error: {exc}\n")
        return 2
    document = bench.results_document(results, warmup=warmup, repeats=repeats)
    exit_code = 0
    if baseline is not None:
        try:
            comparisons = bench.compare_documents(
                document, baseline, args.tolerance
            )
        except bench.BenchCompareError as exc:
            sys.stderr.write(f"repro bench: error: {exc}\n")
            return 2
        bench.compare.annotate_document(document, comparisons, args.compare)
        out.write("\n" + bench.format_comparisons(comparisons, args.tolerance) + "\n")
        if any(comparison.regressed for comparison in comparisons):
            exit_code = 1
    if args.json_path is not None:
        from repro.util import atomic_write_json

        # Atomic: BENCH_*.json baselines gate CI, so a kill mid-write
        # must never leave a truncated document behind.
        atomic_write_json(args.json_path, document)
        out.write(f"benchmark results written to {args.json_path}\n")
    return exit_code


def run_report(args, out=sys.stdout) -> int:
    """The ``repro report`` subcommand (docs/reporting.md).

    Ingests artifact, herd, service and stream directories and emits
    comparison tables, service-run tables, herd status and per-series
    summaries as text, JSON or CSV.  The report is a pure function of
    the simulated contents (wall times are excluded), so two runs of the
    same campaign report byte-identically.  Exit codes: 0 ok, 1 report
    produced but sources carry damage (corrupt artifacts, torn streams,
    unclean journals), 2 unusable inputs.
    """
    # Late import: the report engine binds the experiments registry.
    from repro.analysis.report import run_report as report_main

    return report_main(
        args.dirs,
        fmt=args.format,
        output=args.output,
        counters=args.counters,
        series_filter=args.series,
        max_points=args.max_points,
        method=args.downsample,
        out=out,
    )


def run_lint(args, out=sys.stdout) -> int:
    """The ``repro lint`` subcommand (see repro.lint)."""
    from repro import lint as kyotolint

    if args.rules:
        out.write("per-file rules (phase 1):\n")
        for rule in kyotolint.ALL_RULES:
            out.write(
                f"  {rule.rule_id}  [{rule.severity:7s}] {rule.description}\n"
            )
        out.write("whole-program rules (phase 2):\n")
        for rule in kyotolint.ALL_PROGRAM_RULES:
            out.write(
                f"  {rule.rule_id}  [{rule.severity:7s}] {rule.description}\n"
            )
        return 0
    paths = args.paths or [str(pathlib.Path(__file__).parent)]
    missing = [p for p in paths if not pathlib.Path(p).exists()]
    if missing:
        sys.stderr.write(f"repro lint: error: no such path: {', '.join(missing)}\n")
        return 2
    findings = kyotolint.lint_paths(
        paths, jobs=args.jobs, cache_path=args.cache
    )
    if args.warn_only:
        for finding in findings:
            finding.severity = "warning"
    if args.baseline:
        if args.update_baseline:
            kyotolint.Baseline.from_findings(findings).save(args.baseline)
            out.write(
                f"baseline {args.baseline} updated "
                f"({len(findings)} entries)\n"
            )
            return 0
        try:
            baseline = kyotolint.Baseline.load(args.baseline)
        except kyotolint.BaselineError as exc:
            sys.stderr.write(f"repro lint: error: {exc}\n")
            return 2
        baseline.apply(findings)
    formatter = (
        kyotolint.format_json if args.format == "json" else kyotolint.format_text
    )
    out.write(formatter(findings) + "\n")
    return kyotolint.exit_code(findings)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    if args.command == "lint":
        return run_lint(args)
    if args.command == "bench":
        return run_bench(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "report":
        return run_report(args)
    if args.command == "scenario":
        return run_scenario_command(args)
    if args.command == "herd":
        return run_herd_command(args)
    if args.command == "campaign":
        from repro.experiments.campaign import summarize_campaign

        return summarize_campaign(args.artifact_dir, output=args.output)
    return run_experiments(
        args.experiments,
        jobs=args.jobs,
        json_dir=args.json_dir,
        timeout_sec=args.timeout_sec,
        stream_dir=args.stream_dir,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
