"""Campaign runner and JSON artifact aggregation.

A *campaign* is a batch of experiments run as one unit:

* points run one of two ways: in-process, one after another, for a
  serial campaign without a watchdog (``--jobs 1``, no
  ``--timeout-sec``); otherwise each point runs in its own child of one
  :class:`repro.herd.pool.SupervisedPool`, up to ``--jobs N`` at a
  time, under the optional ``--timeout-sec`` watchdog.  Every
  experiment is internally seeded through :mod:`repro.simulation.rng`,
  so both paths produce byte-identical reports, and results stream out
  in request order regardless of completion order,
* one crashing driver never aborts the batch — the failure is
  captured (message + traceback) in the experiment's artifact, the
  remaining experiments still run, and the campaign exits nonzero; a
  supervised child that hangs past its deadline or dies without
  reporting gets a synthetic ``ok: False`` artifact the same way,
* ``--json DIR`` writes one ``{name}.json`` artifact per experiment
  (schema ``repro.artifact/1``): the report text, the failure if any,
  wall time, and the full ``repro.telemetry/1`` telemetry document,
* :func:`aggregate_dir` folds a directory of artifacts into a single
  campaign summary (schema ``repro.campaign/1``) suitable for
  committing as a ``BENCH_*.json`` perf-trajectory point.

Wall-clock reads route through :func:`repro.util.wall_clock` — the one
sanctioned entry point (kyotolint D003); wall time never feeds back into
simulated results.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import traceback
from typing import IO, TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.scenario import ScenarioError
from repro.telemetry import (
    MetricsRecorder,
    StreamError,
    StreamingSink,
    recording,
    to_json_dict,
)
from repro.util import atomic_write_json, atomic_write_text, elapsed_since, wall_clock

from .registry import REGISTRY, expand_names, is_scenario_token, resolve

if TYPE_CHECKING:  # pragma: no cover
    from repro.herd.pool import WorkerOutcome

#: Schema identifier of one per-experiment artifact file.
ARTIFACT_SCHEMA = "repro.artifact/1"
#: Schema identifier of the aggregated campaign summary.
CAMPAIGN_SCHEMA = "repro.campaign/1"


class CampaignError(ValueError):
    """Raised on invalid campaign inputs (bad names, empty directories)."""


def experiment_stream_dir(stream_root: str, name: str) -> str:
    """Per-experiment stream directory under a campaign ``--stream`` root.

    Reuses the artifact-filename sanitization (minus the ``.json``
    suffix) so a sweep point's stream sits next to its artifact under a
    recognizable, collision-free name.
    """
    stem = artifact_filename(name)[: -len(".json")]
    return os.path.join(stream_root, stem)


def _close_stream(
    sink: Optional[StreamingSink], recorder: MetricsRecorder
) -> Optional[Dict[str, Any]]:
    """Seal an experiment's sink; returns the artifact ``stream`` stanza."""
    if sink is None:
        return None
    sink.close(recorder)
    return {
        "directory": os.path.basename(os.path.normpath(sink.directory)),
        "points_streamed": sink.points_streamed,
        "chunks": sink.chunks_rolled,
    }


def run_one(name: str, stream_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run one experiment (registry name or scenario token); return its artifact.

    Never raises for a failing experiment: the exception is captured in
    the artifact so the rest of the batch keeps running.  An unloadable
    or invalid scenario file is surfaced the same way — as an
    ``ok: False`` artifact named after the token.  Supervised children
    run it through :func:`_run_one_into`, so it must stay picklable
    (module-level, plain arguments only).

    With ``stream_dir`` the experiment's recorder gets a
    :class:`~repro.telemetry.stream.StreamingSink` spooling every series
    point at full resolution into ``stream_dir/<sanitized-name>/``; the
    artifact then carries a ``stream`` stanza (directory basename,
    points, chunks).  A sink that cannot be created (typically a reused
    stream directory — streams are never appended to) fails the
    experiment instead of crashing the batch.
    """
    start = wall_clock()
    spec = None
    resolve_error: Optional[Tuple[str, str]] = None
    try:
        spec = resolve(name)
    except (KeyError, ScenarioError) as exc:
        resolve_error = (f"{type(exc).__name__}: {exc}", traceback.format_exc())
    sink: Optional[StreamingSink] = None
    if stream_dir is not None:
        # Streams are keyed by the *resolved* name (when there is one) so
        # a sweep point's stream directory matches its artifact filename.
        stream_key = spec.name if spec is not None else name
        try:
            sink = StreamingSink(experiment_stream_dir(stream_dir, stream_key))
        except StreamError as exc:
            return failure_artifact(
                name,
                f"stream setup failed for {name!r}",
                f"StreamError: {exc}",
                elapsed_since(start),
            )
    recorder = MetricsRecorder(sink=sink)
    if spec is None:
        assert resolve_error is not None
        artifact = {
            "schema": ARTIFACT_SCHEMA,
            "name": name,
            "description": f"unresolvable experiment {name!r}",
            "ok": False,
            "report": "",
            "error": resolve_error[0],
            "traceback": resolve_error[1],
            "wall_time_sec": elapsed_since(start),
            "telemetry": to_json_dict(recorder),
        }
        stream_info = _close_stream(sink, recorder)
        if stream_info is not None:
            artifact["stream"] = stream_info
        return artifact
    ok = True
    report = ""
    error: Optional[str] = None
    failure_traceback: Optional[str] = None
    try:
        with recording(recorder):
            report = spec.runner()
    except Exception as exc:  # a crashing driver must not abort the batch
        ok = False
        error = f"{type(exc).__name__}: {exc}"
        failure_traceback = traceback.format_exc()
    stream_info = _close_stream(sink, recorder)
    artifact = {
        "schema": ARTIFACT_SCHEMA,
        "name": spec.name,
        "description": spec.description,
        "ok": ok,
        "report": report,
        "error": error,
        "traceback": failure_traceback,
        "wall_time_sec": elapsed_since(start),
        "telemetry": to_json_dict(recorder),
    }
    if stream_info is not None:
        artifact["stream"] = stream_info
    return artifact


def failure_artifact(
    name: str,
    description: str,
    error: str,
    wall_time_sec: float,
) -> Dict[str, Any]:
    """Synthetic ``ok: False`` artifact for work that produced no report.

    Used for watchdog timeouts, worker crashes and herd quarantines —
    anywhere the experiment never got to build its own artifact.
    """
    return {
        "schema": ARTIFACT_SCHEMA,
        "name": name,
        "description": description,
        "ok": False,
        "report": "",
        "error": error,
        "traceback": None,
        "wall_time_sec": wall_time_sec,
        "telemetry": to_json_dict(MetricsRecorder()),
    }


def _run_one_into(
    payload: Tuple[str, Optional[str]],
    conn: "multiprocessing.connection.Connection",
) -> None:
    """Supervised child entry point: run the experiment, ship the artifact.

    Module-level so it stays picklable under every start method.  The
    payload is ``(name, stream_dir)``; the herd orchestrator sends
    ``(token, None)``.
    """
    name, stream_dir = payload
    try:
        conn.send(run_one(name, stream_dir))
    finally:
        conn.close()


def _supervised_artifact(
    name: str, outcome: WorkerOutcome, timeout_sec: Optional[float]
) -> Dict[str, Any]:
    """Artifact for one supervised outcome.

    A child that reported ships its own artifact; a timed-out or dead
    child gets a synthetic ``ok: False`` one, so the batch continues
    exactly as past a crashing driver.
    """
    if outcome.kind == "result" and outcome.result is not None:
        return outcome.result
    try:
        spec = resolve(name)
        display, description = spec.name, spec.description
    except (KeyError, ScenarioError):
        display, description = name, f"unresolvable experiment {name!r}"
    if outcome.kind == "timeout":
        error = (
            f"TimeoutError: watchdog killed '{display}' after "
            f"{timeout_sec:g}s"
        )
    else:
        exitcode = outcome.exitcode if outcome.exitcode is not None else "?"
        error = (
            f"ChildCrash: experiment '{display}' worker died without "
            f"reporting (exit code {exitcode})"
        )
    return failure_artifact(display, description, error, outcome.wall_time_sec)


def _artifact_stream(
    names: Sequence[str],
    jobs: int,
    timeout_sec: Optional[float] = None,
    stream_dir: Optional[str] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield artifacts for ``names`` in request order.

    Without a watchdog, a serial campaign (``jobs <= 1`` or a single
    experiment) runs in-process.  Everything else — ``jobs > 1``, or
    any ``timeout_sec`` — runs through one
    :class:`repro.herd.pool.SupervisedPool`: each experiment in its own
    supervised child, up to ``jobs`` at a time, so a child that hangs or
    dies is reported instead of stalling the batch.
    """
    if timeout_sec is None and (jobs <= 1 or len(names) <= 1):
        for name in names:
            yield run_one(name, stream_dir)
        return
    # Local import: the herd orchestrator builds on this module, so
    # campaign -> herd must not bind at import time.
    from repro.herd.pool import SupervisedPool

    buffered: Dict[int, Dict[str, Any]] = {}
    next_index = 0
    launched = 0
    with SupervisedPool(
        target=_run_one_into, jobs=jobs, timeout_sec=timeout_sec
    ) as pool:
        while next_index < len(names):
            while pool.free_slots > 0 and launched < len(names):
                pool.launch(str(launched), (names[launched], stream_dir))
                launched += 1
            for outcome in pool.wait(0.25):
                index = int(outcome.key)
                buffered[index] = _supervised_artifact(
                    names[index], outcome, timeout_sec
                )
            while next_index in buffered:
                yield buffered.pop(next_index)
                next_index += 1


def artifact_filename(name: str) -> str:
    """Filesystem-safe artifact filename for an experiment name.

    Scenario names may carry sweep labels (``chaos@faults.uniform_rate=0.5``)
    or, for unresolvable tokens, whole paths; everything outside a
    conservative safe set maps to ``_`` so the file lands inside
    ``json_dir`` on every platform.  Sanitization is lossy (``a/b`` and
    ``a_b`` both sanitize to ``a_b``), so whenever it changed the name a
    short hash of the *original* name is appended — distinct experiment
    names can never silently share (and overwrite) one artifact file.
    """
    safe = "".join(
        ch if ch.isalnum() or ch in "._@=,+-" else "_" for ch in name
    )
    if not safe:
        safe = "experiment"
    if safe != name:
        digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]
        safe = f"{safe}-{digest}"
    return f"{safe}.json"


def write_artifact(json_dir: str, artifact: Dict[str, Any]) -> str:
    """Write one per-experiment artifact atomically; returns the path.

    The document lands in a temp file in the same directory and is
    ``os.replace``d into place (:func:`repro.util.atomic_write_json`),
    so a kill mid-write can never leave a truncated ``.json`` behind —
    readers see the old content or the new content, never half a
    document.
    """
    path = os.path.join(json_dir, artifact_filename(artifact["name"]))
    return atomic_write_json(path, artifact)


def run_campaign(
    names: Sequence[str],
    jobs: int = 1,
    json_dir: Optional[str] = None,
    out: IO[str] = sys.stdout,
    timeout_sec: Optional[float] = None,
    stream_dir: Optional[str] = None,
) -> int:
    """Run a campaign; returns the process exit code (0 ok, 1 failures).

    ``names`` must already be registry names or scenario-file tokens
    (use :func:`repro.experiments.registry.expand_names` for user
    input — it also expands sweep files into point tokens).
    Reports stream to ``out`` in the legacy serial format; artifacts go
    to ``json_dir`` when given.  ``stream_dir`` spools each
    experiment's full-resolution telemetry into its own subdirectory
    (see :func:`experiment_stream_dir`).

    There are two execution paths.  With ``jobs == 1`` (or a single
    experiment) and no ``timeout_sec``, experiments run in-process, one
    after another.  Otherwise every experiment runs in its own child of
    one :class:`repro.herd.pool.SupervisedPool`, up to ``jobs`` at a
    time; ``timeout_sec`` arms the per-experiment watchdog (SIGTERM,
    then SIGKILL after a grace period).  A child that times out or dies
    without reporting becomes an ``ok: False`` artifact and the batch
    continues.
    """
    if jobs < 1:
        raise CampaignError(f"jobs must be >= 1, got {jobs}")
    if timeout_sec is not None and timeout_sec <= 0:
        raise CampaignError(f"timeout_sec must be positive, got {timeout_sec}")
    unknown = [
        name
        for name in names
        if name not in REGISTRY and not is_scenario_token(name)
    ]
    if unknown:
        raise CampaignError(f"unknown experiment(s): {', '.join(unknown)}")
    if stream_dir is not None:
        os.makedirs(stream_dir, exist_ok=True)
    failed: List[str] = []
    for artifact in _artifact_stream(names, jobs, timeout_sec, stream_dir):
        out.write(f"== {artifact['name']}: {artifact['description']} ==\n")
        if artifact["ok"]:
            out.write(artifact["report"])
        else:
            failed.append(artifact["name"])
            out.write(f"!! {artifact['name']} failed: {artifact['error']}\n")
            if artifact["traceback"]:
                out.write(artifact["traceback"])
        out.write(f"\n[{artifact['wall_time_sec']:.1f}s]\n\n")
        if json_dir is not None:
            write_artifact(json_dir, artifact)
    if failed:
        out.write(f"FAILED: {', '.join(failed)}\n")
        return 1
    return 0


# -- aggregation -------------------------------------------------------------


def scan_artifacts(
    json_dir: str,
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Load ``repro.artifact/1`` documents; report corrupt files.

    Returns ``(artifacts, corrupt)`` where ``corrupt`` lists the
    filenames (sorted) that held undecodable JSON.  A corrupt artifact —
    e.g. one truncated by a kill mid-write before writes became atomic —
    must not abort aggregation of the healthy rest of the directory.
    Non-artifact JSON files (e.g. a previously written campaign summary
    in the same directory) are skipped, not errors.
    """
    if not os.path.isdir(json_dir):
        raise CampaignError(f"no such artifact directory: {json_dir}")
    artifacts: List[Dict[str, Any]] = []
    corrupt: List[str] = []
    for entry in sorted(os.listdir(json_dir)):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(json_dir, entry)
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError:
                corrupt.append(entry)
                continue
        if isinstance(data, dict) and data.get("schema") == ARTIFACT_SCHEMA:
            artifacts.append(data)
    return artifacts, corrupt


def load_artifacts(json_dir: str) -> List[Dict[str, Any]]:
    """Load every readable ``repro.artifact/1`` document in ``json_dir``.

    Corrupt files are tolerated (see :func:`scan_artifacts`); a
    directory with no readable artifact at all is still an error.
    """
    artifacts, _corrupt = scan_artifacts(json_dir)
    if not artifacts:
        raise CampaignError(
            f"no {ARTIFACT_SCHEMA} artifacts found in {json_dir}"
        )
    return artifacts


def aggregate_artifacts(artifacts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-experiment artifacts into one campaign summary dict."""
    experiments = []
    for artifact in artifacts:
        report = artifact.get("report", "") or ""
        telemetry = artifact.get("telemetry", {}) or {}
        experiments.append(
            {
                "name": artifact["name"],
                "ok": bool(artifact["ok"]),
                "wall_time_sec": round(float(artifact["wall_time_sec"]), 3),
                "report_sha256": hashlib.sha256(
                    report.encode("utf-8")
                ).hexdigest(),
                "error": artifact.get("error"),
                "telemetry_counters": telemetry.get("counters", {}),
            }
        )
    failed = [entry["name"] for entry in experiments if not entry["ok"]]
    return {
        "schema": CAMPAIGN_SCHEMA,
        "num_experiments": len(experiments),
        "num_failed": len(failed),
        "failed": failed,
        "total_wall_time_sec": round(
            sum(entry["wall_time_sec"] for entry in experiments), 3
        ),
        "experiments": experiments,
    }


def aggregate_dir(json_dir: str) -> Dict[str, Any]:
    """Aggregate every artifact in ``json_dir`` into a campaign summary.

    Corrupt artifact files do not abort aggregation — they are listed
    under ``corrupt_artifacts`` in the summary so the campaign still
    reports (and exits nonzero on) the damage.
    """
    artifacts, corrupt = scan_artifacts(json_dir)
    if not artifacts:
        raise CampaignError(
            f"no {ARTIFACT_SCHEMA} artifacts found in {json_dir}"
        )
    summary = aggregate_artifacts(artifacts)
    if corrupt:
        summary["corrupt_artifacts"] = corrupt
    return summary


def summarize_campaign(
    json_dir: str,
    output: Optional[str] = None,
    out: IO[str] = sys.stdout,
) -> int:
    """The ``repro campaign`` subcommand: aggregate and emit JSON."""
    try:
        summary = aggregate_dir(json_dir)
    except CampaignError as exc:
        sys.stderr.write(f"repro campaign: error: {exc}\n")
        return 2
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if output is not None:
        # Atomic like every artifact write: a kill mid-summary must not
        # leave a truncated JSON document for downstream tooling.
        atomic_write_text(output, text)
        out.write(f"campaign summary written to {output}\n")
    else:
        out.write(text)
    if summary.get("corrupt_artifacts"):
        names = ", ".join(summary["corrupt_artifacts"])
        sys.stderr.write(f"repro campaign: corrupt artifact(s): {names}\n")
        return 1
    return 0 if summary["num_failed"] == 0 else 1
