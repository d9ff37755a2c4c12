"""Tests for the campaign runner: registry, fan-out, artifacts, summary."""

import io
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.campaign import (
    ARTIFACT_SCHEMA,
    CAMPAIGN_SCHEMA,
    CampaignError,
    aggregate_dir,
    artifact_filename,
    experiment_stream_dir,
    load_artifacts,
    run_campaign,
    run_one,
    scan_artifacts,
    summarize_campaign,
    write_artifact,
)
from repro.experiments.registry import (
    REGISTRY,
    ExperimentSpec,
    expand_names,
    experiment_names,
)
from repro.cli import run_experiments

#: Cheap experiments for runner tests (sub-second each).
FAST = ["table1", "table2", "fig07"]

REPO = Path(__file__).resolve().parents[1]


def _crash():
    raise RuntimeError("stub experiment crash")


def _hang():
    import time

    time.sleep(60)
    return "never reached"


#: Nap long enough that serialized watchdog execution is unambiguous.
NAP_SEC = 0.4


def _nap():
    import time

    time.sleep(NAP_SEC)
    return "napped\n"


def _die_hard():
    os._exit(3)


def _ignore_sigterm_and_hang():
    import time

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)
    return "never reached"


@pytest.fixture
def crashy(monkeypatch):
    """Temporarily register a deterministic crashing experiment."""
    monkeypatch.setitem(
        REGISTRY, "crashy", ExperimentSpec("crashy", "always fails", _crash)
    )
    return "crashy"


@pytest.fixture
def hangy(monkeypatch):
    """Temporarily register a hanging experiment (watchdog fodder).

    The watchdog forks its child, which inherits the patched registry.
    """
    monkeypatch.setitem(
        REGISTRY, "hangy", ExperimentSpec("hangy", "never returns", _hang)
    )
    return "hangy"


class TestExpandNames:
    def test_all_expands_in_registry_order(self):
        known, unknown = expand_names(["all"])
        assert known == experiment_names()
        assert unknown == []
        assert not [n for n in experiment_names() if n.startswith("abl-")]

    def test_duplicates_run_once_keeping_first_position(self):
        known, unknown = expand_names(["table2", "table1", "table2"])
        assert known == ["table2", "table1"]
        assert unknown == []

    def test_all_plus_explicit_name_is_deduplicated(self):
        known, __ = expand_names(["fig05", "all"])
        assert known.count("fig05") == 1
        assert known[0] == "fig05"

    def test_unknown_names_reported_in_order(self):
        known, unknown = expand_names(["nope", "table1", "wat"])
        assert known == ["table1"]
        assert unknown == ["nope", "wat"]


class TestRunOne:
    def test_success_artifact_shape(self):
        artifact = run_one("table1")
        assert artifact["schema"] == ARTIFACT_SCHEMA
        assert artifact["ok"] is True
        assert "8096 MB" in artifact["report"]
        assert artifact["error"] is None
        assert artifact["wall_time_sec"] >= 0.0
        assert artifact["telemetry"]["schema"] == "repro.telemetry/1"

    def test_failure_is_captured_not_raised(self, crashy):
        artifact = run_one(crashy)
        assert artifact["ok"] is False
        assert "RuntimeError: stub experiment crash" in artifact["error"]
        assert "Traceback" in artifact["traceback"]


class TestCrashResilience:
    def test_batch_continues_past_crash_and_exits_nonzero(self, crashy, tmp_path):
        out = io.StringIO()
        code = run_campaign(
            [crashy, "table1"], jobs=1, json_dir=str(tmp_path), out=out
        )
        text = out.getvalue()
        assert code == 1
        assert "!! crashy failed: RuntimeError: stub experiment crash" in text
        assert "8096 MB" in text  # table1 still ran
        assert "FAILED: crashy" in text
        # ... and the failure is diagnosable from the JSON artifact.
        artifact = json.loads((tmp_path / "crashy.json").read_text())
        assert artifact["ok"] is False
        assert "stub experiment crash" in artifact["error"]

    def test_cli_run_experiments_keeps_going(self, crashy):
        out = io.StringIO()
        assert run_experiments([crashy, "table2"], out=out) == 1
        assert "vdis2" in out.getvalue()

    def test_unknown_jobs_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign(["table1"], jobs=0)

    def test_unexpanded_unknown_name_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign(["not-an-experiment"])


def _watchdog_artifact(name, tmp_path, timeout_sec, **kwargs):
    """Run ``name`` alone under the watchdog; return its JSON artifact."""
    json_dir = tmp_path / "json"
    run_campaign(
        [name],
        jobs=1,
        json_dir=str(json_dir),
        out=io.StringIO(),
        timeout_sec=timeout_sec,
        **kwargs,
    )
    (path,) = json_dir.glob("*.json")
    return json.loads(path.read_text())


class TestWatchdog:
    def test_hung_driver_killed_and_reported_like_a_crash(
        self, hangy, tmp_path
    ):
        artifact = _watchdog_artifact(hangy, tmp_path, timeout_sec=0.5)
        assert artifact["schema"] == ARTIFACT_SCHEMA
        assert artifact["ok"] is False
        assert "TimeoutError" in artifact["error"]
        assert "watchdog killed 'hangy'" in artifact["error"]
        assert artifact["wall_time_sec"] >= 0.5

    def test_fast_experiment_unaffected_by_watchdog(self, tmp_path):
        artifact = _watchdog_artifact("table1", tmp_path, timeout_sec=30.0)
        assert artifact["ok"] is True
        assert "8096 MB" in artifact["report"]

    def test_worker_death_reported_not_raised(self, monkeypatch, tmp_path):
        monkeypatch.setitem(
            REGISTRY,
            "diehard",
            ExperimentSpec("diehard", "kills its worker", _die_hard),
        )
        artifact = _watchdog_artifact("diehard", tmp_path, timeout_sec=30.0)
        assert artifact["ok"] is False
        assert "ChildCrash" in artifact["error"]

    def test_batch_continues_past_timeout_and_exits_nonzero(
        self, hangy, tmp_path
    ):
        out = io.StringIO()
        code = run_campaign(
            [hangy, "table1"],
            json_dir=str(tmp_path),
            out=out,
            timeout_sec=0.5,
        )
        text = out.getvalue()
        assert code == 1
        assert "!! hangy failed: TimeoutError" in text
        assert "8096 MB" in text  # table1 still ran
        artifact = json.loads((tmp_path / "hangy.json").read_text())
        assert artifact["ok"] is False
        assert "watchdog killed" in artifact["error"]

    def test_cli_flag_threads_through(self, hangy):
        out = io.StringIO()
        assert run_experiments([hangy], out=out, timeout_sec=0.5) == 1
        assert "watchdog killed" in out.getvalue()

    def test_invalid_timeout_rejected(self):
        with pytest.raises(CampaignError):
            run_campaign(["table1"], timeout_sec=0.0)

    def test_sigterm_ignoring_child_is_escalated_to_sigkill(
        self, monkeypatch, tmp_path
    ):
        """terminate() alone used to hang the campaign forever here."""
        monkeypatch.setitem(
            REGISTRY,
            "stubborn",
            ExperimentSpec(
                "stubborn", "ignores SIGTERM", _ignore_sigterm_and_hang
            ),
        )
        artifact = _watchdog_artifact("stubborn", tmp_path, timeout_sec=0.5)
        assert artifact["ok"] is False
        assert "TimeoutError" in artifact["error"]
        # The whole escalation (timeout + grace + SIGKILL) stayed
        # bounded — nowhere near the child's 600s sleep.
        assert artifact["wall_time_sec"] < 10.0

    def test_watchdog_workers_run_concurrently(self, monkeypatch, tmp_path):
        """--jobs N with --timeout-sec is no longer serialized."""
        import time as _time

        from repro.util import elapsed_since, wall_clock

        monkeypatch.setitem(
            REGISTRY, "nap1", ExperimentSpec("nap1", "naps", _nap)
        )
        monkeypatch.setitem(
            REGISTRY, "nap2", ExperimentSpec("nap2", "naps", _nap)
        )
        start = wall_clock()
        out = io.StringIO()
        code = run_campaign(
            ["nap1", "nap2"],
            jobs=2,
            json_dir=str(tmp_path),
            out=out,
            timeout_sec=30.0,
        )
        elapsed = elapsed_since(start)
        assert code == 0
        assert elapsed < 2 * NAP_SEC * 0.9, (
            f"watchdog workers ran serially ({elapsed:.2f}s)"
        )
        # Request order is preserved in the streamed output.
        text = out.getvalue()
        assert text.index("== nap1:") < text.index("== nap2:")

    def test_parallel_watchdog_artifacts_match_serial(self, tmp_path):
        serial_dir, parallel_dir = str(tmp_path / "s"), str(tmp_path / "p")
        assert run_campaign(
            FAST, jobs=1, json_dir=serial_dir, out=io.StringIO(),
            timeout_sec=30.0,
        ) == 0
        assert run_campaign(
            FAST, jobs=3, json_dir=parallel_dir, out=io.StringIO(),
            timeout_sec=30.0,
        ) == 0
        for name in FAST:
            serial = json.loads(
                open(os.path.join(serial_dir, f"{name}.json")).read()
            )
            parallel = json.loads(
                open(os.path.join(parallel_dir, f"{name}.json")).read()
            )
            assert parallel["report"] == serial["report"]
            assert parallel["telemetry"] == serial["telemetry"]

    def test_parallel_watchdog_crash_and_timeout_reported(
        self, hangy, monkeypatch, tmp_path
    ):
        monkeypatch.setitem(
            REGISTRY,
            "diehard",
            ExperimentSpec("diehard", "kills its worker", _die_hard),
        )
        out = io.StringIO()
        # hangy sleeps forever, so the timeout arm fires regardless;
        # the budget is generous so table1 never times out under load.
        code = run_campaign(
            ["diehard", "table1", hangy],
            jobs=2,
            json_dir=str(tmp_path),
            out=out,
            timeout_sec=5.0,
        )
        assert code == 1
        text = out.getvalue()
        assert "ChildCrash" in text
        assert "watchdog killed 'hangy'" in text
        assert "8096 MB" in text  # table1 still ran


#: A campaign whose first driver kills its worker process outright.
_DIEHARD_CAMPAIGN = textwrap.dedent(
    """
    import os
    import sys

    from repro.experiments.campaign import run_campaign
    from repro.experiments.registry import REGISTRY, ExperimentSpec


    def die_hard():
        os._exit(3)


    REGISTRY["diehard"] = ExperimentSpec("diehard", "kills its worker", die_hard)
    sys.exit(run_campaign(["diehard", "table1"], jobs=2, json_dir=sys.argv[1]))
    """
)


class TestParallelWorkerDeath:
    def test_dead_worker_without_watchdog_does_not_hang(self, tmp_path):
        """Under ``--jobs N`` and no watchdog, a worker that dies must
        become a ``ChildCrash`` artifact, not a lost point waited on
        forever.  Run in a subprocess so a regression fails on the
        timeout instead of hanging the suite."""
        json_dir = tmp_path / "json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _DIEHARD_CAMPAIGN, str(json_dir)],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO),
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        artifact = json.loads((json_dir / "diehard.json").read_text())
        assert artifact["ok"] is False
        assert "ChildCrash" in artifact["error"]
        assert "8096 MB" in proc.stdout  # table1's report still printed


class TestParallelDeterminism:
    def test_parallel_reports_byte_identical_to_serial(self, tmp_path):
        serial_dir, parallel_dir = str(tmp_path / "s"), str(tmp_path / "p")
        serial_out, parallel_out = io.StringIO(), io.StringIO()
        assert run_campaign(FAST, jobs=1, json_dir=serial_dir, out=serial_out) == 0
        assert run_campaign(FAST, jobs=2, json_dir=parallel_dir, out=parallel_out) == 0
        for name in FAST:
            serial = json.loads(open(os.path.join(serial_dir, f"{name}.json")).read())
            parallel = json.loads(open(os.path.join(parallel_dir, f"{name}.json")).read())
            assert parallel["report"] == serial["report"]
            assert parallel["telemetry"] == serial["telemetry"]

    def test_parallel_stdout_streams_in_request_order(self):
        out = io.StringIO()
        assert run_campaign(FAST, jobs=2, out=out) == 0
        text = out.getvalue()
        positions = [text.index(f"== {name}:") for name in FAST]
        assert positions == sorted(positions)


class TestAggregation:
    def test_summary_shape(self, crashy, tmp_path):
        run_campaign(
            ["table1", crashy], jobs=1, json_dir=str(tmp_path), out=io.StringIO()
        )
        summary = aggregate_dir(str(tmp_path))
        assert summary["schema"] == CAMPAIGN_SCHEMA
        assert summary["num_experiments"] == 2
        assert summary["num_failed"] == 1
        assert summary["failed"] == ["crashy"]
        by_name = {e["name"]: e for e in summary["experiments"]}
        assert by_name["table1"]["ok"] is True
        assert len(by_name["table1"]["report_sha256"]) == 64
        assert by_name["crashy"]["error"] is not None

    def test_summarize_writes_output_file_and_skips_it_on_reload(self, tmp_path):
        run_campaign(["table1"], jobs=1, json_dir=str(tmp_path), out=io.StringIO())
        output = str(tmp_path / "campaign.json")
        out = io.StringIO()
        assert summarize_campaign(str(tmp_path), output=output, out=out) == 0
        assert "campaign summary written" in out.getvalue()
        summary = json.loads(open(output).read())
        assert summary["num_experiments"] == 1
        # The summary in the same directory is not mistaken for an artifact.
        assert len(load_artifacts(str(tmp_path))) == 1

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(CampaignError):
            aggregate_dir(str(tmp_path))
        assert summarize_campaign(str(tmp_path), out=io.StringIO()) == 2

    def test_missing_directory_is_an_error(self):
        with pytest.raises(CampaignError):
            aggregate_dir("/definitely/not/here")


class TestArtifactFilenames:
    def test_clean_names_keep_plain_filenames(self):
        assert artifact_filename("table1") == "table1.json"
        assert (
            artifact_filename("chaos@faults.uniform_rate=0.5")
            == "chaos@faults.uniform_rate=0.5.json"
        )

    def test_sanitized_names_cannot_collide(self):
        """Regression: 'a/b' and 'a_b' used to map to the same file."""
        assert artifact_filename("a/b") != artifact_filename("a_b")
        assert artifact_filename("a/b") != artifact_filename("a:b")
        assert artifact_filename("").startswith("experiment-")

    def test_sanitized_filename_is_deterministic(self):
        assert artifact_filename("a/b") == artifact_filename("a/b")

    def test_colliding_artifacts_both_survive_on_disk(self, tmp_path):
        for name in ("a/b", "a_b"):
            write_artifact(
                str(tmp_path),
                {
                    "schema": ARTIFACT_SCHEMA,
                    "name": name,
                    "ok": True,
                    "report": name,
                    "error": None,
                    "wall_time_sec": 0.0,
                    "telemetry": {},
                },
            )
        artifacts, corrupt = scan_artifacts(str(tmp_path))
        assert corrupt == []
        assert sorted(a["name"] for a in artifacts) == ["a/b", "a_b"]


def _chatty():
    from repro.telemetry.recorder import current_recorder

    recorder = current_recorder()
    for tick in range(40):
        recorder.record("sys.llc_misses_per_tick", tick, float(tick) * 2.0)
    recorder.inc("kyoto.samples", 40)
    return "chatty ran\n"


@pytest.fixture
def chatty(monkeypatch):
    """Stub experiment that records a 40-point series."""
    monkeypatch.setitem(
        REGISTRY, "chatty", ExperimentSpec("chatty", "records points", _chatty)
    )
    return "chatty"


class TestStreamingCampaign:
    def test_run_one_streams_full_resolution(self, chatty, tmp_path):
        from repro.telemetry.stream import read_stream

        stream_dir = str(tmp_path / "streams")
        artifact = run_one(chatty, stream_dir=stream_dir)
        assert artifact["ok"] is True
        stanza = artifact["stream"]
        assert stanza["points_streamed"] == 40
        assert stanza["chunks"] >= 1
        assert stanza["directory"] == "chatty"
        data = read_stream(experiment_stream_dir(stream_dir, chatty))
        assert data.clean and data.finalized
        series = data.series["sys.llc_misses_per_tick"]
        assert series.ticks == list(range(40))
        assert series.values == [float(t) * 2.0 for t in range(40)]
        assert data.counters["kyoto.samples"] == 40.0

    def test_stream_survives_recorder_reservoir(self, chatty, tmp_path):
        # The artifact's telemetry copy is reservoir-bounded; the stream
        # must not be.
        from repro.telemetry.stream import read_stream

        stream_dir = str(tmp_path / "streams")
        artifact = run_one(chatty, stream_dir=stream_dir)
        artifact_series = artifact["telemetry"]["series"][
            "sys.llc_misses_per_tick"
        ]
        stream_series = read_stream(
            experiment_stream_dir(stream_dir, chatty)
        ).series["sys.llc_misses_per_tick"]
        assert artifact_series["offered"] == 40
        assert len(stream_series.ticks) == 40

    def test_reused_stream_dir_fails_gracefully(self, chatty, tmp_path):
        stream_dir = str(tmp_path / "streams")
        assert run_one(chatty, stream_dir=stream_dir)["ok"] is True
        again = run_one(chatty, stream_dir=stream_dir)
        assert again["ok"] is False
        assert "StreamError" in again["error"]

    def test_campaign_stream_dir_threads_through(self, chatty, tmp_path):
        json_dir = str(tmp_path / "json")
        stream_dir = str(tmp_path / "streams")
        code = run_campaign(
            [chatty, "table1"],
            jobs=1,
            json_dir=json_dir,
            stream_dir=stream_dir,
            out=io.StringIO(),
        )
        assert code == 0
        assert sorted(os.listdir(stream_dir)) == ["chatty", "table1"]
        artifact = json.loads(
            open(os.path.join(json_dir, "chatty.json")).read()
        )
        assert artifact["stream"]["points_streamed"] == 40

    def test_parallel_streams_match_serial(self, chatty, tmp_path):
        from repro.telemetry.stream import read_stream

        def run(jobs, tag):
            stream_dir = str(tmp_path / tag)
            assert run_campaign(
                [chatty], jobs=jobs, stream_dir=stream_dir, out=io.StringIO()
            ) == 0
            return read_stream(experiment_stream_dir(stream_dir, chatty))

        serial = run(1, "s")
        parallel = run(2, "p")
        assert serial.series.keys() == parallel.series.keys()
        for name in serial.series:
            assert serial.series[name].ticks == parallel.series[name].ticks
            assert serial.series[name].values == parallel.series[name].values

    def test_watchdog_path_streams_too(self, chatty, tmp_path):
        from repro.telemetry.stream import read_stream

        stream_dir = str(tmp_path / "streams")
        artifact = _watchdog_artifact(
            chatty, tmp_path, timeout_sec=30.0, stream_dir=stream_dir
        )
        assert artifact["ok"] is True
        assert artifact["stream"]["points_streamed"] == 40
        data = read_stream(experiment_stream_dir(stream_dir, chatty))
        assert data.finalized


class TestAtomicArtifacts:
    def test_write_leaves_no_temp_files(self, tmp_path):
        path = write_artifact(
            str(tmp_path), run_one("table1")
        )
        assert os.path.basename(path) == "table1.json"
        assert sorted(os.listdir(str(tmp_path))) == ["table1.json"]

    def test_corrupt_artifact_reported_not_fatal(self, tmp_path):
        run_campaign(
            ["table1"], jobs=1, json_dir=str(tmp_path), out=io.StringIO()
        )
        (tmp_path / "torn.json").write_text('{"schema": "repro.artifact/1", ')
        # load_artifacts no longer aborts the whole directory...
        assert len(load_artifacts(str(tmp_path))) == 1
        # ...scan reports the damage...
        artifacts, corrupt = scan_artifacts(str(tmp_path))
        assert [a["name"] for a in artifacts] == ["table1"]
        assert corrupt == ["torn.json"]
        # ...and aggregation surfaces it in the summary + exit code.
        summary = aggregate_dir(str(tmp_path))
        assert summary["corrupt_artifacts"] == ["torn.json"]
        assert summary["num_experiments"] == 1
        assert summarize_campaign(str(tmp_path), out=io.StringIO()) == 1

    def test_directory_of_only_corrupt_files_is_an_error(self, tmp_path):
        (tmp_path / "torn.json").write_text("{")
        with pytest.raises(CampaignError):
            load_artifacts(str(tmp_path))
        with pytest.raises(CampaignError):
            aggregate_dir(str(tmp_path))
