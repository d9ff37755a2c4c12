"""Tests for the repro.bench harness: runner, comparison gate, CLI."""

import io
import json

import pytest

from repro import bench
from repro.bench.compare import (
    BenchCompareError,
    compare_documents,
    format_comparisons,
    load_baseline,
)
from repro.bench.registry import benchmark_names, benchmarks_named
from repro.bench.runner import (
    BENCH_SCHEMA,
    Benchmark,
    BenchmarkError,
    results_document,
    run_benchmark,
)
from repro.cli import build_parser, run_bench


def counting_benchmark(checks=None):
    """A trivial benchmark that counts setup calls and replays checks."""
    setups = []
    values = list(checks) if checks is not None else None

    def setup():
        setups.append(1)
        return len(setups)

    def body(payload):
        if values is not None:
            return values.pop(0)
        return 42

    return Benchmark(
        name="counting",
        description="test fixture",
        setup=setup,
        body=body,
    ), setups


class TestRunner:
    def test_fresh_setup_per_run(self):
        benchmark, setups = counting_benchmark()
        result = run_benchmark(benchmark, warmup=2, repeats=3)
        assert len(setups) == 5  # warmups included
        assert len(result.samples_sec) == 3
        assert result.check == 42

    def test_nondeterministic_check_raises(self):
        benchmark, _ = counting_benchmark(checks=[1, 1, 2])
        with pytest.raises(BenchmarkError, match="nondeterministic"):
            run_benchmark(benchmark, warmup=1, repeats=2)

    def test_invalid_discipline_rejected(self):
        benchmark, _ = counting_benchmark()
        with pytest.raises(BenchmarkError):
            run_benchmark(benchmark, warmup=-1, repeats=1)
        with pytest.raises(BenchmarkError):
            run_benchmark(benchmark, warmup=0, repeats=0)

    def test_document_shape(self):
        benchmark, _ = counting_benchmark()
        result = run_benchmark(benchmark, warmup=0, repeats=2)
        document = results_document([result], warmup=0, repeats=2)
        assert document["schema"] == BENCH_SCHEMA
        assert document["config"] == {"warmup": 0, "repeats": 2}
        assert "platform" in document["machine"]
        (entry,) = document["results"]
        assert entry["name"] == "counting"
        assert entry["check"] == 42
        assert len(entry["samples_sec"]) == 2

    def test_everything_but_timings_is_deterministic(self):
        """Two runs of a real benchmark agree on all non-timing fields."""
        (benchmark,) = benchmarks_named(["campaign_fanout"])
        documents = []
        for _ in range(2):
            result = run_benchmark(benchmark, warmup=0, repeats=1)
            documents.append(results_document([result], warmup=0, repeats=1))
        for document in documents:
            for entry in document["results"]:
                for key in ("samples_sec", "median_sec", "min_sec", "max_sec"):
                    entry.pop(key)
        assert documents[0] == documents[1]


class TestRegistry:
    def test_names_unique_and_ordered(self):
        names = benchmark_names()
        assert len(names) == len(set(names))
        assert "tick_loop_8vcpu" in names
        assert "exec_time_protocol" in names

    def test_subset_resolution_preserves_request_order(self):
        subset = benchmarks_named(["occupancy_relax", "tick_loop_2vcpu"])
        assert [b.name for b in subset] == ["occupancy_relax", "tick_loop_2vcpu"]

    def test_unknown_names_listed(self):
        with pytest.raises(KeyError, match="nope"):
            benchmarks_named(["nope", "tick_loop_2vcpu"])

    def test_tick_loop_orbit_rides_the_orbit(self):
        """The orbit case runs the period-2 fast-forward, and its check
        repeats on a fresh system."""
        (benchmark,) = benchmarks_named(["tick_loop_orbit"])
        system = benchmark.setup()
        check = benchmark.body(system)
        assert system._batch_engine.orbit_substeps > 0
        assert benchmark.body(benchmark.setup()) == check

    def test_tick_loop_check_is_simulation_exact(self):
        """The benchmark check doubles as a golden: fresh systems agree."""
        (benchmark,) = benchmarks_named(["scenario_materialize"])
        assert benchmark.body(benchmark.setup()) == benchmark.body(
            benchmark.setup()
        )


def document_with(medians):
    return {
        "schema": BENCH_SCHEMA,
        "results": [
            {"name": name, "median_sec": median}
            for name, median in medians.items()
        ],
    }


class TestCompare:
    def test_within_tolerance_ok(self):
        comparisons = compare_documents(
            document_with({"a": 0.11}), document_with({"a": 0.10}), 20.0
        )
        (comparison,) = comparisons
        assert not comparison.regressed
        assert comparison.speedup == pytest.approx(0.10 / 0.11)

    def test_beyond_tolerance_regresses(self):
        (comparison,) = compare_documents(
            document_with({"a": 0.15}), document_with({"a": 0.10}), 20.0
        )
        assert comparison.regressed

    def test_missing_baseline_entry_never_regresses(self):
        (comparison,) = compare_documents(
            document_with({"new": 9.9}), document_with({"old": 0.1}), 0.0
        )
        assert not comparison.in_baseline
        assert not comparison.regressed
        assert comparison.speedup is None

    def test_negative_tolerance_rejected(self):
        with pytest.raises(BenchCompareError):
            compare_documents(document_with({}), document_with({}), -1.0)

    def test_load_baseline_schema_checked(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(BenchCompareError, match="not a"):
            load_baseline(str(bad))
        with pytest.raises(BenchCompareError, match="cannot read"):
            load_baseline(str(tmp_path / "missing.json"))

    def test_format_mentions_regressions(self):
        comparisons = compare_documents(
            document_with({"a": 0.30, "b": 0.05}),
            document_with({"a": 0.10, "b": 0.10}),
            25.0,
        )
        text = format_comparisons(comparisons, 25.0)
        assert "REGRESSED" in text
        assert "1 benchmark(s) regressed" in text

    def test_annotate_embeds_before_after(self):
        document = document_with({"a": 0.05})
        comparisons = compare_documents(
            document, document_with({"a": 0.10}), 10.0
        )
        bench.compare.annotate_document(comparisons=comparisons,
                                        document=document,
                                        baseline_path="BASE.json")
        entry = document["results"][0]
        assert entry["baseline_median_sec"] == 0.1
        assert entry["speedup"] == 2.0
        assert document["baseline"] == "BASE.json"


class TestCli:
    def run(self, *argv):
        args = build_parser().parse_args(["bench", *argv])
        out = io.StringIO()
        code = run_bench(args, out=out)
        return code, out.getvalue()

    def test_list(self):
        code, text = self.run("--list")
        assert code == 0
        for name in benchmark_names():
            assert name in text

    def test_run_writes_document(self, tmp_path):
        path = tmp_path / "out.json"
        code, text = self.run(
            "campaign_fanout", "--repeats", "1", "--warmup", "0",
            "--json", str(path),
        )
        assert code == 0
        document = json.loads(path.read_text())
        assert document["schema"] == BENCH_SCHEMA
        assert [e["name"] for e in document["results"]] == ["campaign_fanout"]

    def test_unknown_benchmark_is_usage_error(self):
        code, _ = self.run("no_such_benchmark")
        assert code == 2

    def test_unreadable_baseline_is_usage_error(self, tmp_path):
        code, _ = self.run(
            "campaign_fanout", "--compare", str(tmp_path / "missing.json")
        )
        assert code == 2

    def test_regression_exits_nonzero(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(
            json.dumps(document_with({"campaign_fanout": 1e-9}))
        )
        code, text = self.run(
            "campaign_fanout", "--repeats", "1", "--warmup", "0",
            "--compare", str(baseline), "--tolerance", "0",
        )
        assert code == 1
        assert "REGRESSED" in text

    def test_generous_baseline_passes(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(
            json.dumps(document_with({"campaign_fanout": 1e6}))
        )
        code, text = self.run(
            "campaign_fanout", "--repeats", "1", "--warmup", "0",
            "--compare", str(baseline), "--tolerance", "10",
        )
        assert code == 0
        assert "no regressions" in text
