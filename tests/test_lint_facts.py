"""Phase-1 fact extraction, the on-disk facts cache, and CLI plumbing."""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

from repro.lint import Program, analyze_paths, extract_facts
from repro.lint.callgraph import CallGraph

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def facts_of(source: str, path: str = "repro/demo.py"):
    return extract_facts(ast.parse(source), source, path)


# -- extraction ---------------------------------------------------------------


def test_module_identity_and_defines():
    facts = facts_of(
        "import json\n\n\ndef top():\n    return json.dumps({})\n\n\n"
        "class Thing:\n    def method(self):\n        return top()\n",
        path="repro/experiments/demo.py",
    )
    assert facts.module == "repro.experiments.demo"
    assert set(facts.defines) == {"top", "Thing"}
    assert facts.functions["top"]["nested"] is False
    assert facts.functions["Thing.method"]["name"] == "method"
    callers = {c["caller"] for c in facts.calls}
    assert "Thing.method" in callers


def test_rng_telemetry_schema_and_worker_sites():
    facts = facts_of(
        "import multiprocessing\n"
        'DEMO_SCHEMA = "repro.demofam/4"\n'
        "_REGISTRY = {}\n"
        "\n\n"
        "def work(host_rng, recorder, pool, seed):\n"
        '    host_rng.stream("perf")\n'
        '    recorder.inc("demo.count")\n'
        "    value = recorder.counters.get(\"demo.count\")\n"
        "    pool.imap(work, [seed])\n"
        "    _REGISTRY[seed] = value\n"
    )
    (rng_site,) = facts.rng_sites
    assert rng_site["name"] == "perf" and rng_site["dynamic"] is False
    (write,) = facts.telemetry_writes
    assert write == {**write, "kind": "counter", "name": "demo.count"}
    (read,) = facts.telemetry_reads
    assert read["kind"] == "counter" and read["name"] == "demo.count"
    (schema,) = facts.schema_sites
    assert schema["family"] == "repro.demofam" and schema["version"] == 4
    assert schema["scope"] == "<module>"
    (worker,) = facts.worker_sites
    assert worker["api"] == "imap" and worker["func_parts"] == ["work"]
    assert facts.str_constants["DEMO_SCHEMA"] == "repro.demofam/4"
    assert "_REGISTRY" in facts.mutable_globals
    assert facts.functions["work"]["mutates"] == ["_REGISTRY"]


def test_global_rebinding_recorded_per_function():
    facts = facts_of(
        "_current = None\n\n\ndef install(value):\n"
        "    global _current\n    _current = value\n"
    )
    assert facts.functions["install"]["global_writes"] == ["_current"]


def test_facts_round_trip_through_json():
    facts = facts_of(
        'def f(host_rng):\n    return host_rng.stream("x")\n'
    )
    from repro.lint import ModuleFacts

    clone = ModuleFacts.from_dict(
        json.loads(json.dumps(facts.to_dict()))
    )
    assert clone.to_dict() == facts.to_dict()


def test_callgraph_resolves_relative_from_imports():
    pkg_a = facts_of(
        "from .other import leaf\n\n\ndef entry():\n    return leaf()\n",
        path="repro/demo/main.py",
    )
    pkg_b = facts_of(
        "def leaf():\n    return 1\n", path="repro/demo/other.py"
    )
    graph = CallGraph(Program([pkg_a, pkg_b]))
    reached = graph.reachable("repro.demo.main:entry")
    assert "repro.demo.other:leaf" in reached


def test_callgraph_follows_function_local_driver_imports():
    # The registry imports each driver inside its runner, so the edge
    # runner -> driver.run comes from a function-local ``from . import``.
    modules = [
        facts_of(
            (REPO / "src" / "repro" / "experiments" / f"{name}.py").read_text(
                encoding="utf-8"
            ),
            path=f"repro/experiments/{name}.py",
        )
        for name in ("registry", "chaos", "fig01")
    ]
    graph = CallGraph(Program(modules))
    for runner, driver in (("chaos_report", "chaos"), ("fig01_report", "fig01")):
        reached = graph.reachable(f"repro.experiments.registry:{runner}")
        assert f"repro.experiments.{driver}:run" in reached, runner


# -- on-disk facts cache ------------------------------------------------------


def _sentinel_record():
    return {
        "rule": "Z999",
        "path": "sentinel.py",
        "line": 1,
        "col": 0,
        "message": "served from the on-disk cache",
        "severity": "warning",
        "baselined": False,
        "line_hash": "",
        "end_line": 1,
    }


def test_disk_cache_hit_and_content_invalidation(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("import random\nx = random.random()\n")
    cache = tmp_path / "cache.json"

    first = analyze_paths([str(tmp_path)], cache_path=str(cache))
    assert [f.rule_id for f in first] == ["D001"]
    payload = json.loads(cache.read_text())
    assert payload["schema"] == "kyotolint.facts-cache/1"

    # Plant a sentinel finding inside the cached entry: if the next run
    # reports it, the result came from the cache, not a re-analysis.
    (entry,) = payload["files"].values()
    entry["findings"].append(_sentinel_record())
    cache.write_text(json.dumps(payload))
    cached = analyze_paths([str(tmp_path)], cache_path=str(cache))
    assert "Z999" in [f.rule_id for f in cached]

    # Changing the file's content must invalidate its entry.
    target.write_text("import random\ny = random.random()\n")
    fresh = analyze_paths([str(tmp_path)], cache_path=str(cache))
    assert "Z999" not in [f.rule_id for f in fresh]
    assert [f.rule_id for f in fresh] == ["D001"]


def test_disk_cache_rules_version_bump_invalidates(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("import random\nx = random.random()\n")
    cache = tmp_path / "cache.json"
    analyze_paths([str(tmp_path)], cache_path=str(cache))

    payload = json.loads(cache.read_text())
    (entry,) = payload["files"].values()
    entry["findings"].append(_sentinel_record())
    payload["rules_version"] = "0.0-stale"
    cache.write_text(json.dumps(payload))

    findings = analyze_paths([str(tmp_path)], cache_path=str(cache))
    assert "Z999" not in [f.rule_id for f in findings]
    # The cache file is rewritten under the current version.
    assert json.loads(cache.read_text())["rules_version"] != "0.0-stale"


def test_corrupt_cache_is_ignored(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("import random\nx = random.random()\n")
    cache = tmp_path / "cache.json"
    cache.write_text("{not json")
    findings = analyze_paths([str(tmp_path)], cache_path=str(cache))
    assert [f.rule_id for f in findings] == ["D001"]


# -- CLI: determinism, rule listing, warn tier --------------------------------


def _run_lint_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
    )


def test_parallel_json_runs_are_byte_identical():
    args = (str(FIXTURES), "--jobs", "4", "--format", "json")
    first = _run_lint_cli(*args)
    second = _run_lint_cli(*args)
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["summary"]["total"] > 0


def test_rules_listing_includes_program_families():
    result = _run_lint_cli("--rules")
    assert result.returncode == 0
    for rule_id in ("D001", "U003", "S001", "C002", "T001", "T002"):
        assert rule_id in result.stdout
    assert "whole-program rules (phase 2):" in result.stdout


def test_warn_only_demotes_everything():
    result = _run_lint_cli(str(FIXTURES / "s001"), "--warn-only")
    assert result.returncode == 0
    assert "S001 warning" in result.stdout
