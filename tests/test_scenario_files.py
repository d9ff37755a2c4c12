"""File-backed scenarios: registry tokens, campaign fan-out, CLI."""

import io
import json
import pathlib

import pytest

from repro import cli
from repro.cli import main
from repro.experiments import campaign
from repro.experiments.registry import (
    REGISTRY,
    expand_names,
    is_scenario_token,
    resolve,
    scenario_points,
    scenario_spec_of,
)
from repro.scenario import (
    ScenarioError,
    ScenarioSpec,
    VmSpec,
    WorkloadSpec,
    to_dict,
)

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples" / "scenarios"


def _write_json(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _tiny_doc(**extra):
    doc = {
        "schema": "repro.scenario/1",
        "name": "tiny",
        "vms": [{"name": "v", "workload": {"app": "gcc"}}],
        "protocol": {"warmup_ticks": 2, "measure_ticks": 4},
    }
    doc.update(extra)
    return doc


class TestTokens:
    def test_token_detection(self):
        assert is_scenario_token("examples/scenarios/x.toml")
        assert is_scenario_token("x.json#3")
        assert not is_scenario_token("fig01")
        assert not is_scenario_token("x.toml#1#2")

    def test_registry_names_still_resolve(self):
        assert resolve("fig01") is REGISTRY["fig01"]

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            resolve("fig99")

    def test_resolve_file_token(self, tmp_path):
        path = _write_json(tmp_path, _tiny_doc())
        spec = resolve(path)
        assert spec.name == "tiny"
        assert spec.description == f"scenario {path}"

    def test_missing_file_raises_scenario_error(self):
        with pytest.raises(ScenarioError):
            resolve("no/such/file.json")

    def test_sweep_point_selection(self, tmp_path):
        path = _write_json(
            tmp_path, _tiny_doc(sweep={"system.seed": [0, 1, 2]})
        )
        assert scenario_spec_of(f"{path}#2").system.seed == 2
        with pytest.raises(ScenarioError, match="out of range"):
            scenario_spec_of(f"{path}#3")
        with pytest.raises(ScenarioError, match="not an integer"):
            scenario_spec_of(f"{path}#two")
        with pytest.raises(ScenarioError, match="sweep file"):
            scenario_spec_of(path)

    def test_expand_names_expands_sweep_files(self, tmp_path):
        path = _write_json(tmp_path, _tiny_doc(sweep={"system.seed": [0, 1]}))
        known, unknown = expand_names(["fig01", path])
        assert known == ["fig01", f"{path}#0", f"{path}#1"]
        assert unknown == []

    def test_expand_names_keeps_broken_files_for_run_to_report(self, tmp_path):
        path = str(tmp_path / "broken.json")
        pathlib.Path(path).write_text("{not json")
        known, unknown = expand_names([path])
        assert known == [path]
        assert unknown == []

    def test_scenario_points_token_order(self, tmp_path):
        path = _write_json(tmp_path, _tiny_doc(sweep={"system.seed": [0, 1]}))
        tokens = [token for token, _ in scenario_points(path)]
        assert tokens == [f"{path}#0", f"{path}#1"]


class TestCampaign:
    def test_run_one_scenario_token(self, tmp_path):
        path = _write_json(tmp_path, _tiny_doc())
        artifact = campaign.run_one(path)
        assert artifact["ok"], artifact["error"]
        assert artifact["name"] == "tiny"
        assert "ipc" in artifact["report"]

    def test_run_one_unloadable_file_fails_cleanly(self, tmp_path):
        path = str(tmp_path / "nope.toml")
        artifact = campaign.run_one(path)
        assert not artifact["ok"]
        assert artifact["name"] == path
        assert "ScenarioError" in artifact["error"]

    def test_campaign_mixes_registry_and_files(self, tmp_path):
        path = _write_json(tmp_path, _tiny_doc(sweep={"system.seed": [0, 1]}))
        out = io.StringIO()
        known, unknown = expand_names([path])
        assert unknown == []
        code = campaign.run_campaign(
            known, json_dir=str(tmp_path / "art"), out=out
        )
        assert code == 0
        written = sorted(p.name for p in (tmp_path / "art").iterdir())
        assert written == [
            "tiny@system.seed=0.json",
            "tiny@system.seed=1.json",
        ]
        summary = campaign.aggregate_dir(str(tmp_path / "art"))
        assert summary["num_experiments"] == 2
        assert summary["num_failed"] == 0

    def test_artifact_filename_sanitizes_paths(self):
        # A sanitized name carries a short content hash so distinct
        # tokens can never collide on the same artifact file.
        assert (
            campaign.artifact_filename("a/b.toml#1")
            == "a_b.toml_1-3f117ee6.json"
        )
        assert (
            campaign.artifact_filename("tiny@system.seed=1")
            == "tiny@system.seed=1.json"
        )


class TestCli:
    def test_run_accepts_scenario_path(self, tmp_path):
        path = _write_json(tmp_path, _tiny_doc())
        out = io.StringIO()
        assert cli.run_experiments([path], out=out) == 0
        assert "tiny" in out.getvalue()

    def test_scenario_validate_ok_and_invalid(self, tmp_path):
        good = _write_json(tmp_path, _tiny_doc(), "good.json")
        bad = _write_json(tmp_path, _tiny_doc(vms=[]), "bad.json")
        out = io.StringIO()
        assert cli.validate_scenarios([good], out=out) == 0
        assert cli.validate_scenarios([good, bad], out=out) == 2
        captured = out.getvalue()
        assert "good.json: OK" in captured
        assert "bad.json: INVALID" in captured
        assert "at least one VM" in captured

    def test_scenario_validate_rejects_unrepresentable_numbers(self, tmp_path):
        nan_doc = _tiny_doc(
            scheduler={"kind": "ks4xen", "quota_max_factor": float("inf")},
            vms=[{"name": "v", "workload": {"app": "gcc"},
                  "llc_cap": float("nan")}],
        )
        nan = _write_json(tmp_path, nan_doc, "nan.json")
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(_tiny_doc()).replace(
            '"workload"', f'"llc_cap": {10**400}, "workload"'
        ))
        out = io.StringIO()
        assert cli.validate_scenarios([nan, str(huge)], out=out) == 2
        captured = out.getvalue()
        assert "nan.json: INVALID" in captured
        assert "scheduler.quota_max_factor: must be a finite number" in captured
        assert "vms[0].llc_cap: must be a finite number, got nan" in captured
        assert "huge.json: INVALID" in captured
        assert "vms[0].llc_cap: integer is too large for a float" in captured

    def test_scenario_show_json_is_lossless(self, tmp_path):
        path = _write_json(tmp_path, _tiny_doc())
        out = io.StringIO()
        assert cli.show_scenario(path, "json", out=out) == 0
        shown = json.loads(out.getvalue())
        spec = ScenarioSpec(
            name="tiny",
            vms=(VmSpec(name="v", workload=WorkloadSpec(app="gcc")),),
        )
        assert shown["name"] == "tiny"
        assert shown["vms"] == to_dict(spec)["vms"]

    def test_scenario_show_toml(self, tmp_path):
        path = _write_json(tmp_path, _tiny_doc())
        out = io.StringIO()
        assert cli.show_scenario(path, "toml", out=out) == 0
        assert 'schema = "repro.scenario/1"' in out.getvalue()
        assert "[[vms]]" in out.getvalue()

    def test_scenario_list(self, tmp_path):
        _write_json(tmp_path, _tiny_doc(description="a tiny scenario"))
        _write_json(
            tmp_path, _tiny_doc(sweep={"system.seed": [0, 1]}), "sweep.json"
        )
        (tmp_path / "broken.toml").write_text("= nonsense")
        out = io.StringIO()
        assert cli.list_scenarios(str(tmp_path), out=out) == 0
        captured = out.getvalue()
        assert "a tiny scenario" in captured
        assert "[2 sweep points]" in captured
        assert "INVALID" in captured

    def test_scenario_list_missing_directory(self, tmp_path):
        assert cli.list_scenarios(str(tmp_path / "ghost")) == 2

    def test_scenario_run_writes_artifacts(self, tmp_path):
        path = _write_json(tmp_path, _tiny_doc())
        art = tmp_path / "art"
        assert main(["run", path, "--json", str(art)]) == 0
        artifact = json.loads((art / "tiny.json").read_text())
        assert artifact["schema"] == "repro.artifact/1"
        assert artifact["ok"]


class TestCommittedExamples:
    """Every committed example stays loadable and valid."""

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES_DIR.glob("*.toml"), key=str)
    )
    def test_example_validates(self, path):
        pytest.importorskip("tomllib")
        points = scenario_points(str(path))
        assert points
        for _, spec in points:
            assert spec.schema == "repro.scenario/1"

    def test_examples_exist(self):
        assert len(list(EXAMPLES_DIR.glob("*.toml"))) >= 3
