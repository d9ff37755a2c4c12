"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import EXPERIMENTS, build_parser, list_experiments, run_experiments
from repro.experiments.registry import experiment_names


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "fig05", "table1"])
        assert args.experiments == ["fig05", "table1"]
        assert args.jobs == 1
        assert args.json_dir is None

    def test_run_command_jobs_and_json(self):
        args = build_parser().parse_args(
            ["run", "fig02", "--jobs", "4", "--json", "out"]
        )
        assert args.jobs == 4
        assert args.json_dir == "out"

    def test_campaign_command(self):
        args = build_parser().parse_args(
            ["campaign", "artifacts", "--output", "summary.json"]
        )
        assert args.command == "campaign"
        assert args.artifact_dir == "artifacts"
        assert args.output == "summary.json"

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestListing:
    def test_all_figures_and_tables_present(self):
        expected = {f"fig{i:02d}" for i in range(1, 13)} | {"table1", "table2"}
        # ``chaos`` and the ablations are runnable by name but not part
        # of ``run all``.
        extras = {"chaos"} | {
            f"abl-{n}" for n in ("quota", "period", "policy", "model", "enforce")
        }
        assert set(EXPERIMENTS) == expected | extras

    def test_listing_mentions_everything(self):
        text = list_experiments()
        for name in EXPERIMENTS:
            assert name in text

    def test_listing_says_what_all_leaves_out(self):
        all_line = list_experiments().splitlines()[-1]
        assert all_line.split()[0] == "all"
        for name in EXPERIMENTS:
            assert (name in all_line) == (name not in experiment_names()), name

    def test_listing_columns_align(self):
        """Descriptions start in one column, however long the names."""
        rows = list_experiments().splitlines()[1:]
        starts = {len(row) - len(row.split(None, 1)[1]) for row in rows}
        assert len(starts) == 1, rows


class TestRunning:
    def test_run_table1(self):
        out = io.StringIO()
        code = run_experiments(["table1"], out=out)
        assert code == 0
        assert "8096 MB" in out.getvalue()

    def test_run_multiple(self):
        out = io.StringIO()
        code = run_experiments(["table1", "table2"], out=out)
        assert code == 0
        assert "vdis2" in out.getvalue()

    def test_unknown_experiment(self):
        out = io.StringIO()
        code = run_experiments(["fig99"], out=out)
        assert code == 2
        assert "unknown experiment" in out.getvalue()

    def test_run_fig07(self):
        out = io.StringIO()
        assert run_experiments(["fig07"], out=out) == 0
        assert "Pisces" in out.getvalue()
