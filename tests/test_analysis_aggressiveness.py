"""Tests for the aggressiveness campaign's co-run sharing (Figs 3 and 4).

One two-VM co-run measures both VMs, so the campaign runs each unordered
pair once.  These tests pin the symmetry that makes that exact, and the
number of systems each driver builds.
"""

import pytest

from repro.analysis import aggressiveness
from repro.analysis.aggressiveness import (
    CampaignConfig,
    _co_run_ipcs,
    run_campaign,
    run_pair_degradation,
)
from repro.analysis.metrics import degradation_percent
from repro.experiments import fig03
from repro.scenario.materialize import materialize
from repro.scenario.spec import (
    MachineSpecChoice,
    ScenarioSpec,
    VmSpec,
    WorkloadSpec,
)
from repro.workloads.profiles import SENSITIVE_APPS

SHORT = CampaignConfig(warmup_ticks=5, measure_ticks=15)
PAIRS = [("lbm", "gcc"), ("blockie", "astar"), ("mcf", "soplex")]


def _counting(monkeypatch, module):
    """Wrap ``module.materialize`` and return the list of built specs."""
    built = []
    real = module.materialize

    def wrapper(spec, *args, **kwargs):
        built.append(spec)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(module, "materialize", wrapper)
    return built


def _victim_only_reset_ipc(aggressor, victim, config):
    """The pre-sharing protocol: reset and read only the core-0 victim."""
    built = materialize(
        ScenarioSpec(
            name=f"aggressiveness-{aggressor}-vs-{victim}",
            machine=MachineSpecChoice(preset=config.machine_preset),
            vms=(
                VmSpec(name=victim, workload=WorkloadSpec(app=victim),
                       pinned_cores=(0,)),
                VmSpec(name=aggressor, workload=WorkloadSpec(app=aggressor),
                       pinned_cores=(1,)),
            ),
        )
    )
    vm = built.vm(victim)
    built.system.run_ticks(config.warmup_ticks)
    vm.reset_metrics()
    built.system.run_ticks(config.measure_ticks)
    return vm.vcpus[0].ipc


class TestCoRunSymmetry:
    @pytest.mark.parametrize("aggressor,victim", PAIRS)
    def test_core1_ipc_equals_role_swapped_victim_ipc(self, aggressor, victim):
        # victim on core 1 here; on core 0 in run_pair_degradation's run.
        cross = _co_run_ipcs(aggressor, victim, SHORT)[victim]
        swapped = _co_run_ipcs(victim, aggressor, SHORT)[victim]
        assert cross == swapped
        assert degradation_percent(1.0, cross) == run_pair_degradation(
            aggressor, victim, 1.0, SHORT
        )

    @pytest.mark.parametrize("aggressor,victim", PAIRS)
    def test_resetting_aggressor_leaves_victim_ipc_unchanged(
        self, aggressor, victim
    ):
        both_reset = _co_run_ipcs(victim, aggressor, SHORT)[victim]
        assert both_reset == _victim_only_reset_ipc(aggressor, victim, SHORT)


class TestCampaign:
    APPS = ["astar", "gcc", "lbm", "soplex"]

    def test_one_co_run_per_unordered_pair(self, monkeypatch):
        built = _counting(monkeypatch, aggressiveness)
        run_campaign(self.APPS, SHORT)
        assert len(built) == 4 + 6
        assert len({spec.name for spec in built}) == len(built)

    def test_victims_listed_in_apps_order(self):
        reports = run_campaign(self.APPS, SHORT)
        assert list(reports) == self.APPS
        for app, report in reports.items():
            assert list(report.degradation_caused) == [
                other for other in self.APPS if other != app
            ]

    def test_matches_pairwise_runs(self):
        apps = ["gcc", "lbm", "mcf"]
        reports = run_campaign(apps, SHORT)
        for aggressor in apps:
            for victim in apps:
                if victim != aggressor:
                    assert reports[aggressor].degradation_caused[
                        victim
                    ] == run_pair_degradation(
                        aggressor, victim, reports[victim].solo.ipc, SHORT
                    )

    def test_duplicate_apps_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(["lbm", "gcc", "lbm"], SHORT)


class TestFig03Runs:
    def test_cap0_reuses_solo_run(self, monkeypatch):
        built = _counting(monkeypatch, fig03)
        caps = (0, 100)
        result = fig03.run(caps=caps, warmup_ticks=5, measure_ticks=15)
        assert len(built) == len(caps) * len(SENSITIVE_APPS)
        for series in result.degradation.values():
            assert series[0] == 0.0

    def test_caps_without_zero_get_one_solo_run(self, monkeypatch):
        built = _counting(monkeypatch, fig03)
        caps = (50, 100)
        result = fig03.run(caps=caps, warmup_ticks=5, measure_ticks=15)
        assert len(built) == (len(caps) + 1) * len(SENSITIVE_APPS)
        with_zero = fig03.run(caps=(0, 100), warmup_ticks=5, measure_ticks=15)
        for vsen, series in result.degradation.items():
            assert series[1] == with_zero.degradation[vsen][1]
