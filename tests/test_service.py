"""The churn-driven service mode (docs/service.md).

Covers the whole stack the service rides on: the churn generator's
determinism and distributions, admission policies, the service loop's
admit/run/retire cycle and summary, the hypervisor's dynamic-lifecycle
primitives (``admit_vm`` / ``retire_vm`` / ``vm_by_name``), telemetry
compaction at retire, Kyoto settlement at retire, the ``[service]``
scenario wiring, and the ``repro serve`` CLI.
"""

from __future__ import annotations

import argparse
import io
import json
import random

import pytest

from repro.cli import build_parser, run_serve
from repro.core.engine import KyotoEngine
from repro.core.ks4linux import KS4Linux
from repro.core.ks4rtds import KS4RTDS
from repro.core.ks4xen import KS4Xen
from repro.hypervisor.system import HypervisorError, VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.pisces.ks4pisces import KS4Pisces
from repro.scenario import ScenarioError, from_dict, loads_json, materialize
from repro.schedulers.credit import CreditScheduler
from repro.service import (
    CapacityCapAdmission,
    ChurnGenerator,
    NaiveAdmission,
    PermitBudgetAdmission,
    SERVICE_SCHEMA,
    ServiceLoop,
    VmTemplate,
)
from repro.telemetry import (
    RETIRED_SERIES_COUNTER,
    MetricsRecorder,
    recording,
)
from repro.workloads.base import Workload
from repro.workloads.profiles import application_workload

from conftest import make_vm


def _generator(seed=7, **kwargs):
    return ChurnGenerator(
        random.Random(seed), random.Random(seed + 1), **kwargs
    )


def _template(name="tpl", app="gcc", **kwargs):
    return VmTemplate(
        name=name, make_workload=lambda: application_workload(app), **kwargs
    )


# -- churn generator ----------------------------------------------------------

class TestChurnGenerator:
    def test_deterministic_given_seeds(self):
        draws = [
            (
                [_generator().arrivals_at(t) for t in range(200)],
                [_generator().draw_lifetime_ticks() for _ in range(50)],
            )
            for _ in range(2)
        ]
        assert draws[0] == draws[1]

    def test_poisson_mean_tracks_rate(self):
        gen = _generator(rate_per_tick=0.5)
        total = sum(gen.arrivals_at(t) for t in range(20_000))
        assert total == pytest.approx(10_000, rel=0.05)

    def test_zero_rate_produces_nothing(self):
        gen = _generator(rate_per_tick=0.0)
        assert all(gen.arrivals_at(t) == 0 for t in range(100))

    def test_bursts_add_batches(self):
        quiet = _generator(rate_per_tick=0.0)
        bursty = _generator(
            process="bursty",
            rate_per_tick=0.0,
            burst_probability=0.2,
            burst_size=5,
        )
        counts = [bursty.arrivals_at(t) for t in range(5_000)]
        assert all(quiet.arrivals_at(t) == 0 for t in range(100))
        assert set(counts) == {0, 5}
        burst_rate = sum(1 for c in counts if c) / len(counts)
        assert burst_rate == pytest.approx(0.2, rel=0.2)

    def test_diurnal_modulation_swings_the_rate(self):
        gen = _generator(
            rate_per_tick=0.1,
            diurnal_amplitude=1.0,
            diurnal_period_ticks=1_000,
        )
        assert gen.rate_at(0) == pytest.approx(0.1)
        assert gen.rate_at(250) == pytest.approx(0.2)  # peak of sin
        assert gen.rate_at(750) == pytest.approx(0.0, abs=1e-12)  # trough

    def test_lifetime_means(self):
        n = 20_000
        exp = _generator(lifetime_kind="exponential", lifetime_mean_ticks=500.0)
        logn = _generator(
            lifetime_kind="lognormal",
            lifetime_mean_ticks=500.0,
            lifetime_sigma=0.8,
        )
        fixed = _generator(lifetime_kind="fixed", lifetime_mean_ticks=500.0)
        for gen in (exp, logn):
            mean = sum(gen.draw_lifetime_ticks() for _ in range(n)) / n
            assert mean == pytest.approx(500.0, rel=0.1)
        assert fixed.draw_lifetime_ticks() == 500

    def test_lifetimes_floored_at_one_tick(self):
        gen = _generator(lifetime_kind="fixed", lifetime_mean_ticks=0.001)
        assert gen.draw_lifetime_ticks() == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"process": "weibull"},
            {"lifetime_kind": "pareto"},
            {"rate_per_tick": -0.1},
            {"burst_probability": 1.5},
            {"burst_size": 0},
            {"diurnal_amplitude": 2.0},
            {"diurnal_amplitude": 0.5, "diurnal_period_ticks": 0},
            {"lifetime_mean_ticks": 0.0},
            {"lifetime_kind": "lognormal", "lifetime_sigma": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            _generator(**bad)


# -- admission ----------------------------------------------------------------

class TestAdmission:
    def test_naive_admits_everything(self):
        system = VirtualizedSystem(CreditScheduler())
        config = _template().config("vm")
        assert NaiveAdmission().admits(system, config)

    def test_capacity_counts_live_vcpus(self):
        system = VirtualizedSystem(CreditScheduler())
        policy = CapacityCapAdmission(max_vcpus=2)
        assert policy.admits(system, _template(num_vcpus=2).config("a"))
        make_vm(system, "a")
        assert policy.admits(system, _template().config("b"))
        assert not policy.admits(system, _template(num_vcpus=2).config("c"))
        vm = make_vm(system, "b", core=1)
        assert not policy.admits(system, _template().config("d"))
        system.retire_vm(vm)  # capacity frees up at retire
        assert policy.admits(system, _template().config("d"))

    def test_permit_budget_counts_booked_caps(self):
        system = VirtualizedSystem(CreditScheduler())
        policy = PermitBudgetAdmission(llc_budget=500_000.0)
        make_vm(system, "a", llc_cap=250_000.0)
        assert policy.admits(
            system, _template(llc_cap=250_000.0).config("b")
        )
        make_vm(system, "b", core=1, llc_cap=250_000.0)
        assert not policy.admits(
            system, _template(llc_cap=1.0).config("c")
        )
        # Unmanaged VMs consume no budget.
        assert policy.admits(system, _template().config("c"))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CapacityCapAdmission(max_vcpus=0)
        with pytest.raises(ValueError):
            PermitBudgetAdmission(llc_budget=0.0)


# -- hypervisor lifecycle -----------------------------------------------------

class TestDynamicLifecycle:
    def test_admit_assigns_monotonic_ids(self):
        system = VirtualizedSystem(CreditScheduler())
        a = make_vm(system, "a")
        b = system.admit_vm(_template().config("b"))
        system.retire_vm(a)
        c = system.admit_vm(_template().config("c"))
        assert (a.vm_id, b.vm_id, c.vm_id) == (0, 1, 2)
        # gids are never reused either: a stale reference cannot alias.
        assert c.vcpus[0].gid > b.vcpus[0].gid > a.vcpus[0].gid

    def test_duplicate_name_rejected_until_retired(self):
        system = VirtualizedSystem(CreditScheduler())
        vm = make_vm(system, "dup")
        with pytest.raises(HypervisorError, match="named 'dup'"):
            system.admit_vm(_template().config("dup"))
        system.retire_vm(vm)
        system.admit_vm(_template().config("dup"))  # name free again

    def test_vm_by_name_lookup(self):
        system = VirtualizedSystem(CreditScheduler())
        vm = make_vm(system, "target")
        assert system.vm_by_name("target") is vm
        with pytest.raises(HypervisorError, match="no VM named 'ghost'"):
            system.vm_by_name("ghost")
        system.retire_vm(vm)
        with pytest.raises(HypervisorError, match="no VM named 'target'"):
            system.vm_by_name("target")

    def test_retire_unknown_vm_rejected(self):
        system = VirtualizedSystem(CreditScheduler())
        vm = make_vm(system, "once")
        system.retire_vm(vm)
        with pytest.raises(HypervisorError):
            system.retire_vm(vm)

    def test_retire_mid_run_releases_everything(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            system = VirtualizedSystem(CreditScheduler())
        doomed = make_vm(system, "doomed", app="lbm", core=0)
        keeper = make_vm(system, "keeper", app="gcc", core=1)
        system.run_ticks(10)
        gid = doomed.vcpus[0].gid
        assert system.occupancy_of(doomed.vcpus[0]) > 0.0
        system.retire_vm(doomed)
        for domain in system.llc_domains:
            assert domain.occupancy_of(gid) == 0.0
        assert doomed not in system.vms
        assert all(vcpu.gid != gid for vcpu in system.vcpus)
        assert gid not in system.scheduler._vcpu_by_gid
        system.run_ticks(10)  # the survivor keeps running fine
        assert keeper.vcpus[0].cycles_run > 0
        assert recorder.counters["service.vms_retired"] == 1.0

    def test_retired_vcpu_never_dispatched_again(self):
        system = VirtualizedSystem(CreditScheduler())
        vm = make_vm(system, "gone")  # pinned to core 0
        system.run_ticks(3)
        system.retire_vm(vm)
        dispatched = []
        system.add_tick_observer(
            lambda s, tick: dispatched.extend(
                core.running.gid
                for core in s.machine.cores
                if core.running is not None
            )
        )
        system.run_ticks(5)
        assert vm.vcpus[0].gid not in dispatched

    def test_run_until_finished_names_offending_workloads(self):
        system = VirtualizedSystem(CreditScheduler())
        make_vm(system, "infinite", app="gcc")
        with pytest.raises(HypervisorError) as err:
            system.run_until_finished()
        assert "infinite" in str(err.value)
        assert "Workload" in str(err.value)

    def test_run_until_finished_empty_system_message(self):
        system = VirtualizedSystem(CreditScheduler())
        with pytest.raises(HypervisorError, match="no VMs"):
            system.run_until_finished()


# -- telemetry compaction -----------------------------------------------------

class TestRetiredSeriesCompaction:
    def test_retire_compacts_per_vm_series(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            system = VirtualizedSystem(CreditScheduler())
        recorder.record("kyoto.quota.doomed", 0, 1.0)
        recorder.record("kyoto.quota.doomed.raw", 0, 1.0)
        recorder.record("kyoto.quota.doomed2", 0, 1.0)
        vm = make_vm(system, "doomed")
        system.retire_vm(vm)
        assert recorder.series("kyoto.quota.doomed") is None
        assert recorder.series("kyoto.quota.doomed.raw") is None
        # Dot-boundary matching: "doomed2" is a different VM's series.
        assert recorder.series("kyoto.quota.doomed2") is not None
        assert recorder.counters[RETIRED_SERIES_COUNTER] == 2.0

    def test_compaction_counter_absent_when_nothing_recorded(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            system = VirtualizedSystem(CreditScheduler())
        system.retire_vm(make_vm(system, "quiet"))
        assert RETIRED_SERIES_COUNTER not in recorder.counters


# -- Kyoto settlement ---------------------------------------------------------

class TestKyotoSettlementAtRetire:
    def test_retire_debits_final_sample(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            system = VirtualizedSystem(CreditScheduler())
            engine = KyotoEngine(system)
        vm = make_vm(system, "managed", app="lbm", llc_cap=1_000.0)
        account = engine.register_vm(vm)
        system.run_ticks(5)
        debited_before = account.total_debited
        engine.retire_vm(vm)
        assert account.total_debited > debited_before  # final debit landed
        assert engine.account_of(vm) is None
        assert recorder.counters["kyoto.settlement_debits"] == 1.0
        assert recorder.counters["kyoto.accounts_retired"] == 1.0

    def test_retire_never_ran_vm_skips_debit(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            system = VirtualizedSystem(CreditScheduler())
            engine = KyotoEngine(system)
        vm = make_vm(system, "idle", llc_cap=1_000.0)
        account = engine.register_vm(vm)
        engine.retire_vm(vm)
        assert account.total_debited == 0.0  # untouched
        assert "kyoto.settlement_debits" not in recorder.counters

    def test_unmanaged_vm_retires_cleanly(self):
        system = VirtualizedSystem(CreditScheduler())
        engine = KyotoEngine(system)
        vm = make_vm(system, "besteffort")
        engine.retire_vm(vm)  # no account, no error

    @pytest.mark.parametrize(
        "scheduler_cls",
        [KS4Xen, KS4Linux, KS4RTDS, KS4Pisces],
        ids=lambda cls: cls.name,
    )
    def test_system_retire_settles_via_scheduler_hook(self, scheduler_cls):
        """Every Kyoto port settles a retiring VM's permit through the
        shared mixin's ``on_vm_retiring`` hook."""
        recorder = MetricsRecorder()
        with recording(recorder):
            system = VirtualizedSystem(scheduler_cls())
        vm = make_vm(system, "managed", app="lbm", llc_cap=1_000.0)
        system.run_ticks(5)
        system.retire_vm(vm)
        assert system.scheduler.kyoto.account_of(vm) is None
        assert recorder.counters["kyoto.accounts_retired"] == 1.0


# -- the service loop ---------------------------------------------------------

def _loop(system, *, rate=0.05, templates=None, admission=None, **kwargs):
    churn = ChurnGenerator(
        random.Random(3),
        random.Random(4),
        rate_per_tick=rate,
        lifetime_kind="fixed",
        lifetime_mean_ticks=kwargs.pop("lifetime", 50.0),
    )
    return ServiceLoop(
        system,
        churn,
        admission if admission is not None else NaiveAdmission(),
        templates if templates is not None else [_template()],
        random.Random(5),
        **kwargs,
    )


class TestServiceLoop:
    def test_soak_admits_and_retires(self):
        system = VirtualizedSystem(CreditScheduler())
        loop = _loop(system)
        summary = loop.run(2_000)
        assert summary["schema"] == SERVICE_SCHEMA
        assert summary["ticks_run"] == 2_000
        assert summary["admitted"] > 0
        assert summary["retired"] > 0
        assert summary["final_live_vms"] == 0  # drained
        assert summary["admitted"] == (
            summary["retired"] + summary["drained"]
        )

    def test_drain_disabled_leaves_fleet_live(self):
        system = VirtualizedSystem(CreditScheduler())
        loop = _loop(system, drain_at_end=False)
        summary = loop.run(1_000)
        assert summary["final_live_vms"] == len(system.vms)
        assert summary["final_live_vm_names"] == sorted(
            vm.name for vm in system.vms
        )

    def test_fixed_lifetimes_respected(self):
        system = VirtualizedSystem(CreditScheduler())
        loop = _loop(system, rate=0.2, lifetime=10.0, drain_at_end=False)
        loop.run(500)
        # No VM outlives its fixed 10-tick lease by a full cycle.
        for vm in system.vms:
            assert loop._expiry[vm.vm_id] > system.tick_index - 1

    def test_rejections_counted_not_admitted(self):
        recorder = MetricsRecorder()
        with recording(recorder):
            system = VirtualizedSystem(CreditScheduler())
        loop = _loop(
            system,
            rate=0.5,
            lifetime=1_000.0,
            admission=CapacityCapAdmission(max_vcpus=2),
        )
        summary = loop.run(300)
        assert summary["rejected"] > 0
        assert summary["peak_live_vms"] <= 2
        assert recorder.counters["service.vms_rejected"] == summary["rejected"]

    def test_finished_workloads_retire_early(self):
        system = VirtualizedSystem(CreditScheduler())
        tiny = VmTemplate(
            name="tiny",
            make_workload=lambda: Workload(
                name="tiny",
                behavior=application_workload("gcc").behavior,
                total_instructions=1e6,
            ),
        )
        loop = _loop(system, rate=0.05, lifetime=100_000.0, templates=[tiny])
        summary = loop.run(1_500)
        assert summary["retired"] > 0  # finished, not expired

    def test_stop_when_idle_ends_early(self):
        system = VirtualizedSystem(CreditScheduler())
        loop = _loop(system, rate=0.0, stop_when_idle=True)
        summary = loop.run(10_000)
        assert summary["ticks_run"] == 0  # empty + quiescent at tick 0

    def test_static_fleet_churns_alongside(self):
        system = VirtualizedSystem(CreditScheduler())
        static = make_vm(system, "static")
        loop = _loop(system, rate=0.05)
        loop.run(500)
        assert static not in system.vms  # drained with everyone else

    def test_template_mix_draws_from_injected_stream(self):
        system = VirtualizedSystem(CreditScheduler())
        loop = _loop(
            system,
            rate=0.2,
            templates=[_template("alpha"), _template("beta", app="lbm")],
            drain_at_end=False,
        )
        loop.run(400)
        prefixes = {vm.name.split("-s")[0] for vm in system.vms}
        assert prefixes <= {"alpha", "beta"}

    def test_bounded_memory_over_long_soak(self):
        """The leak check: a soak's recorder state is bounded by the
        *live* fleet, not by every VM that ever existed."""
        recorder = MetricsRecorder(max_series_points=128)
        with recording(recorder):
            system = VirtualizedSystem(CreditScheduler())

        def observe(s, tick):
            for vm in s.vms:
                recorder.record(f"kyoto.quota.{vm.name}", tick, 1.0)

        system.add_tick_observer(observe)
        loop = _loop(system, rate=0.1, lifetime=20.0)
        summary = loop.run(2_000)
        assert summary["admitted"] > 50
        per_vm = [
            name
            for name in recorder.series_names()
            if name.startswith("kyoto.quota.")
        ]
        assert len(per_vm) == 0  # every retired VM's series compacted
        assert (
            recorder.counters[RETIRED_SERIES_COUNTER]
            == summary["retired"] + summary["drained"]
        )

    def test_run_rejects_negative_ticks(self):
        system = VirtualizedSystem(CreditScheduler())
        with pytest.raises(ValueError):
            _loop(system).run(-1)

    def test_needs_templates(self):
        system = VirtualizedSystem(CreditScheduler())
        with pytest.raises(ValueError):
            _loop(system, templates=[])


# -- scenario wiring ----------------------------------------------------------

SERVICE_DOC = {
    "name": "svc",
    "scheduler": {"kind": "ks4xen"},
    "service": {
        "arrivals": {"rate_per_tick": 0.05},
        "lifetime": {"kind": "fixed", "mean_ticks": 40.0},
        "admission": {"policy": "capacity", "max_vcpus": 3},
        "templates": [
            {
                "name": "web",
                "llc_cap": 250000.0,
                "workload": {"app": "gcc"},
            }
        ],
    },
}


class TestServiceScenario:
    def test_service_only_scenario_is_valid(self):
        spec = from_dict(SERVICE_DOC)
        assert spec.service is not None
        assert spec.service.admission.policy == "capacity"

    def test_materialize_builds_service_loop(self):
        built = materialize(from_dict(SERVICE_DOC))
        assert built.service is not None
        assert isinstance(built.service.admission, CapacityCapAdmission)
        summary = built.service.run(300)
        assert summary["admitted"] > 0
        assert summary["peak_live_vms"] <= 3

    def test_materialized_service_is_deterministic(self):
        run1 = materialize(from_dict(SERVICE_DOC)).service.run(400)
        run2 = materialize(from_dict(SERVICE_DOC)).service.run(400)
        assert run1 == run2

    def test_unknown_service_keys_rejected(self):
        doc = json.loads(json.dumps(SERVICE_DOC))
        doc["service"]["arrivals"]["ratez"] = 1.0
        with pytest.raises(ScenarioError, match="ratez"):
            from_dict(doc)

    def test_cross_field_admission_validation(self):
        doc = json.loads(json.dumps(SERVICE_DOC))
        doc["service"]["admission"] = {"policy": "naive", "max_vcpus": 4}
        with pytest.raises(ScenarioError, match="max_vcpus"):
            from_dict(doc)

    def test_service_only_migration_rejected(self):
        doc = json.loads(json.dumps(SERVICE_DOC))
        doc["migration"] = {"home_core": 0, "remote_core": 1}
        with pytest.raises(ScenarioError, match="migration"):
            from_dict(doc)

    def test_empty_templates_rejected(self):
        doc = json.loads(json.dumps(SERVICE_DOC))
        doc["service"]["templates"] = []
        with pytest.raises(ScenarioError, match="template"):
            from_dict(doc)

    def test_json_round_trip(self):
        spec = from_dict(SERVICE_DOC)
        from repro.scenario import dumps_json

        assert loads_json(dumps_json(spec)) == spec


# -- CLI ----------------------------------------------------------------------

class TestServeCli:
    def _args(self, tmp_path, **overrides):
        spec_file = tmp_path / "svc.json"
        spec_file.write_text(json.dumps(SERVICE_DOC))
        defaults = dict(
            spec=str(spec_file),
            ticks=200,
            json_dir=None,
            stop_when_idle=False,
            stream_dir=None,
        )
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_serve_runs_and_writes_summary(self, tmp_path):
        out = io.StringIO()
        args = self._args(tmp_path, json_dir=str(tmp_path / "out"))
        assert run_serve(args, out=out) == 0
        artifact = tmp_path / "out" / "svc.service.json"
        summary = json.loads(artifact.read_text())
        assert summary["schema"] == SERVICE_SCHEMA
        assert summary["scenario"] == "svc"
        assert summary["ticks_run"] == 200
        assert "admitted" in out.getvalue()

    def test_serve_rejects_service_less_scenario(self, tmp_path):
        spec_file = tmp_path / "static.json"
        doc = {
            "name": "static",
            "vms": [{"name": "a", "workload": {"app": "gcc"}}],
        }
        spec_file.write_text(json.dumps(doc))
        args = self._args(tmp_path, spec=str(spec_file))
        assert run_serve(args, out=io.StringIO()) == 2

    def test_serve_rejects_negative_ticks(self, tmp_path):
        args = self._args(tmp_path, ticks=-5)
        assert run_serve(args, out=io.StringIO()) == 2

    def test_parser_wires_serve(self):
        args = build_parser().parse_args(
            ["serve", "spec.toml", "--ticks", "50", "--json", "out"]
        )
        assert args.command == "serve"
        assert args.ticks == 50
        assert args.json_dir == "out"
