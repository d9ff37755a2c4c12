"""Scenario validation: collect-all errors with dotted paths."""

import pytest

from repro.scenario import (
    FaultSiteSpec,
    FaultsSpec,
    MachineSpecChoice,
    MigrationSpec,
    MonitorSpec,
    ProtocolSpec,
    ScenarioError,
    ScenarioSpec,
    SchedulerChoice,
    VmSpec,
    WorkloadSpec,
    from_dict,
)


def _vm(name="v", app="gcc", **kwargs):
    return VmSpec(name=name, workload=WorkloadSpec(app=app), **kwargs)


def _errors_of(spec):
    with pytest.raises(ScenarioError) as excinfo:
        spec.validate()
    return excinfo.value.errors


class TestCollectAll:
    def test_multiple_errors_reported_together(self):
        spec = ScenarioSpec(
            name="",
            machine=MachineSpecChoice(preset="laptop"),
            scheduler=SchedulerChoice(kind="fifo"),
            vms=(),
        )
        errors = _errors_of(spec)
        paths = [error.split(":")[0] for error in errors]
        assert "name" in paths
        assert "machine.preset" in paths
        assert "scheduler.kind" in paths
        assert "vms" in paths

    def test_error_lists_alternatives(self):
        (error,) = _errors_of(
            ScenarioSpec(name="x", vms=(_vm(),),
                         monitor=MonitorSpec(strategy="psychic"))
        )
        assert error.startswith("monitor.strategy:")
        assert "resilient" in error  # suggests the valid strategies


class TestVmValidation:
    def test_duplicate_names(self):
        errors = _errors_of(
            ScenarioSpec(name="x", vms=(_vm("a"), _vm("a")))
        )
        assert any("duplicate VM name 'a'" in error for error in errors)

    def test_counted_vm_needs_single_pinned_core(self):
        errors = _errors_of(
            ScenarioSpec(
                name="x", vms=(_vm(count=3, pinned_cores=(0, 1)),)
            )
        )
        assert any("vms[0].pinned_cores" in error for error in errors)

    def test_pinning_must_cover_every_vcpu(self):
        errors = _errors_of(
            ScenarioSpec(
                name="x", vms=(_vm(num_vcpus=2, pinned_cores=(0,)),)
            )
        )
        assert any("one core per vCPU" in error for error in errors)

    def test_micro_workload_needs_wss(self):
        errors = _errors_of(
            ScenarioSpec(
                name="x",
                vms=(VmSpec(name="m", workload=WorkloadSpec(kind="micro")),),
            )
        )
        assert any("vms[0].workload.wss_bytes" in error for error in errors)

    def test_application_workload_needs_app(self):
        errors = _errors_of(
            ScenarioSpec(name="x", vms=(VmSpec(name="m", workload=WorkloadSpec()),))
        )
        assert any("vms[0].workload.app" in error for error in errors)


class TestCrossFieldValidation:
    def test_quota_min_factor_is_ks4xen_only(self):
        errors = _errors_of(
            ScenarioSpec(
                name="x",
                scheduler=SchedulerChoice(kind="cfs", quota_min_factor=2.0),
                vms=(_vm(),),
            )
        )
        assert any("scheduler.quota_min_factor" in error for error in errors)

    def test_faults_uniform_rate_xor_sites(self):
        errors = _errors_of(
            ScenarioSpec(
                name="x",
                vms=(_vm(),),
                faults=FaultsSpec(
                    uniform_rate=0.5,
                    sites=(FaultSiteSpec(site="replay.unavailable"),),
                ),
            )
        )
        assert any("mutually exclusive" in error for error in errors)

    def test_migration_vm_must_exist(self):
        errors = _errors_of(
            ScenarioSpec(
                name="x",
                vms=(_vm(),),
                migration=MigrationSpec(vm="ghost"),
            )
        )
        assert any("migration.vm" in error for error in errors)

    def test_target_vm_must_be_an_expanded_name(self):
        errors = _errors_of(
            ScenarioSpec(
                name="x",
                vms=(_vm("a", count=2, pinned_cores=(0,)),),
                protocol=ProtocolSpec(target_vm="a"),
            )
        )
        # count=2 expands to a-0 / a-1; the bare name no longer exists.
        assert any("protocol.target_vm" in error for error in errors)


class TestTargetVmName:
    def test_defaults_to_first_vm(self):
        spec = ScenarioSpec(name="x", vms=(_vm("first"), _vm("second")))
        assert spec.target_vm_name() == "first"

    def test_counted_first_vm_targets_clone_zero(self):
        spec = ScenarioSpec(
            name="x", vms=(_vm("a", count=2, pinned_cores=(0,)),)
        )
        assert spec.target_vm_name() == "a-0"

    def test_explicit_target_wins(self):
        spec = ScenarioSpec(
            name="x",
            vms=(_vm("a"), _vm("b")),
            protocol=ProtocolSpec(target_vm="b"),
        )
        assert spec.target_vm_name() == "b"


class TestFromDictErrors:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError) as excinfo:
            from_dict(
                {
                    "schema": "repro.scenario/1",
                    "name": "x",
                    "vms": [{"name": "v", "workload": {"app": "gcc"}}],
                    "turbo": True,
                }
            )
        assert "turbo" in str(excinfo.value)

    def test_type_errors_carry_dotted_paths(self):
        with pytest.raises(ScenarioError) as excinfo:
            from_dict(
                {
                    "schema": "repro.scenario/1",
                    "name": "x",
                    "system": {"tick_usec": "fast"},
                    "vms": [{"name": "v", "workload": {"app": "gcc"}}],
                }
            )
        assert "system.tick_usec" in str(excinfo.value)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ScenarioError) as excinfo:
            from_dict(
                {
                    "schema": "repro.scenario/9",
                    "name": "x",
                    "vms": [{"name": "v", "workload": {"app": "gcc"}}],
                }
            )
        assert "repro.scenario/1" in str(excinfo.value)


_VM = {"name": "v", "workload": {"app": "gcc"}}


def _doc(**overrides):
    doc = {"schema": "repro.scenario/1", "name": "x", "vms": [_VM]}
    doc.update(overrides)
    return doc


def _read_errors(doc):
    with pytest.raises(ScenarioError) as excinfo:
        from_dict(doc)
    return excinfo.value.errors


class TestReaderErrorLists:
    """The reader's complete error list, in order, per message kind."""

    @pytest.mark.parametrize(
        "doc, expected",
        [
            pytest.param(
                _doc(name=5), ["name: expected a string, got 5"], id="string"
            ),
            pytest.param(
                _doc(vms=[{"name": "v",
                           "workload": {"app": "gcc", "disruptive": "yes"}}]),
                ["vms[0].workload.disruptive: expected a boolean, got 'yes'"],
                id="boolean",
            ),
            pytest.param(
                _doc(system={"tick_usec": "fast", "seed": True}),
                [
                    "system.tick_usec: expected an integer, got 'fast'",
                    "system.seed: expected an integer, got True",
                ],
                id="integer",
            ),
            pytest.param(
                _doc(scheduler={"quota_max_factor": "3",
                                "quota_min_factor": False}),
                [
                    "scheduler.quota_max_factor: expected a number, got '3'",
                    "scheduler.quota_min_factor: expected a number, got False",
                ],
                id="number",
            ),
            pytest.param(
                _doc(vms=[dict(_VM, pinned_cores=[0, "1"])]),
                ["vms[0].pinned_cores: expected a list of integers, "
                 "got [0, '1']"],
                id="integer-list",
            ),
            pytest.param(
                _doc(monitor={"chain": ["replay", 2]}),
                ["monitor.chain: expected a list of strings, "
                 "got ['replay', 2]"],
                id="string-list",
            ),
            pytest.param(
                _doc(faults={"sites": [{"site": "replay.unavailable",
                                        "windows": [[0, 5], [7]]}]}),
                ["faults.sites[0].windows: expected a list of "
                 "[start_tick, end_tick] pairs, got [[0, 5], [7]]"],
                id="windows",
            ),
            pytest.param(
                _doc(machine="paper"),
                ["machine: expected a table, got 'paper'"],
                id="table",
            ),
            pytest.param(
                _doc(vms=[_VM, 3]),
                ["vms: expected an array of tables, got "
                 "[{'name': 'v', 'workload': {'app': 'gcc'}}, 3]"],
                id="table-array",
            ),
            pytest.param(
                _doc(vms=[{"name": "v"}]),
                ["vms[0].workload: missing required table"],
                id="missing-table",
            ),
            pytest.param(
                _doc(turbo=True, vms=[dict(_VM, color="red")]),
                ["vms[0].color: unknown key", "turbo: unknown key"],
                id="unknown-key",
            ),
            pytest.param(
                _doc(name=None, description=1,
                     vms=[{"name": 2, "workload": {"app": 3, "wss": 1}}]),
                [
                    "vms[0].workload.app: expected a string, got 3",
                    "vms[0].workload.wss: unknown key",
                    "vms[0].name: expected a string, got 2",
                    "name: expected a string, got None",
                    "description: expected a string, got 1",
                ],
                id="nested-before-root",
            ),
            pytest.param(
                _doc(vms=[_VM, {"name": "w", "workload": [1]}]),
                ["vms[1].workload: expected a table, got [1]"],
                id="non-table-workload",
            ),
            pytest.param(
                {"schema": "repro.scenario/1", "name": "x",
                 "service": {"templates": [{"name": "t", "workload": [1]}]}},
                ["service.templates[0].workload: expected a table, got [1]"],
                id="non-table-template-workload",
            ),
            pytest.param(
                [1], [": expected a table, got list"], id="non-mapping-root"
            ),
            pytest.param(
                _doc(
                    scheduler={"kind": "ks4xen",
                               "quota_max_factor": float("inf")},
                    vms=[{"name": "v", "workload": {"app": "gcc"},
                          "llc_cap": float("nan"),
                          "cap_percent": float("-inf")}],
                    faults={"sites": [{"site": "pmc.read",
                                       "probability": float("nan")}]},
                ),
                [
                    "scheduler.quota_max_factor: must be a finite number, "
                    "got inf",
                    "vms[0].cap_percent: must be a finite number, got -inf",
                    "vms[0].llc_cap: must be a finite number, got nan",
                    "faults.sites[0].probability: must be a finite number, "
                    "got nan",
                ],
                id="non-finite-floats",
            ),
            pytest.param(
                _doc(vms=[{"name": "v", "workload": {"app": "gcc"},
                           "llc_cap": 10**400}]),
                ["vms[0].llc_cap: integer is too large for a float"],
                id="float-overflow",
            ),
        ],
    )
    def test_error_list(self, doc, expected):
        assert _read_errors(doc) == expected
