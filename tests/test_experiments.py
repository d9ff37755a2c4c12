"""Tests for the experiment drivers (shortened parameters for speed).

Each test asserts the *paper's qualitative claim* for its figure — these
are the reproduction's acceptance tests.  ``TestAblations`` asserts the
design-choice claims of the ``abl-*`` drivers at their registered
parameters.
"""

import pytest

from repro.experiments import (
    ablations,
    fig01,
    fig02,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    tables,
)
from repro.workloads.profiles import (
    PAPER_ORDER_EQUATION1,
    PAPER_ORDER_LLCM,
    PAPER_ORDER_REAL,
)


class TestFig01:
    @pytest.fixture(scope="class")
    def result(self):
        return fig01.run(warmup_ticks=20, measure_ticks=60)

    def test_c1_representative_agnostic(self, result):
        """C1's working set never touches the LLC: no degradation at all."""
        for dis in (1, 2, 3):
            for mode in fig01.MODES:
                assert result.of(1, dis, mode) < 2.0

    def test_c1_disruptor_harmless(self, result):
        for rep in (1, 2, 3):
            for mode in fig01.MODES:
                assert result.of(rep, 1, mode) < 2.0

    def test_c2_severely_hurt_in_parallel(self, result):
        assert result.of(2, 2, "parallel") > 50.0
        assert result.of(2, 3, "parallel") > 50.0

    def test_parallel_worse_than_alternative_for_c2(self, result):
        assert result.of(2, 2, "parallel") > 2 * result.of(2, 2, "alternative")

    def test_c3_hurt_by_big_disruptors(self, result):
        assert result.of(3, 3, "parallel") > 15.0

    def test_combined_at_least_parallel(self, result):
        for rep in (2, 3):
            for dis in (2, 3):
                assert (
                    result.of(rep, dis, "combined")
                    >= result.of(rep, dis, "parallel") - 3.0
                )

    def test_report_renders(self, result):
        report = fig01.format_report(result)
        assert "Fig 1" in report and "v2_rep" in report


class TestFig02:
    @pytest.fixture(scope="class")
    def result(self):
        return fig02.run(num_ticks=21)

    def test_alone_only_first_tick_misses(self, result):
        alone = result.misses["alone"]
        assert alone[0] > 10_000
        assert all(m < alone[0] * 0.05 for m in alone[3:])

    def test_alternative_zigzag(self, result):
        """Reload burst at the first tick of each slice the VM runs."""
        alt = result.misses["alternative"]
        bursts = [m for m in alt[3:] if m > 10_000]
        quiets = [m for m in alt[3:] if m < 1_000]
        assert bursts and quiets

    def test_parallel_sustained_misses(self, result):
        par = result.misses["parallel"]
        assert all(m > 50_000 for m in par)

    def test_parallel_worst_overall(self, result):
        assert sum(result.misses["parallel"]) > sum(result.misses["alternative"])
        assert sum(result.misses["parallel"]) > sum(result.misses["alone"])

    def test_report_renders(self, result):
        assert "Fig 2" in fig02.format_report(result)


class TestFig03:
    @pytest.fixture(scope="class")
    def result(self):
        return fig03.run(caps=(0, 25, 50, 75, 100), warmup_ticks=20,
                         measure_ticks=60)

    def test_zero_power_zero_degradation(self, result):
        for series in result.degradation.values():
            assert series[0] < 1.0

    def test_monotone_increase(self, result):
        for vsen, series in result.degradation.items():
            assert fig03.is_monotone_increasing(series), (vsen, series)

    def test_full_power_significant(self, result):
        for series in result.degradation.values():
            assert series[-1] > 10.0

    def test_roughly_linear(self, result):
        """Midpoint close to half the endpoint (the paper's linearity)."""
        for series in result.degradation.values():
            midpoint = series[2]
            assert midpoint == pytest.approx(series[-1] / 2, rel=0.5)

    def test_linear_fit(self, result):
        for vsen in result.degradation:
            assert fig03.linearity_r_squared(result, vsen) > 0.95, vsen

    def test_report_renders(self, result):
        assert "Fig 3" in fig03.format_report(result)


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04.run(warmup_ticks=20, measure_ticks=60)

    def test_published_orderings_reproduced(self, result):
        cmp = result.comparison
        assert cmp.real_order == PAPER_ORDER_REAL
        assert cmp.llcm_order == PAPER_ORDER_LLCM
        assert cmp.equation1_order == PAPER_ORDER_EQUATION1

    def test_equation1_tracks_reality_better(self, result):
        cmp = result.comparison
        assert cmp.equation1_wins
        assert cmp.tau_equation1 > cmp.tau_llcm

    def test_report_renders(self, result):
        assert "Fig 4" in fig04.format_report(result)


class TestFig05:
    @pytest.fixture(scope="class")
    def result(self):
        return fig05.run(warmup_ticks=20, measure_ticks=120)

    def test_performance_almost_kept(self, result):
        for vdis, perf in result.normalized_perf.items():
            assert perf > 0.85, (vdis, perf)

    def test_ks4xen_beats_xcs(self, result):
        for vdis in result.normalized_perf:
            assert (
                result.normalized_perf[vdis]
                > result.normalized_perf_xcs[vdis]
            )

    def test_disruptors_punished_more_than_sensitive(self, result):
        for vdis, (pun_sen, pun_dis) in result.punishments.items():
            assert pun_dis > 10 * max(pun_sen, 1)

    def test_sensitive_never_punished(self, result):
        assert all(p[0] == 0 for p in result.punishments.values())

    def test_timeline_quota_oscillates(self, result):
        assert min(result.timeline.quota) < 0
        assert max(result.timeline.quota) > 0

    def test_timeline_ks4xen_deprives_cpu(self, result):
        ks_duty = sum(result.timeline.running_ks4xen) / len(
            result.timeline.running_ks4xen
        )
        xcs_duty = sum(result.timeline.running_xcs) / len(
            result.timeline.running_xcs
        )
        assert xcs_duty > 0.95
        assert ks_duty < 0.8

    def test_report_renders(self, result):
        assert "Fig 5" in fig05.format_report(result)


class TestFig06:
    @pytest.fixture(scope="class")
    def result(self):
        return fig06.run(counts=(1, 4, 8, 15), warmup_ticks=20,
                         measure_ticks=90)

    def test_performance_kept_at_scale(self, result):
        assert all(p > 0.8 for p in result.normalized_perf)

    def test_no_collapse_with_count(self, result):
        assert result.normalized_perf[-1] > result.normalized_perf[0] - 0.2

    def test_report_renders(self, result):
        assert "Fig 6" in fig06.format_report(result)


class TestFig07:
    @pytest.fixture(scope="class")
    def result(self):
        return fig07.run(num_ticks=30)

    def test_cores_disjoint(self, result):
        assert result.cores_disjoint

    def test_full_duty_cycles(self, result):
        assert all(d == 1.0 for d in result.duty_cycle.values())

    def test_llc_shared(self, result):
        assert result.llc_shared

    def test_report_renders(self, result):
        assert "Fig 7" in fig07.format_report(result)


class TestFig08:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08.run(work_instructions=5e8)

    def test_pisces_loses_predictability(self, result):
        assert result.pisces_interference_percent > 10.0

    def test_ks4pisces_restores_predictability(self, result):
        assert (
            result.ks4pisces_interference_percent
            < result.pisces_interference_percent * 0.7
        )

    def test_alone_times_equal(self, result):
        assert result.exec_time["pisces-alone"] == pytest.approx(
            result.exec_time["ks4pisces-alone"], rel=0.02
        )

    def test_report_renders(self, result):
        assert "Fig 8" in fig08.format_report(result)


class TestFig09:
    @pytest.fixture(scope="class")
    def result(self):
        return fig09.run(work_instructions=4e8)

    def test_memory_bound_apps_hurt_most(self, result):
        assert result.degradation["milc"] > result.degradation["bzip"]
        assert result.degradation["lbm"] > result.degradation["bzip"]

    def test_degradation_bounded(self, result):
        assert len(result.degradation) == len(fig09.FIG9_APPS)
        assert all(0 <= d < 15 for d in result.degradation.values())

    def test_migrations_happened(self, result):
        assert all(m > 0 for m in result.migrations.values())

    def test_report_renders(self, result):
        assert "Fig 9" in fig09.format_report(result)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(warmup_ticks=20, sample_ticks=6)

    def test_hmmer_gap_negligible(self, result):
        """A low-LLCM vCPU measures (absolutely) the same either way."""
        case = result.case("hmmer")
        assert case.absolute_gap < 10_000

    def test_bzip_with_quiet_corunners_gap_negligible(self, result):
        case = result.case("bzip")
        assert case.absolute_gap < 5_000

    def test_bzip_with_disruptors_diverges(self, result):
        case = result.case("bzip-vs-disruptors")
        assert case.relative_gap_percent > 50.0

    def test_report_renders(self, result):
        assert "Fig 10" in fig10.format_report(result)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11.run(warmup_ticks=20, measure_ticks=60)

    def test_orderings_agree(self, result):
        assert result.tau > 0.7

    def test_quiet_apps_identical_either_way(self, result):
        for app in ("astar", "bzip", "xalan"):
            assert result.shared[app] == pytest.approx(
                result.dedicated[app], rel=0.05
            )

    def test_report_renders(self, result):
        assert "Fig 11" in fig11.format_report(result)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12.run(slices_ms=(1, 10, 30), work_instructions=5e8)

    def test_overhead_near_zero(self, result):
        assert result.max_overhead_percent < 2.0

    def test_curves_have_all_points(self, result):
        assert len(result.exec_time_xcs) == 3
        assert len(result.exec_time_ks4xen) == 3

    def test_report_renders(self, result):
        assert "Fig 12" in fig12.format_report(result)


class TestTables:
    def test_table1_matches_paper(self):
        result = tables.run_table1()
        text = tables.format_table1(result)
        assert "8096 MB" in text
        assert "L1 D 32 KB" in text
        assert "10 MB, 20-way" in text
        assert "4 Cores/socket" in text

    def test_table2_matches_paper(self):
        result = tables.run_table2()
        assert result.mapping == {
            "vsen1": "gcc",
            "vsen2": "omnetpp",
            "vsen3": "soplex",
            "vdis1": "lbm",
            "vdis2": "blockie",
            "vdis3": "mcf",
        }

    def test_table2_report(self):
        text = tables.format_table2(tables.run_table2())
        assert "vdis2" in text and "blockie" in text


class TestAblations:
    """The design-choice ablations at their registered (golden) parameters."""

    @pytest.fixture(scope="class")
    def quota(self):
        return ablations.run_quota()

    @pytest.fixture(scope="class")
    def period(self):
        return ablations.run_period()

    @pytest.fixture(scope="class")
    def enforce(self):
        return ablations.run_enforce()

    def test_smaller_bank_punishes_at_least_as_often(self, quota):
        assert quota[1.0].punishments >= quota[12.0].punishments

    def test_smaller_bank_clips_polluter_duty(self, quota):
        assert quota[1.0].duty <= quota[12.0].duty + 0.02

    def test_victim_protected_at_every_bank_size(self, quota):
        assert all(p.victim_ipc > 0.3 for p in quota.values())

    def test_sampling_cost_scales_down_with_period(self, period):
        assert period[12].samples < period[1].samples / 8

    def test_enforcement_at_every_period(self, period):
        assert all(p.punishments > 0 for p in period.values())
        ipcs = [p.victim_ipc for p in period.values()]
        assert max(ipcs) - min(ipcs) < 0.15 * max(ipcs)

    def test_scan_resistant_policies_protect_hot_set(self):
        ratios = ablations.run_policy()
        assert ratios["bip"] > ratios["lru"]
        assert ratios["dip"] > ratios["lru"]
        assert ratios["pdp"] >= ratios["lru"]
        assert all(0.0 <= r <= 1.0 for r in ratios.values())

    def test_occupancy_model_agrees_with_set_associative_cache(self):
        shares = ablations.run_model()
        fa, fb = shares["faithful"]
        aa, ab = shares["analytical"]
        assert fb > fa and ab > aa
        assert aa == pytest.approx(fa, abs=0.12)
        assert ab == pytest.approx(fb, abs=0.12)

    def test_every_protection_beats_none(self, enforce):
        unprotected = enforce["none (XCS)"].victim
        for approach in ("page coloring", "ucp", "memguard", "kyoto (KS4Xen)"):
            assert enforce[approach].victim > unprotected, approach

    def test_kyoto_charges_the_polluter_cpu(self, enforce):
        """Partitioning leaves the disruptor's CPU alone; Kyoto parks it."""
        assert (
            enforce["kyoto (KS4Xen)"].disruptor_throughput
            < 0.9 * enforce["page coloring"].disruptor_throughput
        )
