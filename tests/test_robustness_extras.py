"""Tests for performance jitter and the statistics helpers."""

import pytest

from repro.analysis.statistics import (
    LinearFit,
    linear_fit,
    mean_confidence_interval,
    student_t_critical,
)
from repro.hypervisor.system import VirtualizedSystem
from repro.schedulers.credit import CreditScheduler

from conftest import make_vm


class TestStatistics:
    def test_perfect_line(self):
        fit = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = LinearFit(slope=2.0, intercept=1.0, r_squared=1.0)
        assert fit.predict(10) == 21.0

    def test_constant_series(self):
        fit = linear_fit([0, 1, 2], [5, 5, 5])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_noise_lowers_r_squared(self):
        fit = linear_fit([0, 1, 2, 3, 4], [0, 5, 1, 6, 2])
        assert fit.r_squared < 0.7

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])
        with pytest.raises(ValueError):
            linear_fit([2, 2], [1, 3])
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1])

    def test_confidence_interval(self):
        mean, low, high = mean_confidence_interval([10.0, 12.0, 8.0, 10.0])
        assert mean == pytest.approx(10.0)
        assert low < mean < high

    def test_confidence_single_sample(self):
        assert mean_confidence_interval([5.0]) == (5.0, 5.0, 5.0)

    def test_confidence_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_default_interval_uses_student_t(self):
        # n=4 → df=3 → t=3.182, not z=1.96: the t interval is ~62% wider.
        values = [10.0, 12.0, 8.0, 10.0]
        __, t_low, t_high = mean_confidence_interval(values)
        __, z_low, z_high = mean_confidence_interval(values, z=1.96)
        assert (t_high - t_low) / (z_high - z_low) == pytest.approx(
            3.182 / 1.96, rel=1e-6
        )

    def test_explicit_z_restores_normal_interval(self):
        # The documented escape hatch: z=1.96 is the pre-fix behavior.
        values = [3.0, 5.0, 7.0, 5.0]
        mean, low, high = mean_confidence_interval(values, z=1.96)
        import math

        se = math.sqrt((sum((v - 5.0) ** 2 for v in values) / 3) / 4)
        assert mean == pytest.approx(5.0)
        assert high - mean == pytest.approx(1.96 * se)

    def test_t_table_pins(self):
        assert student_t_critical(1) == pytest.approx(12.706)
        assert student_t_critical(3) == pytest.approx(3.182)
        assert student_t_critical(30) == pytest.approx(2.042)
        assert student_t_critical(10, confidence=0.99) == pytest.approx(3.169)
        assert student_t_critical(5, confidence=0.90) == pytest.approx(2.015)

    def test_t_tail_approximation_is_tight_and_monotone(self):
        # Cornish-Fisher beyond the table: close to the true quantile
        # (t(40)=2.021, t(60)=2.000, t(120)=1.980) and approaching z.
        assert student_t_critical(40) == pytest.approx(2.021, abs=1e-3)
        assert student_t_critical(60) == pytest.approx(2.000, abs=1e-3)
        assert student_t_critical(120) == pytest.approx(1.980, abs=1e-3)
        assert student_t_critical(10**6) == pytest.approx(1.96, abs=1e-3)
        previous = student_t_critical(31)
        for df in (40, 60, 120, 1000):
            current = student_t_critical(df)
            assert current < previous
            previous = current

    def test_t_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            student_t_critical(0)
        with pytest.raises(ValueError):
            student_t_critical(5, confidence=0.42)


class TestPerfJitter:
    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualizedSystem(CreditScheduler(), perf_jitter_fraction=1.0)

    def test_zero_jitter_bit_exact(self):
        def run():
            system = VirtualizedSystem(CreditScheduler())
            vm = make_vm(system, app="gcc")
            system.run_ticks(20)
            return vm.instructions_retired

        assert run() == run()

    def test_jitter_reproducible_per_seed(self):
        def run(seed):
            system = VirtualizedSystem(
                CreditScheduler(), perf_jitter_fraction=0.05, seed=seed
            )
            vm = make_vm(system, app="gcc")
            system.run_ticks(20)
            return vm.instructions_retired

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_jitter_mean_preserving(self):
        def run(jitter):
            system = VirtualizedSystem(
                CreditScheduler(), perf_jitter_fraction=jitter, seed=3
            )
            vm = make_vm(system, app="gcc")
            system.run_ticks(60)
            return vm.instructions_retired

        assert run(0.05) == pytest.approx(run(0.0), rel=0.02)
