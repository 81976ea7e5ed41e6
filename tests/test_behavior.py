"""Risk sweeps, SNR arithmetic, and the behavioral objective checks."""

import math

import numpy as np
import pytest

from becal.behavior import (RiskSweep, check_objectives, default_grid,
                            snr_gain, snr_interval, snr_point, sweep)
from becal.errors import DataError, DomainError

from conftest import make_dataset, random_dataset


class TestSweep:
    def test_never_abstains(self):
        sw = sweep(make_dataset([(1.0, True)] * 8))
        np.testing.assert_array_equal(sw.acc, 1.0)
        np.testing.assert_array_equal(sw.hal, 0.0)
        np.testing.assert_array_equal(sw.abs, 0.0)

    def test_two_record_enumeration(self):
        ds = make_dataset([(0.9, True), (0.4, False)])
        sw = sweep(ds, np.array([0.0, 0.5, 1.0]))
        # t = 0.5: only the 0.9 record answers
        assert (sw.acc[1], sw.hal[1], sw.abs[1]) == (0.5, 0.0, 0.5)
        assert sw.tp[1] == 1.0 and sw.fn[1] == 0.0
        # t = 0: everyone answers
        assert (sw.acc[0], sw.hal[0], sw.abs[0]) == (0.5, 0.5, 0.0)

    def test_partition_and_monotonicity(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            ds = random_dataset(rng, int(rng.integers(5, 400)), quantize=25)
            sw = sweep(ds)
            np.testing.assert_allclose(sw.acc + sw.hal + sw.abs, 1.0,
                                       rtol=0, atol=1e-12)
            assert np.all(np.diff(sw.acc) <= 1e-15)
            assert np.all(np.diff(sw.hal) <= 1e-15)
            assert np.all(np.diff(sw.abs) >= -1e-15)

    def test_tp_identity(self):
        rng = np.random.default_rng(67)
        ds = random_dataset(rng, 200, quantize=10)
        sw = sweep(ds)
        defined = ~np.isnan(sw.tp)
        np.testing.assert_allclose(sw.tp[defined] * (sw.acc + sw.hal)[defined],
                                   sw.acc[defined], rtol=0, atol=1e-12)

    def test_undefined_markers(self):
        ds = make_dataset([(0.4, True), (0.3, False)])  # nobody answers at t=1
        sw = sweep(ds)
        assert math.isnan(sw.tp[-1])
        assert math.isnan(sw.fn[0])  # nobody abstains at t=0

    def test_hal_at_one_counts_p_equal_one(self):
        ds = make_dataset([(1.0, False), (1.0, True), (0.999, False),
                           (0.5, False)])
        sw = sweep(ds)
        direct = np.mean((ds.confidences() == 1.0) & ~ds.valids())
        assert sw.hal[-1] == direct == 0.25

    def test_grid_validation(self):
        ds = make_dataset([(0.5, True), (0.6, False)])
        with pytest.raises(DomainError):
            sweep(ds, np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(DomainError):
            default_grid(1)


class TestSnrPoint:
    def test_direct_ratio(self):
        ds = make_dataset([(0.9, True), (0.9, True), (0.9, False), (0.1, False)])
        sw = sweep(ds, np.array([0.0, 0.5, 1.0]))
        assert snr_point(sw, 0.5) == 2.0

    def test_regularized_zero_hallucination(self):
        pairs = [(0.9, True)] * 50 + [(0.1, False)] * 50
        sw = sweep(make_dataset(pairs), np.array([0.0, 0.5, 1.0]))
        # Acc = 0.5, Hal = 0 at t = 0.5; default floor is half a count
        assert snr_point(sw, 0.5) == 100.0
        assert snr_point(sw, 0.5, epsilon_h=1 / (2 * 100)) == 100.0

    def test_zero_accuracy(self):
        sw = sweep(make_dataset([(0.9, False), (0.8, False)]))
        assert snr_point(sw, 0.5) == 0.0

    def test_off_grid_rejected(self):
        sw = sweep(make_dataset([(0.5, True), (0.6, False)]),
                   np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            snr_point(sw, 0.37)

    def test_curve_only_needs_epsilon(self):
        sw = RiskSweep.from_curves(np.linspace(0, 1, 11),
                                   np.full(11, 0.6), np.full(11, 0.3),
                                   np.full(11, 0.1))
        with pytest.raises(DomainError):
            snr_point(sw, 0.5)
        np.testing.assert_allclose(snr_point(sw, 0.5, epsilon_h=1e-9), 2.0)


class TestSnrInterval:
    def test_constant_curves(self):
        sw = RiskSweep.from_curves(np.linspace(0, 1, 101),
                                   np.full(101, 0.6), np.full(101, 0.3),
                                   np.full(101, 0.1))
        np.testing.assert_allclose(snr_interval(sw, 0.0, 1.0, epsilon_h=1e-9),
                                   2.0, rtol=0, atol=1e-12)

    def test_linear_curves(self):
        grid = np.linspace(0, 1, 101)
        sw = RiskSweep.from_curves(grid, 1.0 - grid, 0.5 * (1.0 - grid),
                                   0.5 * grid)
        np.testing.assert_allclose(snr_interval(sw, 0.0, 1.0, epsilon_h=1e-9),
                                   0.5 / 0.25, rtol=0, atol=1e-12)
        # slicing the same linear curves keeps the ratio
        np.testing.assert_allclose(snr_interval(sw, 0.4, 0.6, epsilon_h=1e-9),
                                   2.0, rtol=0, atol=1e-12)

    def test_interval_matches_point_for_constants(self):
        pairs = [(1.0, True)] * 6 + [(1.0, False)] * 4
        sw = sweep(make_dataset(pairs))
        assert snr_interval(sw, 0.0, 1.0) == snr_point(sw, 0.0) == 1.5

    def test_degenerate_interval(self):
        sw = sweep(make_dataset([(0.5, True), (0.6, False)]))
        with pytest.raises(DomainError):
            snr_interval(sw, 0.5, 0.5)
        with pytest.raises(DomainError):
            snr_interval(sw, 0.8, 0.2)

    def test_off_grid_slice_uses_float_path(self):
        pairs = [(0.9, True)] * 3 + [(0.2, False)] * 1
        sw = sweep(make_dataset(pairs))
        with pytest.raises(DomainError):
            snr_interval(sw, 0.05, 0.9501)  # off grid without epsilon_h
        value = snr_interval(sw, 0.05, 0.9501, epsilon_h=1e-9)
        assert value > 0


class TestSnrGain:
    def test_never_abstaining_is_exactly_zero(self):
        pairs = [(1.0, True)] * 7 + [(1.0, False)] * 5
        sw = sweep(make_dataset(pairs))
        assert snr_gain(sw) == 0.0

    def test_self_aware_policy(self):
        """p = 1 on valid, p = 0 on invalid, 50/50 mix of 200 records."""
        pairs = [(1.0, True)] * 100 + [(0.0, False)] * 100
        sw = sweep(make_dataset(pairs))
        assert snr_point(sw, 0.0) == 1.0
        assert snr_interval(sw, 0.0, 1.0) == 200.0
        np.testing.assert_allclose(snr_gain(sw), math.log(200.0),
                                   rtol=0, atol=1e-15)

    def test_log_base_ten(self):
        pairs = [(1.0, True)] * 100 + [(0.0, False)] * 100
        sw = sweep(make_dataset(pairs))
        np.testing.assert_allclose(snr_gain(sw, log_base="10"),
                                   math.log10(200.0), rtol=0, atol=1e-15)
        assert snr_gain(sw, log_base="ln") == snr_gain(sw, log_base="e")
        with pytest.raises(DomainError):
            snr_gain(sw, log_base="2")

    def test_needs_full_grid(self):
        sw = sweep(make_dataset([(0.5, True), (0.6, False)]),
                   np.linspace(0.2, 0.8, 7))
        with pytest.raises(DomainError):
            snr_gain(sw)

    def test_undefined_without_a_valid_record(self):
        sw = sweep(make_dataset([(0.9, False), (0.2, False)]))
        with pytest.raises(DataError):
            snr_gain(sw)
        with pytest.raises(DomainError):  # a bad log base is still a domain error
            snr_gain(sw, log_base="2")


class TestCheckObjectives:
    def test_constant_confidence_fails_adaptive_risk(self):
        rng = np.random.default_rng(71)
        pairs = [(0.7, bool(rng.random() < 0.7)) for _ in range(100)]
        sw = sweep(make_dataset(pairs))
        report = check_objectives(sw, baseline_acc=float(sw.acc[0]))
        assert not report.adaptive_risk
        assert not report.all_passed
        assert report.diagnostics["abs_max_gap"] == 1.0

    def test_baseline_self_comparison(self):
        rng = np.random.default_rng(73)
        ds = random_dataset(rng, 200, calibrated=True)
        sw = sweep(ds)
        report = check_objectives(sw, baseline_acc=float(sw.acc[0]))
        assert report.accuracy_preservation

    def test_tolerance_domain(self):
        sw = sweep(make_dataset([(0.5, True), (0.6, False)]))
        with pytest.raises(DomainError):
            check_objectives(sw, 0.5, tolerance=-0.1)

    def test_undefined_snr_gain_is_reported(self):
        sw = sweep(make_dataset([(0.9, False), (0.2, False)]))
        report = check_objectives(sw, baseline_acc=0.0)
        assert set(report.undefined) == {"snr_gain"}
        assert math.isnan(report.diagnostics["snr_gain"])
        assert report.diagnostics["hal_at_1"] == 0.0
        assert not report.hallucination_reduction  # Hal(1) passes; the gain cannot
        assert report.to_dict()["diagnostics"]["snr_gain"] is None

    def test_report_serialization(self):
        sw = sweep(make_dataset([(1.0, True), (1.0, False)]))
        d = check_objectives(sw, 0.5).to_dict()
        assert set(d) == {"adaptive_risk", "accuracy_preservation",
                          "hallucination_reduction", "quantitative_calibration",
                          "all_passed", "diagnostics"}
        # hal never drops for this dataset, so the objective fails
        assert d["hallucination_reduction"] is False
        assert all(v is None or isinstance(v, (bool, float))
                   for v in d["diagnostics"].values())
