"""Risk sweeps, SNR arithmetic, and the behavioral objective checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becal.behavior import (check_objectives, default_grid, snr_gain,
                            snr_interval, snr_point, sweep)
from becal.errors import DataError, DomainError
from becal.rewards import Action, decide

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

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_epsilon_domain(self, eps):
        sw = sweep(make_dataset([(0.9, True)]))  # Hal is 0 everywhere
        with pytest.raises(DomainError):
            snr_point(sw, 0.5, epsilon_h=eps)
        with pytest.raises(DomainError):
            snr_interval(sw, 0.0, 1.0, epsilon_h=eps)


class TestSnrInterval:
    def test_linear_curves(self):
        """Two valid and one invalid record at each grid point above 0.

        Acc and Hal fall linearly in t with Acc = 2 Hal, so every on-grid
        slice has SNR exactly 2.
        """
        grid = default_grid()
        pairs = [(p, v) for p in grid[1:] for v in (True, True, False)]
        sw = sweep(make_dataset(pairs), grid)
        np.testing.assert_array_equal(sw.acc[1:], 2.0 * sw.hal[1:])
        assert snr_interval(sw, 0.0, 1.0) == 2.0
        assert snr_interval(sw, 0.4, 0.6) == 2.0

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

    def test_off_grid_endpoint_rejected(self):
        sw = sweep(make_dataset([(0.9, True)] * 3 + [(0.2, False)]))
        for lo, hi in [(0.05, 0.9501), (0.0, 0.955), (0.005, 1.0)]:
            with pytest.raises(DomainError):
                snr_interval(sw, lo, hi)
            with pytest.raises(DomainError):
                snr_interval(sw, lo, hi, epsilon_h=1e-9)

    def test_non_uniform_grid_rejected(self):
        grid = np.array([0.0, 0.1, 0.5, 1.0])
        sw = sweep(make_dataset([(0.9, True), (0.2, False)]), grid)
        assert snr_point(sw, 0.5) == 1.0 / 0.5  # one threshold needs no step
        with pytest.raises(DomainError):
            snr_interval(sw, 0.0, 1.0)
        with pytest.raises(DomainError):
            snr_interval(sw, 0.1, 0.5, epsilon_h=1e-9)
        with pytest.raises(DomainError):
            snr_gain(sw)


def trapezoid_snr(grid, acc, hal, lo, hi, epsilon_h):
    """Float trapezoid of the curves over [lo, hi], the oracle for snr_interval."""
    xs = np.concatenate(([lo], grid[(grid > lo) & (grid < hi)], [hi]))
    i_acc = np.trapezoid(np.interp(xs, grid, acc), xs)
    i_hal = np.trapezoid(np.interp(xs, grid, hal), xs)
    return float(i_acc / max(i_hal, epsilon_h * (hi - lo)))


CONFIDENCES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                        st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(CONFIDENCES, st.booleans()), min_size=1, max_size=200),
       st.integers(2, 60), st.data())
def test_counts_match_direct_decisions(pairs, points, data):
    """Curves equal a count of decide's decisions at each threshold, bit for
    bit, with some confidences on grid points so ties are counted, and the
    count SNR on any on-grid interval equals the float trapezoid."""
    grid = default_grid(points)
    ties = data.draw(st.lists(st.tuples(st.sampled_from(grid.tolist()), st.booleans()),
                              min_size=1, max_size=20))
    ds = make_dataset(pairs + ties)
    sw = sweep(ds, grid)
    p, v = ds.confidences(), ds.valids()
    n = p.size
    for i, t in enumerate(grid.tolist()):
        answers = np.array([decide(pi, t) is Action.ANS for pi in p.tolist()])
        av = int(np.sum(answers & v))
        ai = int(np.sum(answers & ~v))
        bv = int(np.sum(~answers & v))
        ans, abstained = av + ai, n - av - ai
        assert (sw.ans_valid[i], sw.ans_invalid[i], sw.abs_valid[i]) == (av, ai, bv)
        assert sw.acc[i] == av / n and sw.hal[i] == ai / n
        assert sw.abs[i] == abstained / n
        assert (sw.tp[i] == av / ans) if ans else math.isnan(sw.tp[i])
        assert (sw.fn[i] == bv / abstained) if abstained else math.isnan(sw.fn[i])
    i0 = data.draw(st.integers(0, points - 2))
    i1 = data.draw(st.integers(i0 + 1, points - 1))
    lo, hi = float(grid[i0]), float(grid[i1])
    want = trapezoid_snr(grid, sw.acc, sw.hal, lo, hi, 1.0 / (2 * n))
    assert snr_interval(sw, lo, hi) == pytest.approx(want, rel=1e-12, abs=0)
    eps = data.draw(st.floats(1e-6, 1.0))
    want = trapezoid_snr(grid, sw.acc, sw.hal, lo, hi, eps)
    assert snr_interval(sw, lo, hi, eps) == pytest.approx(want, rel=1e-12, abs=0)


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
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                check_objectives(sw, 0.5, tolerance=bad)
        assert check_objectives(sw, 0.5, tolerance=0.0).diagnostics["tolerance"] == 0.0

    def test_baseline_domain(self):
        sw = sweep(make_dataset([(0.5, True), (0.6, False)]))
        for bad in (-1.0, 1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                check_objectives(sw, bad)
        for ok in (0.0, 1.0):
            assert check_objectives(sw, ok).diagnostics["baseline_acc"] == ok

    def test_explicit_epsilon_keeps_the_floor_arithmetic(self):
        rng = np.random.default_rng(79)
        sw = sweep(random_dataset(rng, 300, quantize=20))
        n, eps = sw.n, 1e-3
        i = 50  # t = 0.5
        assert snr_point(sw, 0.5, eps) == \
            int(sw.ans_valid[i]) / max(int(sw.ans_invalid[i]), float(n) * eps)
        s_hal = int(sw.ans_invalid[0] + sw.ans_invalid[-1]
                    + 2 * sw.ans_invalid[1:-1].sum())
        s_acc = int(sw.ans_valid[0] + sw.ans_valid[-1]
                    + 2 * sw.ans_valid[1:-1].sum())
        assert snr_interval(sw, 0.0, 1.0, eps) == s_acc / max(s_hal, 2.0 * n * eps * 100)

    def test_undefined_conditionals_are_reported(self):
        """Everyone answers at every threshold: FN is never defined."""
        sw = sweep(make_dataset([(1.0, True), (1.0, False)]))
        report = check_objectives(sw, 0.5)
        assert report.undefined == {
            "worst_fn_excess": "nobody abstains at any threshold"}
        assert math.isnan(report.diagnostics["worst_fn_excess"])
        assert report.to_dict()["diagnostics"]["worst_fn_excess"] is None
        assert report.diagnostics["worst_tp_margin"] == 0.5 - 1.0

    def test_nobody_answering_is_reported(self):
        """A grid starting above every confidence (0 is on it within the grid
        tolerance): nobody answers, so TP and the SNR gain are undefined."""
        sw = sweep(make_dataset([(0.0, True), (0.0, False)]), np.linspace(5e-10, 1.0, 11))
        report = check_objectives(sw, 0.5)
        assert report.undefined["worst_tp_margin"] == "nobody answers at any threshold"
        assert set(report.undefined) == {"worst_tp_margin", "snr_gain"}
        assert report.to_dict()["diagnostics"]["worst_tp_margin"] is None

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
