"""Calibration metrics against hand computations and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becal.errors import DataError, DomainError
from becal.metrics import (abstention_accuracy, brier_score,
                           calibration_diagram, confidence_auc, metric_report,
                           nll, predictive_accuracy, smece, smece_at_bandwidth)
from becal.model import Dataset, PredictionRecord
from becal.rewards import Action, decide, reward_brier

from conftest import make_dataset, random_dataset


def reference_kernel_sums(grid, p, sigma, weights):
    """SUM_i w_i K_sigma(t, p_i) for each weight vector, as direct sums over the
    mirror images 2j + p and 2j - p of a Gaussian: all images within 12 sigmas
    of [0, 1], and no windowing."""
    sums = np.zeros((grid.size, len(weights)))
    w = np.column_stack(weights)
    j_max = int(math.ceil((1.0 + 12.0 * sigma) / 2.0)) + 1
    for j in range(-j_max, j_max + 1):
        for sgn in (1.0, -1.0):
            centers = 2.0 * j + sgn * p
            z = (grid[:, None] - centers[None, :]) / sigma
            sums += np.exp(-0.5 * z * z) @ w
    return sums / (sigma * math.sqrt(2.0 * math.pi))


def reference_smece_at_bandwidth(p, v, sigma, grid_points=512):
    """Brute-force smoothed residual integral: full image sums, no windowing."""
    grid = np.linspace(0.0, 1.0, grid_points)
    (resid,) = reference_kernel_sums(grid, p, sigma, [v.astype(float) - p]).T
    return float(np.trapezoid(np.abs(resid), grid) / p.size)


def reference_diagram(p, v, sigma, grid_points=201):
    """Smoothed accuracy and confidence density from the direct image sums."""
    grid = np.linspace(0.0, 1.0, grid_points)
    num, den = reference_kernel_sums(grid, p, sigma,
                                     [v.astype(float), np.ones_like(p)]).T
    with np.errstate(invalid="ignore"):
        return num / den, den / p.size


DENSITY_FLOOR = 1e-6  # the diagram reports no accuracy below this density


def pairwise_auc(p, v):
    pos, neg = p[v], p[~v]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


class TestBrier:
    def test_examples(self):
        assert brier_score(make_dataset([(1.0, True)] * 5)) == 0.0
        assert brier_score(make_dataset([(0.5, True), (0.5, False)])) == 0.25
        np.testing.assert_allclose(
            brier_score(make_dataset([(0.8, True), (0.8, False)])), 0.34)

    def test_matches_reward_decomposition(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 400)
        p, v = ds.confidences(), ds.valids()
        rewards = np.array([reward_brier(bool(vi), pi) for pi, vi in zip(p, v)])
        np.testing.assert_allclose(brier_score(ds),
                                   v.mean() - rewards.mean(),
                                   rtol=0, atol=1e-12)


class TestNll:
    def test_examples(self):
        np.testing.assert_allclose(nll(make_dataset([(1.0, True)] * 3)),
                                   -math.log(1 - 1e-6), atol=1e-12)
        np.testing.assert_allclose(nll(make_dataset([(0.5, False)])),
                                   math.log(2))
        np.testing.assert_allclose(nll(make_dataset([(0.0, True)])),
                                   -math.log(1e-6))

    def test_wrong_record_moving_down_helps(self):
        base = nll(make_dataset([(0.6, False), (0.5, True)]))
        moved = nll(make_dataset([(0.4, False), (0.5, True)]))
        assert moved < base

    def test_floor_domain(self):
        with pytest.raises(DomainError):
            nll(make_dataset([(0.5, True)]), floor=0.0)
        with pytest.raises(DomainError):
            nll(make_dataset([(0.5, True)]), floor=0.6)


class TestAuc:
    def test_perfect_separation(self):
        ds = make_dataset([(0.9, True), (0.8, True), (0.3, False), (0.1, False)])
        assert confidence_auc(ds) == 1.0

    def test_all_ties(self):
        ds = make_dataset([(0.5, True), (0.5, False), (0.5, True)])
        assert confidence_auc(ds) == 0.5

    def test_half_split(self):
        ds = make_dataset([(0.9, True), (0.4, True), (0.6, False)])
        assert confidence_auc(ds) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            confidence_auc(make_dataset([(0.5, True), (0.9, True)]))

    def test_rank_sum_equals_pairwise(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ds = random_dataset(rng, int(rng.integers(2, 300)), quantize=20)
            p, v = ds.confidences(), ds.valids()
            np.testing.assert_allclose(confidence_auc(ds), pairwise_auc(p, v),
                                       rtol=0, atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, 500, quantize=50)
        p, v = ds.confidences(), ds.valids()
        base = confidence_auc(ds)
        for f in (lambda x: x ** 3, lambda x: 0.5 + x / 2):
            transformed = make_dataset(zip(f(p), v))
            np.testing.assert_allclose(confidence_auc(transformed), base,
                                       rtol=0, atol=1e-12)


class TestAccuracies:
    def test_abstention_examples(self):
        assert abstention_accuracy(make_dataset([(0.9, True), (0.1, False)])) == 1.0
        assert abstention_accuracy(make_dataset([(0.9, False), (0.1, True)])) == 0.0
        for valid in (True, False):  # a tie is scored as decide decides it
            correct = (decide(0.5, 0.5) is Action.ANS) == valid
            assert abstention_accuracy(make_dataset([(0.5, valid)])) == float(correct)

    def test_abstention_error_partition(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 300, quantize=10)
        p, v = ds.confidences(), ds.valids()
        assert (p == 0.5).any()  # ties answer
        answers = np.array([decide(pi, 0.5) is Action.ANS for pi in p.tolist()])
        errors = np.mean((answers & ~v) | (~answers & v))
        np.testing.assert_allclose(abstention_accuracy(ds) + errors, 1.0,
                                   atol=1e-15)

    def test_predictive(self):
        assert predictive_accuracy(make_dataset([(0.5, True)] * 4)) == 1.0
        assert predictive_accuracy(make_dataset([(0.5, False)] * 4)) == 0.0
        ds = make_dataset([(0.5, i < 3) for i in range(10)])
        assert predictive_accuracy(ds) == 0.3


class TestSmece:
    def test_matches_reference_integrator(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, 200, calibrated=True)
        p, v = ds.confidences(), ds.valids()
        for sigma in (0.03, 0.1, 0.3, 0.8):
            np.testing.assert_allclose(
                smece_at_bandwidth(ds, sigma),
                reference_smece_at_bandwidth(p, v, sigma),
                rtol=0, atol=1e-10)

    def test_fixed_point_against_reference_bisection(self):
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, 400, calibrated=True)
        p, v = ds.confidences(), ds.valids()
        lo, hi = 1.0 / 511.0, 1.0
        f = lambda s: reference_smece_at_bandwidth(p, v, s) - s
        assert f(lo) > 0 > f(hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        value, bandwidth = smece(ds)
        assert abs(bandwidth - 0.5 * (lo + hi)) < 5e-4
        assert abs(value - bandwidth) < 5e-4

    def test_perfect_point_mass(self):
        value, _ = smece(make_dataset([(1.0, True)] * 100))
        assert value <= 0.005

    def test_constant_wrong(self):
        """All mass at p=0.8 with zero accuracy: the residual is the full 0.8."""
        value, bandwidth = smece(make_dataset([(0.8, False)] * 50))
        assert 0.5 <= value <= 0.8 + 1e-9
        assert value > 0.3
        np.testing.assert_allclose(value, 0.8, atol=1e-3)
        np.testing.assert_allclose(bandwidth, 0.8, atol=1e-3)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(41)
        ds = random_dataset(rng, 500, calibrated=True)
        order = rng.permutation(len(ds))
        shuffled = Dataset(records=tuple(ds.records[i] for i in order))
        assert smece(ds)[0] == smece(shuffled)[0]

    def test_calibrated_is_small(self):
        rng = np.random.default_rng(43)
        ds = random_dataset(rng, 4000, calibrated=True)
        value, _ = smece(ds)
        assert value <= 0.04

    def test_series_at_the_smallest_and_largest_bandwidths(self):
        rng = np.random.default_rng(33)
        ds = random_dataset(rng, 150, quantize=30, calibrated=True)
        p, v = ds.confidences(), ds.valids()
        assert {0.0, 1.0} <= set(p)
        for sigma in (1e-4, 1.0 / 511.0, 1.0, 3.0):
            np.testing.assert_allclose(
                smece_at_bandwidth(ds, sigma),
                reference_smece_at_bandwidth(p, v, sigma),
                rtol=0, atol=1e-10)

    def test_needs_two_records(self):
        with pytest.raises(DataError):
            smece(make_dataset([(0.5, True)]))

    def test_missing_confidence_rejected(self):
        ds = Dataset(records=(PredictionRecord(id="a", valid=True),
                              PredictionRecord(id="b", valid=False)))
        with pytest.raises(DataError):
            smece(ds)

    @staticmethod
    def _with_residual(monkeypatch, residual):
        """smece(ds) with smECE_sigma = sigma + residual(sigma), and every
        sigma it evaluated."""
        seen = []

        def fake(grid, moments, sigma, n):
            seen.append(sigma)
            return sigma + residual(sigma)

        monkeypatch.setattr("becal.metrics._smece_at", fake)
        return smece(make_dataset([(0.2, False), (0.9, True)])), seen

    def test_rising_residual_falls_back_to_a_dense_scan(self, monkeypatch):
        """Roots at 0.05, 0.3 and 0.7: the residual is negative on the
        9-point ladder at 0.21 and positive at 0.46, so it rises there."""
        residual = lambda s: -(s - 0.05) * (s - 0.3) * (s - 0.7)
        (value, bandwidth), seen = self._with_residual(monkeypatch, residual)
        dense = np.geomspace(1.0 / 511.0, 1.0, 64)
        assert set(dense) <= set(seen)
        i = int(np.argmax([residual(s) <= 0.0 for s in dense]))
        assert dense[i - 1] <= bandwidth <= dense[i] and dense[i] < 0.3
        assert abs(bandwidth - 0.05) < 1e-4
        assert value == bandwidth + residual(bandwidth)

    def test_residual_positive_at_one_gives_one(self, monkeypatch):
        (value, bandwidth), seen = self._with_residual(monkeypatch, lambda s: 0.1)
        assert (value, bandwidth) == (1.1, 1.0)
        assert len(seen) == 10  # the 9-point ladder and f(1): no scan, no bisection


CONFIDENCES = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                        st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(CONFIDENCES, st.booleans()), min_size=2, max_size=300),
       st.floats(1.0 / 511.0, 1.0))
def test_series_matches_direct_sum(pairs, sigma):
    """The cosine series equals the reflected-image sum, ties and endpoints included."""
    ds = make_dataset(pairs)
    p, v = ds.confidences(), ds.valids()
    np.testing.assert_allclose(smece_at_bandwidth(ds, sigma),
                               reference_smece_at_bandwidth(p, v, sigma),
                               rtol=0, atol=1e-10)


class TestDiagramOracle:
    def assert_matches_oracle(self, ds, bw):
        diagram = calibration_diagram(ds, bw)
        acc, density = reference_diagram(ds.confidences(), ds.valids(), bw)
        assert np.all(diagram.density >= 0.0)
        np.testing.assert_allclose(diagram.density, density, rtol=0, atol=1e-10)
        defined = diagram.density >= DENSITY_FLOOR
        assert np.all(np.isnan(diagram.smoothed_accuracy[~defined]))
        np.testing.assert_allclose(diagram.smoothed_accuracy[defined],
                                   acc[defined], rtol=0, atol=1e-8)
        return diagram

    @pytest.mark.parametrize("bw", [3e-5, 1e-4, 1e-3, 0.03, 0.2, 1.0])
    def test_random(self, bw):
        rng = np.random.default_rng(61)
        ds = random_dataset(rng, 300, quantize=40, calibrated=True)
        diagram = self.assert_matches_oracle(ds, bw)
        assert np.isnan(diagram.smoothed_accuracy).any() == (bw <= 1e-3)

    def test_mixed_point_mass(self):
        """Without the floor, round-off in the empty tails gives accuracies
        far outside [0, 1]."""
        ds = make_dataset([(0.8, True)] * 30 + [(0.8, False)] * 30)
        diagram = self.assert_matches_oracle(ds, 0.03)
        defined = ~np.isnan(diagram.smoothed_accuracy)
        assert defined[0:2].sum() == 0 and defined.sum() > 20
        np.testing.assert_allclose(diagram.smoothed_accuracy[defined], 0.5,
                                   rtol=0, atol=1e-8)

    def test_smece_diagram_on_its_grid(self):
        rng = np.random.default_rng(67)
        ds = random_dataset(rng, 400, calibrated=True)
        _, bandwidth = smece(ds)
        diagram = calibration_diagram(ds, bandwidth, grid_points=512)
        acc, density = reference_diagram(ds.confidences(), ds.valids(),
                                         bandwidth, grid_points=512)
        np.testing.assert_allclose(diagram.density, density, rtol=0, atol=1e-10)
        defined = diagram.density >= DENSITY_FLOOR
        np.testing.assert_allclose(diagram.smoothed_accuracy[defined],
                                   acc[defined], rtol=0, atol=1e-8)


class TestDiagram:
    def test_default_grid_and_mass(self):
        rng = np.random.default_rng(47)
        ds = random_dataset(rng, 500, calibrated=True)
        for bw in (0.02, 0.05, 0.2):
            diagram = calibration_diagram(ds, bw)
            assert diagram.grid.size == 201
            mass = np.trapezoid(diagram.density, diagram.grid)
            np.testing.assert_allclose(mass, 1.0, atol=1e-3)
            defined = ~np.isnan(diagram.smoothed_accuracy)
            assert np.all(diagram.smoothed_accuracy[defined] >= -1e-12)
            assert np.all(diagram.smoothed_accuracy[defined] <= 1 + 1e-12)

    def test_calibrated_curve_tracks_identity(self):
        rng = np.random.default_rng(53)
        ds = random_dataset(rng, 10_000, calibrated=True)
        diagram = calibration_diagram(ds, 0.05)
        busy = diagram.density > 0.1
        assert busy.any()
        np.testing.assert_allclose(diagram.smoothed_accuracy[busy],
                                   diagram.grid[busy], atol=0.05)

    def test_point_mass_concentration(self):
        diagram = calibration_diagram(make_dataset([(0.8, True)] * 60), 0.03)
        at = int(np.argmin(np.abs(diagram.grid - 0.8)))
        np.testing.assert_allclose(diagram.smoothed_accuracy[at], 1.0, atol=1e-6)
        assert diagram.grid[int(np.argmax(diagram.density))] == pytest.approx(
            0.8, abs=0.01)

    def test_low_density_flag(self):
        diagram = calibration_diagram(make_dataset([(0.8, True)] * 60), 0.03)
        flags = diagram.low_density()
        assert flags.dtype == bool
        assert flags[0] and not flags[int(np.argmin(np.abs(diagram.grid - 0.8)))]

    def test_bandwidth_domain(self):
        ds = make_dataset([(0.5, True), (0.6, False)])
        for bad in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                calibration_diagram(ds, bad)
            with pytest.raises(DomainError):
                smece_at_bandwidth(ds, bad)

    def test_grid_needs_two_points(self):
        ds = make_dataset([(0.5, True), (0.6, False)])
        with pytest.raises(DomainError):
            calibration_diagram(ds, 0.1, grid_points=1)
        with pytest.raises(DomainError):
            smece(ds, grid_points=1)
        assert smece_at_bandwidth(ds, 0.1, grid_points=2) >= 0.0


class TestMetricReport:
    def test_all_fields(self):
        rng = np.random.default_rng(59)
        ds = random_dataset(rng, 300, calibrated=True)
        report, bandwidth = metric_report(ds)
        assert report.n == 300
        assert report.smece == smece(ds)[0]
        assert report.brier == brier_score(ds)
        assert report.nll == nll(ds)
        assert report.auc == confidence_auc(ds)
        assert report.abstention_accuracy == abstention_accuracy(ds)
        assert report.predictive_accuracy == predictive_accuracy(ds)
        assert bandwidth == smece(ds)[1] > 0
        d = report.to_dict()
        assert list(d) == list(report.CSV_HEADER)
