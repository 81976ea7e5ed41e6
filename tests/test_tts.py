"""Test-time scaling strategies and their exact-enumeration oracles."""

import random
from fractions import Fraction

import pytest

from becal.errors import DataError, DomainError
from becal.model import Dataset
from becal.tts import (STRATEGIES, SampleGroup, exact_expected_accuracy,
                       group_records, scaling_curve)

from conftest import make_dataset, make_grouped


def at_k(groups, strategy, k, seed=0):
    """Accuracy of one paired draw per group at k: a one-point, one-resample curve."""
    return scaling_curve(groups, strategy, [k], 1, seed)[0].mean


def paradox_groups():
    """Equal confidence within each group: selection carries no information."""
    return group_records(make_grouped([
        ("q1", "A", 0.5, True), ("q1", "B", 0.5, False),
        ("q2", "A", 0.7, True), ("q2", "B", 0.7, False), ("q2", "C", 0.7, False),
    ]))


class TestGrouping:
    def test_buckets_sorted(self):
        ds = make_grouped([("b", "x", 0.1, True), ("a", "y", 0.2, False),
                           ("b", "z", 0.3, True)])
        groups = group_records(ds)
        assert [g.group for g in groups] == ["a", "b"]
        assert groups[1].size == 2

    def test_canonical_sample_order(self):
        rows = [("g", "B", 0.4, False), ("g", "A", 0.9, True),
                ("g", "A", 0.2, False)]
        a = group_records(make_grouped(rows))
        b = group_records(make_grouped(rows[::-1]))
        assert a == b

    def test_mixed_grouping_rejected(self):
        ds = make_grouped([("g", "A", 0.5, True), (None, "B", 0.5, False)])
        with pytest.raises(DataError, match="r1"):
            group_records(ds)

    def test_all_ungrouped_rejected(self):
        with pytest.raises(DataError):
            group_records(make_dataset([(0.5, True), (0.6, False)]))
        with pytest.raises(DataError):
            group_records(Dataset(records=(), label="empty"))

    def test_empty_group_rejected(self):
        with pytest.raises(DataError):
            SampleGroup(group="g", samples=())


class TestMeanBest:
    def test_all_valid(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, True)] * 3 + [("h", "A", 0.5, True)] * 3))
        assert at_k(groups, "mean", 2) == 1.0
        assert at_k(groups, "best", 3) == 1.0

    def test_full_draw_is_exact(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, True), ("g", "B", 0.5, False)]))
        assert at_k(groups, "mean", 2) == 0.5
        assert exact_expected_accuracy(groups, 2, "mean") == Fraction(1, 2)

    def test_best_two_of_three(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, True), ("g", "B", 0.5, False),
             ("g", "C", 0.5, False)]))
        assert exact_expected_accuracy(groups, 2, "best") == Fraction(2, 3)

    def test_no_valid_samples(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, False), ("g", "B", 0.6, False)]))
        assert at_k(groups, "best", 2) == 0.0

    def test_mean_never_exceeds_best(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, True), ("g", "B", 0.5, False),
             ("h", "A", 0.5, False), ("h", "B", 0.5, True),
             ("h", "C", 0.5, True)]))
        for k in (1, 2):
            for seed in range(10):
                assert at_k(groups, "mean", k, seed) <= at_k(groups, "best", k, seed)
            assert exact_expected_accuracy(groups, k, "mean") <= \
                exact_expected_accuracy(groups, k, "best")


class TestMajority:
    def test_clear_majority(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, True), ("g", "A", 0.5, True),
             ("g", "B", 0.5, False)]))
        assert at_k(groups, "majority", 3) == 1.0

    def test_tie_breaks_by_confidence(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.9, True), ("g", "B", 0.4, False)]))
        assert at_k(groups, "majority", 2) == 1.0
        # flipping which answer is valid flips the outcome
        flipped = group_records(make_grouped(
            [("g", "A", 0.9, False), ("g", "B", 0.4, True)]))
        assert at_k(flipped, "majority", 2) == 0.0

    def test_unanimous_wrong(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, False), ("g", "A", 0.5, False)]))
        assert at_k(groups, "majority", 2) == 0.0

    def test_full_tie_lexicographic(self):
        groups = group_records(make_grouped(
            [("g", "B", 0.5, True), ("g", "A", 0.5, False)]))
        assert at_k(groups, "majority", 2) == 0.0  # A wins the lexicographic tie


class TestMaxconf:
    def test_unique_max(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.9, True), ("g", "B", 0.8, False)]))
        assert at_k(groups, "maxconf", 2) == 1.0

    def test_paradox_no_discrimination(self):
        groups = paradox_groups()
        expected = exact_expected_accuracy(groups, 2, "maxconf")
        assert expected == Fraction(5, 12)
        # equal to the base validity rate: mean of 1/2 and 1/3
        assert exact_expected_accuracy(groups, 1, "mean") == Fraction(5, 12)

    def test_single_group_coin_flip(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, True), ("g", "B", 0.5, False)]))
        assert exact_expected_accuracy(groups, 2, "maxconf") == Fraction(1, 2)

    def test_all_wrong(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, False), ("g", "B", 0.5, False)]))
        assert at_k(groups, "maxconf", 2) == 0.0


class TestMajconf:
    def test_weight_sum_beats_count(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.9, False), ("g", "B", 0.5, True),
             ("g", "B", 0.5, True)]))
        assert at_k(groups, "majconf", 3) == 1.0  # B: 1.0 vs A: 0.9
        assert at_k(groups, "majority", 3) == 1.0

    def test_single_answer(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.1, True), ("g", "A", 0.2, True)]))
        assert at_k(groups, "majconf", 2) == 1.0

    def test_equal_weights_reduce_to_majority(self):
        rows = [("g", "A", 0.5, True), ("g", "B", 0.5, False),
                ("g", "A", 0.5, True), ("g", "C", 0.5, False),
                ("h", "B", 0.5, False), ("h", "B", 0.5, False),
                ("h", "A", 0.5, True)]
        groups = group_records(make_grouped(rows))
        for k in (1, 2, 3):
            assert exact_expected_accuracy(groups, k, "majconf") == \
                exact_expected_accuracy(groups, k, "majority")
            for seed in range(5):
                assert at_k(groups, "majconf", k, seed) == \
                    at_k(groups, "majority", k, seed)


class TestPreconditions:
    def test_missing_answer(self):
        groups = group_records(make_grouped(
            [("g", None, 0.5, True), ("g", "B", 0.5, False)]))
        with pytest.raises(DataError, match="'g'"):
            at_k(groups, "majority", 1)
        with pytest.raises(DataError, match="'g'"):
            at_k(groups, "majconf", 1)
        assert at_k(groups, "mean", 2) == 0.5  # mean does not need answers

    def test_missing_confidence(self):
        groups = group_records(make_grouped(
            [("g", "A", None, True), ("g", "B", 0.5, False)]))
        with pytest.raises(DataError, match="'g'"):
            at_k(groups, "maxconf", 1)
        assert at_k(groups, "best", 2) == 1.0

    def test_k_bounds(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, True), ("g", "B", 0.5, False)]))
        with pytest.raises(DomainError):
            at_k(groups, "mean", 3)
        with pytest.raises(DomainError):
            at_k(groups, "mean", 0)

    def test_unknown_strategy(self):
        groups = group_records(make_grouped([("g", "A", 0.5, True)]))
        with pytest.raises(DomainError):
            exact_expected_accuracy(groups, 1, "oracle")
        with pytest.raises(DataError):
            scaling_curve([], "mean", [1], 10)

    def test_enumeration_guard(self):
        rows = [("g", f"A{i}", 0.5, i == 0) for i in range(10)]
        groups = group_records(make_grouped(rows))
        with pytest.raises(DomainError, match="enumeration limit"):
            exact_expected_accuracy(groups, 9, "mean")


class TestDeterminism:
    def test_order_invariance(self):
        rows = [("g", "A", 0.9, True), ("g", "B", 0.4, False),
                ("g", "C", 0.7, False), ("h", "A", 0.3, True),
                ("h", "A", 0.8, True), ("h", "B", 0.6, False)]
        shuffled = rows[:]
        random.Random(5).shuffle(shuffled)
        a = group_records(make_grouped(rows))
        b = group_records(make_grouped(shuffled))
        for strategy in STRATEGIES:
            for k in (1, 2, 3):
                assert at_k(a, strategy, k, seed=7) == at_k(b, strategy, k, seed=7)

    def test_paired_draws_at_k1(self):
        groups = paradox_groups()
        values = {at_k(groups, strategy, 1, seed=3) for strategy in STRATEGIES}
        assert len(values) == 1  # same single draw, same verdict


class TestScalingCurve:
    def test_single_resample_stderr(self):
        groups = paradox_groups()
        curve = scaling_curve(groups, "mean", [1, 2], n_resamples=1, seed=0)
        assert [pt.stderr for pt in curve] == [0.0, 0.0]
        assert [pt.k for pt in curve] == [1, 2]

    def test_full_draw_deterministic_point(self):
        groups = group_records(make_grouped(
            [("g", "A", 0.5, True), ("g", "B", 0.5, False)]))
        curve = scaling_curve(groups, "mean", [2], n_resamples=50, seed=0)
        assert curve[0].mean == 0.5 and curve[0].stderr == 0.0

    def test_best_non_decreasing_exactly(self):
        rows = [("g", "A", 0.5, True), ("g", "B", 0.5, False),
                ("g", "C", 0.5, False), ("g", "D", 0.5, False),
                ("h", "A", 0.5, False), ("h", "B", 0.5, True),
                ("h", "C", 0.5, False), ("h", "D", 0.5, True)]
        groups = group_records(make_grouped(rows))
        exact = [exact_expected_accuracy(groups, k, "best") for k in (1, 2, 3, 4)]
        assert all(lo <= hi for lo, hi in zip(exact, exact[1:]))
        assert exact[-1] == 1

    def test_monte_carlo_tracks_exact(self):
        groups = paradox_groups()
        curve = scaling_curve(groups, "maxconf", [2], n_resamples=2_000, seed=1)
        exact = float(exact_expected_accuracy(groups, 2, "maxconf"))
        assert curve[0].mean == pytest.approx(exact, abs=5 * curve[0].stderr)

    def test_validation(self):
        groups = paradox_groups()
        with pytest.raises(DomainError):
            scaling_curve(groups, "mean", [1], n_resamples=0)
        with pytest.raises(DomainError):
            scaling_curve(groups, "mean", [], n_resamples=5)
        with pytest.raises(DomainError):
            scaling_curve(groups, "mean", [1, 99], n_resamples=5)
