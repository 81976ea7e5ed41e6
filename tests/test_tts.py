"""Test-time scaling strategies and their brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from becal import tts
from becal.errors import DataError, DomainError
from becal.model import Dataset
from becal.simulate import generate_ensemble
from becal.tts import (STRATEGIES, SampleGroup, _batches, _closed_form, _score,
                       _vote_hits, exact_expected_accuracy, group_records, scaling_curve)

from conftest import make_dataset, make_grouped


def at_k(groups, strategy, k, seed=0):
    """Accuracy at k from a one-point, one-resample curve.

    Exact unless a majority/majconf group has more than STATES_PER_DRAW
    states; then it is one paired draw for that group.
    """
    return scaling_curve(groups, strategy, [k], 1, seed)[0].mean


def enumerated(grp, strategy, k):
    """Exact majority or majconf accuracy of one group: the mean over its k-subsets."""
    hits = sum(_score(subset, strategy)
               for subset in itertools.combinations(grp.samples, k))
    return Fraction(hits, math.comb(grp.size, k))


def scored(drawn, strategy):
    """One ordered draw's accuracy; maxconf's ties go to the first drawn."""
    if strategy == "mean":
        return Fraction(sum(v for _, _, v in drawn), len(drawn))
    if strategy == "best":
        return int(any(v for _, _, v in drawn))
    if strategy == "maxconf":
        best = drawn[0]
        for sample in drawn[1:]:
            if sample[1] > best[1]:
                best = sample
        return int(best[2])
    return _score(drawn, strategy)


def permuted(groups, k, strategy):
    """Exact expected accuracy at k: every ordered k-draw of each group scored in turn."""
    return sum(Fraction(sum(scored(drawn, strategy)
                            for drawn in itertools.permutations(grp.samples, k)),
                        math.perm(grp.size, k))
               for grp in groups) / len(groups)


def tabled(grp, strategy, ks):
    """The table path's exact value of one group at each k."""
    (_, table), = _batches([grp], cap=math.inf)
    hits, = _vote_hits(table, strategy, list(ks))
    return [Fraction(int(h), math.comb(grp.size, k)) for h, k in zip(hits, ks)]


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


def grid_groups(rng, n_groups, size):
    """Random groups with confidences on a 0.05 grid, as verbalized ones are."""
    return group_records(make_grouped(
        (f"g{g}", answer, rng.randint(1, 19) / 20, answer == "A")
        for g in range(n_groups)
        for answer in (rng.choice("AABCD") for _ in range(size))))


@pytest.fixture()
def forced_draws(monkeypatch):
    """Every majority/majconf group is drawn, none tabled."""
    monkeypatch.setattr(tts, "STATES_PER_DRAW", 0)


class TestOrderFreeVotes:
    """A vote depends on the set of samples drawn, not on the draw order."""

    def test_score_is_permutation_invariant(self):
        rng = random.Random(17)
        for grp in grid_groups(rng, 300, 6):
            for strategy in ("majority", "majconf"):
                assert len({_score(list(order), strategy)
                            for order in itertools.permutations(grp.samples)}) == 1

    def test_full_draws_agree_across_resamples(self, forced_draws):
        groups = grid_groups(random.Random(23), 200, 16)
        for strategy in ("majority", "majconf"):
            point, = scaling_curve(groups, strategy, [16], n_resamples=8, seed=3)
            assert not point.exact and point.stderr == 0.0, strategy


def ragged_groups(rng, n_groups, sizes=(1, 7)):
    """Groups of random size with grid confidences and mixed answers."""
    return group_records(make_grouped(
        (f"g{g}", rng.choice("AABCD"), rng.randint(1, 19) / 20, rng.random() < 0.5)
        for g in range(n_groups) for _ in range(rng.randint(*sizes))))


class TestExactPaths:
    """Closed forms and vote tables agree with the permutation oracle."""

    def test_every_strategy_every_k(self):
        for grp in ragged_groups(random.Random(3), 40):
            ks = range(1, grp.size + 1)
            for strategy in STRATEGIES:
                oracle = [permuted([grp], k, strategy) for k in ks]
                assert [exact_expected_accuracy([grp], k, strategy) for k in ks] == oracle
                if strategy in ("majority", "majconf"):
                    assert tabled(grp, strategy, ks) == oracle, strategy
                else:
                    assert [_closed_form(grp, strategy, k) for k in ks] == oracle, strategy
                # n samples give at most 2^n states, within 32 x 5 resamples x n k
                curve = scaling_curve([grp], strategy, ks, n_resamples=5)
                assert [(pt.mean, pt.stderr, pt.exact) for pt in curve] == \
                    [(float(f), 0.0, True) for f in oracle], strategy

    def test_dataset_points(self):
        groups = grid_groups(random.Random(8), 30, 6)
        for strategy in STRATEGIES:
            oracle = [permuted(groups, k, strategy) for k in range(1, 7)]
            assert [exact_expected_accuracy(groups, k, strategy)
                    for k in range(1, 7)] == oracle, strategy
            curve = scaling_curve(groups, strategy, range(1, 7), n_resamples=3, seed=2)
            assert [(pt.mean, pt.stderr, pt.exact) for pt in curve] == [
                (float(f), 0.0, True) for f in oracle], strategy

    def test_exact_value_at_every_benchmark_k(self):
        # 16 samples at k = 8 have 518,918,400 ordered draws; the tables need
        # no enumeration, and every point of the curves is the exact value
        groups = grid_groups(random.Random(1), 20, 16)
        ks = (1, 2, 4, 8, 16)
        for strategy in STRATEGIES:
            curve = scaling_curve(groups, strategy, ks, n_resamples=100)
            assert [(pt.mean, pt.stderr, pt.exact) for pt in curve] == [
                (float(exact_expected_accuracy(groups, k, strategy)), 0.0, True)
                for k in ks], strategy

    def test_state_limit_is_inclusive(self):
        # two answers at one confidence: sizes 0..m of each, size + 2 states
        limit = tts.STATES_PER_DRAW * 2
        for size, exact in ((limit - 2, True), (limit - 1, False)):
            groups = group_records(make_grouped(
                ("g", "AB"[s % 2], 0.5, s % 2 == 0) for s in range(size)))
            point, = scaling_curve(groups, "majority", [1], n_resamples=2)
            assert point.exact is exact, size
            assert (point.tabled, point.states) == ((1, limit) if exact else (0, 0))

    def test_more_than_62_samples_are_drawn(self):
        # counts of 63 samples' subsets need not fit int64, however few states
        for size, exact in ((62, True), (63, False)):
            groups = group_records(make_grouped(
                (f"g{g}", "A", 0.5, s % 2 == 0) for g in range(4) for s in range(size)))
            for strategy in ("majority", "majconf"):
                curve = scaling_curve(groups, strategy, [1, 31, size], n_resamples=5)
                assert [pt.exact for pt in curve] == [exact] * 3, size
                if exact:  # the one answer always wins, so the vote is best's
                    best = scaling_curve(groups, "best", [1, 31, size], n_resamples=5)
                    assert [pt.mean for pt in curve] == [pt.mean for pt in best]

    def test_tabled_and_drawn_groups_mix(self):
        # the 63-sample groups are drawn, the 3- and 4-sample ones tabled
        small = ragged_groups(random.Random(5), 12, sizes=(3, 4))
        large = [SampleGroup(group="big" + grp.group, samples=grp.samples)
                 for grp in ragged_groups(random.Random(6), 8, sizes=(63, 63))]
        for strategy in ("majority", "majconf"):
            point, = scaling_curve(small + large, strategy, [3], n_resamples=5, seed=9)
            assert not point.exact and point.stderr > 0.0
            assert (point.tabled, point.drawn, point.draws) == (12, 8, 40)
            # each resample adds the exact small-group sum to the same draws
            drawn, = scaling_curve(large, strategy, [3], n_resamples=5, seed=9)
            known = sum(permuted([g], 3, strategy) for g in small)
            assert point.mean == pytest.approx(
                (float(known) + drawn.mean * len(large)) / len(small + large), abs=1e-12)
            assert point.stderr == pytest.approx(
                drawn.stderr * len(large) / len(small + large), abs=1e-12)


class TestVoteTables:
    """The table path equals subset enumeration as a fraction, group by group."""

    @staticmethod
    def assert_oracle(groups, ks=None):
        """Tables against subset enumeration and exact_expected_accuracy at
        every k, and against the permutation oracle where it has at most
        2,000 ordered draws."""
        for grp in groups:
            ks_g = list(ks or range(1, grp.size + 1))
            for strategy in ("majority", "majconf"):
                got = tabled(grp, strategy, ks_g)
                assert got == [enumerated(grp, strategy, k) for k in ks_g], (grp, strategy)
                for k, value in zip(ks_g, got):
                    assert value == exact_expected_accuracy([grp], k, strategy)
                    if math.perm(grp.size, k) <= 2_000:
                        assert value == permuted([grp], k, strategy)

    def test_ragged_groups(self):
        self.assert_oracle(ragged_groups(random.Random(11), 60, sizes=(1, 9)))

    def test_grid_groups(self):
        self.assert_oracle(grid_groups(random.Random(12), 20, 10))

    def test_continuous_confidences(self):
        self.assert_oracle(group_records(generate_ensemble(6, 12, seed=4)))

    def test_answers_mix_valid_and_invalid_samples(self):
        rng = random.Random(13)
        self.assert_oracle(group_records(make_grouped(
            (f"g{g}", rng.choice("AB"), rng.choice((0.25, 0.5, 0.75, 0.3)),
             rng.random() < 0.5)
            for g in range(30) for _ in range(rng.randint(2, 9)))))

    def test_many_answers_and_k_subsets(self):
        rng = random.Random(14)
        self.assert_oracle(group_records(make_grouped(
            (f"g{g}", rng.choice("ABCDEFG"), rng.randint(0, 4) / 4, rng.random() < 0.4)
            for g in range(10) for _ in range(10))), ks=(2, 5, 7))

    def test_batches_match_single_groups(self, monkeypatch):
        groups = ragged_groups(random.Random(15), 50, sizes=(3, 8))
        monkeypatch.setattr(tts, "_BATCH_STATES", 16)
        assert len(list(_batches(groups, math.inf))) > 1
        for strategy in ("majority", "majconf"):
            curve = scaling_curve(groups, strategy, [1, 2, 3], n_resamples=5)
            assert [pt.mean for pt in curve] == [
                float(sum(enumerated(g, strategy, k) for g in groups) / len(groups))
                for k in (1, 2, 3)]

    def test_key_tie_broken_by_name_only(self):
        # 0.3 + 0.2 and 0.25 + 0.25 are both exactly 0.5: equal counts and sums
        rows = [("g", "A", 0.3, False), ("g", "A", 0.2, False),
                ("g", "B", 0.25, True), ("g", "B", 0.25, True)]
        grp, = group_records(make_grouped(rows))
        for strategy in ("majority", "majconf"):
            assert tabled(grp, strategy, [4]) == [0] == [enumerated(grp, strategy, 4)]
        flipped, = group_records(make_grouped(
            (g, "BA"["AB".index(a)], c, v) for g, a, c, v in rows))
        for strategy in ("majority", "majconf"):
            assert tabled(flipped, strategy, [4]) == [1]

    def test_rounded_tie(self):
        # B's exact sum is 1 + 2^-54, A's 1, but both fsum to 1.0: a tie, so A wins
        low, high = 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53
        assert math.fsum([low, high]) == 1.0 and Fraction(low) + Fraction(high) > 1
        grp, = group_records(make_grouped(
            [("g", "A", 0.5, False), ("g", "A", 0.5, False),
             ("g", "B", low, True), ("g", "B", high, True)]))
        for strategy in ("majority", "majconf"):
            assert tabled(grp, strategy, [4]) == [0] == [enumerated(grp, strategy, 4)]
            assert tabled(grp, strategy, [1, 2, 3]) == \
                [enumerated(grp, strategy, k) for k in (1, 2, 3)]


class TestForcedDraws:
    """With tables off, votes are the paired draws of earlier releases, bit for bit."""

    PINNED = {
        "majority": [(1, 0.46, 0.052915026221291815), (2, 0.5, 0.03829708431025353),
                     (3, 0.51, 0.057445626465380296), (5, 0.62, 0.011547005383792526),
                     (7, 0.76, 0.0)],
        "majconf": [(1, 0.46, 0.052915026221291815), (2, 0.5, 0.03829708431025353),
                    (3, 0.52, 0.05416025603090641), (5, 0.55, 0.025166114784235836),
                    (7, 0.64, 0.0)],
    }

    def test_votes_match_pinned_curves(self, forced_draws):
        groups = grid_groups(random.Random(31), 25, 7)
        for strategy, pinned in self.PINNED.items():
            curve = scaling_curve(groups, strategy, [1, 2, 3, 5, 7], 4, seed=11)
            assert [(pt.k, pt.mean, pt.stderr) for pt in curve] == pinned
            assert not any(pt.exact for pt in curve)

    def test_closed_forms_ignore_the_limit(self, forced_draws):
        groups = grid_groups(random.Random(31), 25, 7)
        for strategy in ("mean", "best", "maxconf"):
            curve = scaling_curve(groups, strategy, [1, 3, 7], 4, seed=11)
            assert all(pt.exact and pt.stderr == 0.0 for pt in curve)


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

    def test_table_guard(self, monkeypatch):
        # no vote table holds 63 samples; the closed forms need none
        big = group_records(make_grouped(("big", "A", 0.5, s < 21) for s in range(63)))
        for strategy in ("majority", "majconf"):
            with pytest.raises(DomainError, match="group 'big': more than 62 samples"):
                exact_expected_accuracy(big, 2, strategy)
        assert exact_expected_accuracy(big, 2, "mean") == Fraction(1, 3)
        # confidences 2^-1 .. 2^-6: each of one answer's 2^6 subsets has its own sum
        many = group_records(make_grouped(("many", "A", 2.0 ** -s, True) for s in range(1, 7)))
        monkeypatch.setattr(tts, "_MAX_EXACT_STATES", 2 ** 6)
        assert exact_expected_accuracy(many, 3, "majority") == 1
        monkeypatch.setattr(tts, "_MAX_EXACT_STATES", 2 ** 6 - 1)
        with pytest.raises(DomainError, match="group 'many'"):
            exact_expected_accuracy(many, 3, "majority")


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
        assert len(values) == 1  # one sample: every strategy is the base rate


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

    def test_monte_carlo_tracks_exact(self, forced_draws):
        groups = grid_groups(random.Random(41), 4, 5)
        for strategy in ("majority", "majconf"):
            point, = scaling_curve(groups, strategy, [3], n_resamples=1_000, seed=1)
            exact = float(exact_expected_accuracy(groups, 3, strategy))
            assert not point.exact and point.stderr > 0.0
            assert point.mean == pytest.approx(exact, abs=5 * point.stderr)

    def test_validation(self):
        groups = paradox_groups()
        with pytest.raises(DomainError):
            scaling_curve(groups, "mean", [1], n_resamples=0)
        with pytest.raises(DomainError):
            scaling_curve(groups, "mean", [], n_resamples=5)
        with pytest.raises(DomainError):
            scaling_curve(groups, "mean", [1, 99], n_resamples=5)
        for seed in (-1, 2 ** 64):
            with pytest.raises(DomainError, match="64 unsigned bits"):
                scaling_curve(groups, "mean", [1], n_resamples=1, seed=seed)
        assert scaling_curve(groups, "mean", [1], n_resamples=1, seed=2 ** 64 - 1)
