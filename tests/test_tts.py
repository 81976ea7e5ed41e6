"""Test-time scaling strategies and their brute-force oracles."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becal import draws, tts, votes
from becal.errors import DataError, DomainError
from becal.model import Dataset
from becal.simulate import _rng, generate_ensemble
from becal.tts import (STRATEGIES, SampleGroup, _columns, _votes, exact_expected_accuracy,
                       group_records, scaling_curve, scaling_curves)
from becal.votes import _levels, _vote_hits

from conftest import grid_groups, make_dataset, make_grouped


def _score(drawn, strategies):
    """Per vote rule in strategies, 1 if its vote over the drawn samples goes
    to a valid one, from one answer tally: the oracle of tts._votes."""
    tally = {}  # answer: [confidences, any valid]
    for answer, conf, valid in drawn:
        if answer in tally:
            tally[answer][0].append(conf or 0.0)
            tally[answer][1] |= valid
        else:
            tally[answer] = [[conf or 0.0], valid]
    ranked = [(-len(c), -math.fsum(c), a, v) for a, (c, v) in tally.items()]
    return {rule: int(min(ranked, key=lambda r: r[:3] if rule == "majority" else
                          (r[1], r[0], r[2]))[3]) for rule in strategies}


def _group_rng(seed, k, resample, group):
    """The stream of one (seed, k, resample, group) tuple, built on its own."""
    digest = hashlib.sha256(group.encode("utf-8")).digest()[:8]
    return _rng([int(seed), int(k), int(resample), *digest])


def _draw(grp, k, rng):
    idx = rng.permutation(grp.size)[:k]
    return [grp.samples[int(i)] for i in idx]


def _closed_form(grp, strategies, ks):
    """Per strategy, the exact accuracy of one group at each k as
    (numerator, denominator), group by group: the oracle of the column
    closed forms.

    At k = 1 every strategy scores the one sample drawn, so it is v/n, and at
    k = n the draw is the whole group, so majority and majconf score it once,
    0 or 1, from one tally. Between them mean, best and maxconf have closed
    forms, majority and majconf None.
    """
    n = grp.size
    valid = sum(v for _, _, v in grp.samples)
    votes = [strategy for strategy in strategies if strategy not in tts._CLOSED]
    whole = _score(grp.samples, votes) if votes and n in ks else {}
    out = {}
    for strategy in strategies:
        if strategy == "maxconf":
            # the top confidence level c in the draw holds the winner, and the
            # first drawn of the m_c samples at c is uniform over them; the sum
            # of v_c/m_c * (draws topped by c) is taken over the denominator lcm(m_c)
            at = {}
            for _, conf, v in grp.samples:
                level = at.setdefault(conf, [0, 0])
                level[0] += 1
                level[1] += v
            levels = [at[conf] for conf in sorted(at)]
            scale = math.lcm(*(m for m, _ in levels))
        out[strategy] = row = []
        for k in ks:
            if k == 1 or strategy == "mean":
                row.append((valid, n))
            elif strategy == "best":
                subsets = math.comb(n, k)
                row.append((subsets - math.comb(n - valid, k), subsets))
            elif strategy == "maxconf":
                total, below = 0, 0
                for m, v in levels:
                    total += v * (scale // m) * (math.comb(below + m, k) - math.comb(below, k))
                    below += m
                row.append((total, scale * math.comb(n, k)))
            else:
                row.append((whole[strategy], 1) if k == n else None)
    return out


def _batches(groups, cap):
    """The vote tables of every group, a batch at a time."""
    groups = _columns(groups)
    return votes._batches(groups, np.arange(len(groups)), cap)


def at_k(groups, strategy, k, seed=0):
    """Accuracy at k from a one-point, one-resample curve.

    Exact unless a majority/majconf group has more than STATES_PER_DRAW
    states; then it is one paired draw for that group.
    """
    return scaling_curve(groups, strategy, [k], 1, seed)[0].mean


def enumerated(grp, strategy, k):
    """Exact majority or majconf accuracy of one group: the mean over its k-subsets."""
    hits = sum(_score(subset, [strategy])[strategy]
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
    return _score(drawn, [strategy])[strategy]


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


def state_count(grp):
    """Distinct (size, exact confidence sum) of each answer's subsets, the
    empty one included, summed over the answers: the states of a vote table."""
    by_answer = {}
    for answer, conf, _ in grp.samples:
        by_answer.setdefault(answer, []).append(Fraction(conf or 0.0))
    return sum(len({(r, sum(subset)) for r in range(len(confs) + 1)
                    for subset in itertools.combinations(confs, r)})
               for confs in by_answer.values())


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
        assert list(a) == list(b)

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

    # a bad sample -> the error it gives, as a record field of that value would
    BAD_SAMPLES = [
        (("A", 1.5, True), "confidence out of range"),
        (("A", math.nan, True), "confidence out of range"),
        (("A", "0.5", True), "confidence must be numeric"),
        (("A", True, True), "confidence must be numeric"),
        (("A", 0.5, "yes"), "valid must be boolean"),
        (("A", 0.5, None), "valid must be boolean"),
        ((7, 0.5, True), "answer must be a string"),
        (("A", 0.5), r"samples must be \(answer, confidence, valid\) triples"),
        (None, r"samples must be \(answer, confidence, valid\) triples"),
    ]

    @pytest.mark.parametrize("sample,message", BAD_SAMPLES,
                             ids=[repr(sample) for sample, _ in BAD_SAMPLES])
    def test_bad_sample_rejected(self, sample, message):
        with pytest.raises(DataError, match=f"^group 'g': {message}$"):
            SampleGroup(group="g", samples=(("B", 0.5, False), sample))

    def test_samples_not_a_sequence_rejected(self):
        with pytest.raises(DataError, match=r"^group 'g': samples must be \(answer, "):
            SampleGroup(group="g", samples=None)

    def test_samples_are_stored_checked(self):
        grp = SampleGroup(group="g", samples=[("A", np.float64(0.25), np.bool_(True)),
                                              (None, None, False), ("B", 1, False)])
        assert grp.samples == (("A", 0.25, True), (None, None, False), ("B", 1.0, False))
        assert type(grp.samples) is tuple
        assert [type(c) for _, c, v in grp.samples] == [float, type(None), float]
        assert all(type(v) is bool for _, _, v in grp.samples)


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
                assert len({_score(list(order), [strategy])[strategy]
                            for order in itertools.permutations(grp.samples)}) == 1

    def test_full_draws_agree_across_resamples(self, forced_draws):
        # every resample's draw at k = n is the whole group in some order, so
        # the group is scored once by closed form, even with tables off
        groups = grid_groups(random.Random(23), 200, 16)
        for strategy in ("majority", "majconf"):
            point, = scaling_curve(groups, strategy, [16], n_resamples=8, seed=3)
            assert point.exact and point.stderr == 0.0, strategy
            assert (point.closed_form, point.drawn, point.draws) == (200, 0, 0)
            for grp in list(groups)[:20]:
                drawn = [_draw(grp, 16, _group_rng(3, 16, r, grp.group)) for r in range(8)]
                assert {_score(sample, [strategy])[strategy] for sample in drawn} == {
                    _closed_form(grp, [strategy], [16])[strategy][0][0]}


def tallied(samples, owner, rules=("majority", "majconf")):
    """tts._votes over the samples of one hand-built group, the set of each
    sample given by owner, and the _score oracle for each set in set order,
    on answer ranks (no answer last, as the columns rank it)."""
    groups = _columns([SampleGroup("g", tuple(samples))])
    at = np.random.default_rng(len(samples)).permutation(len(samples))
    owner = np.asarray(owner)[at]
    got = {rule: hit.tolist() for rule, hit in _votes(groups, at, owner, list(rules)).items()}
    rank = {a: code for code, a in enumerate([*groups.answers, None])}
    sets = [[(rank[samples[i][0]], *samples[i][1:]) for i in at[owner == s].tolist()]
            for s in np.unique(owner).tolist()]
    return got, {rule: [_score(drawn, [rule])[rule] for drawn in sets] for rule in rules}


class TestVoteTally:
    """tts._votes votes many sets at once, each as the _score oracle votes it."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_votes_are_the_oracle(self, data):
        # grid confidences tie sums (0.1 + 0.2 against 0.3 differ in binary)
        # and repeated answers tie counts; set ids start anywhere
        samples = data.draw(st.lists(st.tuples(
            st.sampled_from(["A", "B", "C", None]),
            st.one_of(st.none(), st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 1.0]),
                      st.floats(0.0, 1.0)),
            st.booleans()), min_size=1, max_size=40))
        low = data.draw(st.integers(0, 2 ** 40))
        owner = data.draw(st.lists(st.integers(low, low + 5), min_size=len(samples),
                                   max_size=len(samples)))
        got, oracle = tallied(samples, owner)
        assert got == oracle

    def test_binary_sums_decide_ties(self):
        # counts tie; 0.1 + 0.2 is above 0.3, so B wins both rules
        got, oracle = tallied([("B", 0.1, True), ("B", 0.2, True), ("A", 0.3, False),
                               ("A", 0.0, False)], [7, 7, 7, 7])
        assert got == oracle == {"majority": [1], "majconf": [1]}
        # the correctly rounded sums of 0.1, 0.2, 0.3 and of 0.1, None (0),
        # 0.5 are both 0.6, so the first name, A, wins; summed left to right,
        # B's would be above 0.6
        got, oracle = tallied([("B", 0.1, True), ("B", 0.2, True), ("B", 0.3, True),
                               ("A", 0.1, False), ("A", None, False), ("A", 0.5, False)],
                              [3] * 6)
        assert got == oracle == {"majority": [0], "majconf": [0]}
        assert 0.1 + 0.2 + 0.3 > 0.6 == math.fsum([0.1, 0.2, 0.3])


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
                    pairs = _closed_form(grp, [strategy], ks)[strategy]
                    assert [Fraction(*pair) for pair in pairs] == oracle, strategy
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

    def test_whole_group_is_one_closed_form(self):
        # at k = n the draw is the whole group: one _score for both rules,
        # each the oracle's value
        groups = ragged_groups(random.Random(4), 40, sizes=(1, 8))
        votes = ["majority", "majconf"]
        for grp in groups:
            n = grp.size
            whole = _closed_form(grp, votes, [n])
            assert whole == {rule: [(hit, 1)] for rule, hit in _score(grp.samples, votes).items()}
            for strategy in votes:
                pair, = whole[strategy]
                assert Fraction(*pair) == enumerated(grp, strategy, n) == \
                    exact_expected_accuracy([grp], n, strategy)
                if n <= 6:
                    assert Fraction(*pair) == permuted([grp], n, strategy)
        # no table is built for a group whose only k above 1 is its size
        sizes = {grp.size for grp in groups}
        for strategy in ("majority", "majconf"):
            for size in sizes - {1}:
                alike = [grp for grp in groups if grp.size == size]
                point, = scaling_curve(alike, strategy, [size], n_resamples=3)
                assert (point.closed_form, point.tabled, point.states) == (len(alike), 0, 0)
                assert point.exact and point.stderr == 0.0

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
        # two answers at one confidence: sizes 0..m of each, size + 2 states;
        # both sizes are under the 62 samples a table holds, so the state
        # limit alone draws the larger group
        limit = tts.STATES_PER_DRAW
        for size, exact in ((limit - 2, True), (limit - 1, False)):
            groups = group_records(make_grouped(
                ("g", "AB"[s % 2], 0.5, s % 2 == 0) for s in range(size)))
            point, = scaling_curve(groups, "majority", [2], n_resamples=1)
            assert point.exact is exact, size
            assert (point.tabled, point.states) == ((1, limit) if exact else (0, 0))

    def test_more_than_62_samples_are_drawn(self):
        # counts of 63 samples' subsets need not fit int64, however few states;
        # at k = n the draw is the whole group, scored once whatever its size
        for size, exact in ((62, True), (63, False)):
            groups = group_records(make_grouped(
                (f"g{g}", "A", 0.5, s % 2 == 0) for g in range(4) for s in range(size)))
            for strategy in ("majority", "majconf"):
                curve = scaling_curve(groups, strategy, [1, 31, size], n_resamples=5)
                assert [pt.exact for pt in curve] == [True, exact, True], size
                assert (curve[2].mean, curve[2].stderr, curve[2].closed_form) == (1.0, 0.0, 4)
                if exact:  # the one answer always wins, so the vote is best's
                    best = scaling_curve(groups, "best", [1, 31, size], n_resamples=5)
                    assert [pt.mean for pt in curve] == [pt.mean for pt in best]

    def test_tabled_and_drawn_groups_mix(self):
        # the 63-sample groups are drawn, the 4-sample ones tabled and the
        # 3-sample ones, drawn whole at k = 3, valued by closed form
        small = list(ragged_groups(random.Random(5), 12, sizes=(3, 4)))
        large = [SampleGroup(group="big" + grp.group, samples=grp.samples)
                 for grp in ragged_groups(random.Random(6), 8, sizes=(63, 63))]
        whole = sum(grp.size == 3 for grp in small)
        assert 0 < whole < 12
        for strategy in ("majority", "majconf"):
            point, = scaling_curve(small + large, strategy, [3], n_resamples=5, seed=9)
            assert not point.exact and point.stderr > 0.0
            assert (point.closed_form, point.tabled, point.drawn, point.draws) == \
                (whole, 12 - whole, 8, 40)
            # each resample adds the exact small-group sum to the same draws
            drawn, = scaling_curve(large, strategy, [3], n_resamples=5, seed=9)
            known = sum(permuted([g], 3, strategy) for g in small)
            assert point.mean == pytest.approx(
                (float(known) + drawn.mean * len(large)) / len(small + large), abs=1e-12)
            assert point.stderr == pytest.approx(
                drawn.stderr * len(large) / len(small + large), abs=1e-12)


class TestOnePass:
    """scaling_curves values every strategy at once as scaling_curve values each alone."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           strategies=st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=5,
                               unique=True),
           ks=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           n_resamples=st.integers(1, 3), forced=st.booleans())
    def test_matches_one_strategy_at_a_time(self, seed, strategies, ks, n_resamples,
                                            forced):
        # at one resample and one k the cap is 32 states, which 12-sample
        # groups often pass; 63 samples are drawn however few states they have
        rng = random.Random(seed)
        groups = [SampleGroup(group=f"{size}{grp.group}", samples=grp.samples)
                  for size in (4, 12, 63) for grp in grid_groups(rng, 2, size)]
        with pytest.MonkeyPatch.context() as mp:
            if forced:
                mp.setattr(tts, "STATES_PER_DRAW", 0)
            curves = scaling_curves(groups, strategies, ks, n_resamples, seed % 5)
            assert list(curves) == strategies
            for strategy in strategies:
                assert curves[strategy] == scaling_curve(groups, strategy, ks, n_resamples,
                                                         seed % 5), strategy

    def test_each_table_and_draw_is_made_once(self, monkeypatch):
        small = list(ragged_groups(random.Random(5), 12, sizes=(3, 4)))
        large = [SampleGroup(group="big" + grp.group, samples=grp.samples)
                 for grp in ragged_groups(random.Random(6), 4, sizes=(63, 63))]
        calls = {(votes, "_levels"): [], (draws, "keys"): []}
        for (module, name), log in calls.items():
            def logged(*args, _call=getattr(module, name), _log=log):
                _log.append(args)
                return _call(*args)
            monkeypatch.setattr(module, name, logged)
        curves = scaling_curves(small + large, ["majority", "mean", "majconf"],
                                [1, 2, 3], 4, seed=9)
        # the levels of every group of at most 62 samples are read once, for
        # its one table, and each drawn (k, resample, group) is keyed once;
        # k = 1 and k = n need neither
        assert sorted(groups.names[g] for groups, chosen in calls[votes, "_levels"]
                      for g in chosen.tolist()) == sorted(grp.group for grp in small)
        assert sorted((seed, k, r, bytes(row.tolist()))
                      for seed, k, resample, digest in calls[draws, "keys"]
                      for r, row in zip(resample.tolist(), digest)) == sorted(
            (9, k, r, hashlib.sha256(grp.group.encode()).digest()[:8])
            for k in (2, 3) for r in range(4) for grp in large)
        whole = sum(grp.size == 3 for grp in small)
        for strategy in ("majority", "majconf"):
            assert [(pt.closed_form, pt.tabled, pt.drawn, pt.draws)
                    for pt in curves[strategy]] == \
                [(16, 0, 0, 0), (0, 12, 4, 16), (whole, 12 - whole, 4, 16)]


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
        monkeypatch.setattr(votes, "_BATCH_STATES", 16)
        assert len(list(_batches(groups, math.inf))) > 1
        for strategy in ("majority", "majconf"):
            curve = scaling_curve(groups, strategy, [1, 2, 3], n_resamples=5)
            assert [pt.mean for pt in curve] == [
                float(sum(enumerated(g, strategy, k) for g in groups) / len(groups))
                for k in (1, 2, 3)]

    def test_batches_hold_about_batch_states(self, monkeypatch):
        # valid samples answer A and the rest one of four wrong answers, on
        # the 0.05 grid: sums coincide, so the bound on a group's rows passes
        # its states by about 1.5, and batches take that ratio into account
        rng = random.Random(3)
        rows = []
        for g in range(200):
            q = rng.uniform(0.1, 0.9)
            for _ in range(16):
                valid = rng.random() < q
                rows.append((f"g{g}", "A" if valid else f"W{rng.randrange(4)}",
                             round(min(max(q + rng.uniform(-0.2, 0.2), 0.05), 0.95) * 20) / 20,
                             valid))
        monkeypatch.setattr(votes, "_BATCH_STATES", 2048)
        states = [len(table.size) for _, table in _batches(group_records(make_grouped(rows)), 960)]
        assert sum(states[:-1]) >= 0.9 * 2048 * (len(states) - 1)
        assert max(states) <= 2 * 2048 + 960


    def test_sums_past_int64(self):
        # over the denominator 2^70 of 2^-70 a 0.5 is 2^69, so these groups'
        # sums are Python ints, the same code on a wider dtype
        tiny = 2.0 ** -70
        rng = random.Random(16)
        groups = group_records(make_grouped(
            (f"g{g}", rng.choice("AB"), rng.choice((tiny, 3 * tiny, 0.5, 0.25, 5e-324)),
             rng.random() < 0.5)
            for g in range(12) for _ in range(rng.randint(2, 8))))
        assert _levels(groups, np.arange(len(groups))).value.dtype == object
        self.assert_oracle(groups)
        # tiny sums that tie, and the same vote key rounded from unequal sums
        rows = [("g", "A", tiny, True), ("g", "A", tiny, False), ("g", "B", 2 * tiny, False),
                ("g", "B", 0.5 + 2.0 ** -53, True), ("g", "A", 0.5, True)]
        self.assert_oracle(group_records(make_grouped(rows)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), slack=st.integers(-3, 3),
           batch=st.sampled_from([4, 16, 1 << 12]))
    def test_cap_picks_the_groups_whose_states_fit(self, seed, slack, batch):
        # the cap decision against brute-force states: a group is tabled iff
        # its distinct (answer, size, exact sum) states are at most cap, with
        # small batches merging rows before the last level is grown
        rng = random.Random(seed)
        grid = rng.choice([(0.25, 0.5, 0.75, 1.0), (0.05, 0.1, 0.15, 0.3, 0.45),
                           (0.125, 0.25, 0.375, 0.5, 0.3, 0.2)])
        groups = group_records(make_grouped(
            (f"g{g}", rng.choice("ABC"), rng.choice(grid), rng.random() < 0.5)
            for g in range(6) for _ in range(rng.randint(1, 10))))
        counts = [state_count(grp) for grp in groups]
        cap = max(1, rng.choice(counts) + slack)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(votes, "_BATCH_STATES", batch)
            tabled = {index: count for indices, table in _batches(groups, cap)
                      for index, count in zip(indices, np.bincount(table.group).tolist())}
        assert tabled == {i: count for i, count in enumerate(counts) if count <= cap}

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


class TestClosedForms:
    """The closed forms read from the columns equal _closed_form, group by group."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nones=st.booleans(),
           sizes=st.sampled_from([(1, 8), (2, 6), (62, 62), (62, 70)]))
    def test_match_the_per_group_oracle(self, seed, nones, sizes):
        # confidences on an eighths grid tie within and across groups; a
        # None confidence leaves maxconf and majconf out; C(70, 35) passes
        # int64, so those sums are Python ints
        rng = random.Random(seed)
        groups = group_records(make_grouped(
            (f"g{g}", rng.choice("ABC"), None if nones and rng.random() < 0.3 else
             rng.randint(0, 8) / 8, rng.random() < 0.5)
            for g in range(rng.randint(1, 6)) for _ in range(rng.randint(*sizes))))
        strategies = ["mean", "best", "majority"] + ([] if nones else ["maxconf", "majconf"])
        smallest = min(grp.size for grp in groups)
        ks = sorted({1, smallest, rng.randint(1, smallest), (smallest + 1) // 2})
        oracle = [_closed_form(grp, strategies, ks) for grp in groups]
        for cap in (0, math.inf):
            sums, _, _ = tts._exact(groups, strategies, ks, cap)
            for strategy in strategies:
                for j, k in enumerate(ks):
                    if strategy in tts._CLOSED or k == 1:
                        assert tts._total(sums[strategy][j]) == sum(
                            Fraction(*pairs[strategy][j]) for pairs in oracle), (strategy, k)
        # k = n alone, from a group's table where it has one, else one tally
        for grp, pairs in zip(groups, oracle):
            ks_g = sorted({1, min(2, grp.size), grp.size})
            whole = _closed_form(grp, strategies, ks_g)
            for cap in (0, math.inf):
                sums, _, _ = tts._exact(_columns([grp]), strategies, ks_g, cap)
                for strategy in strategies:
                    assert tts._total(sums[strategy][-1]) == Fraction(*whole[strategy][-1])


class TestBulkKeys:
    """Draws keyed in bulk are the draws of a Philox built per tuple, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1)),
           k=st.integers(2, 2 ** 33), resample=st.one_of(st.integers(0, 2 ** 32 - 1),
                                                          st.integers(2 ** 32, 2 ** 64 - 1)),
           name=st.text(max_size=6), n=st.integers(2, 70))
    def test_keys_are_seed_sequence_keys(self, seed, k, resample, name, n):
        digest = hashlib.sha256(name.encode("utf-8")).digest()[:8]
        entropy = [seed, k, resample, *digest]
        key = draws.keys(seed, k, np.array([resample], dtype=np.uint64),
                         np.array([list(digest)], dtype=np.uint64))
        assert key.tolist() == [np.random.SeedSequence(entropy).generate_state(2, np.uint64)
                                .tolist()]
        # set into a reused Philox at counter 0, as draw_hits does
        philox = np.random.Philox(0)
        np.random.Generator(philox).permutation(5)  # a used stream, reset by the key
        state = philox.state
        state["state"]["key"][:] = key[0]
        state["state"]["counter"][:] = 0
        state.update(buffer_pos=4, has_uint32=0, uinteger=0)
        philox.state = state
        built = _rng(entropy)
        assert np.random.Generator(philox).permutation(n)[:min(k, n)].tolist() == \
            built.permutation(n)[:min(k, n)].tolist()
        assert philox.random_raw(9).tolist() == built.bit_generator.random_raw(9).tolist()

    def test_draws_are_the_per_tuple_draws(self, monkeypatch):
        # every (seed, k, resample, group) draw, seeds past 2^32 included
        groups = grid_groups(random.Random(9), 6, 9)
        names = {a: code for code, a in enumerate(groups.answers)}
        for seed in (0, 5, 2 ** 32 + 7, 2 ** 64 - 1):
            seen = []

            def votes(columns, at, owner, rules):
                # each draw's samples as (answer rank, confidence, valid), in draw order
                for s in np.unique(owner).tolist():
                    seen.append([(int(columns.answer[i]), float(columns.confidence[i]),
                                  bool(columns.valid[i])) for i in at[owner == s].tolist()])
                return _votes(columns, at, owner, rules)

            monkeypatch.setattr(tts, "_votes", votes)
            draws.draw_hits(groups, np.arange(len(groups)), [1, 3, 8, 9], 3, seed, ["majority"])
            assert seen == [[(names[a], c, v) for a, c, v in
                             _draw(grp, k, _group_rng(seed, k, r, grp.group))]
                            for k in (3, 8) for r in range(3) for grp in groups]


class TestForcedDraws:
    """With tables off, votes at 1 < k < n are the paired draws of earlier
    releases, bit for bit; k = 1 is v/n, exact, for every strategy, and a
    vote at k = n scores the whole group once, exact."""

    PINNED = {
        "majority": [(1, 78 / 175, 0.0), (2, 0.5, 0.03829708431025353),
                     (3, 0.51, 0.057445626465380296), (5, 0.62, 0.011547005383792526),
                     (7, 0.76, 0.0)],
        "majconf": [(1, 78 / 175, 0.0), (2, 0.5, 0.03829708431025353),
                    (3, 0.52, 0.05416025603090641), (5, 0.55, 0.025166114784235836),
                    (7, 0.64, 0.0)],
    }

    def test_votes_match_pinned_curves(self, forced_draws):
        groups = grid_groups(random.Random(31), 25, 7)
        assert exact_expected_accuracy(groups, 1, "mean") == Fraction(78, 175)
        for strategy, pinned in self.PINNED.items():
            curve = scaling_curve(groups, strategy, [1, 2, 3, 5, 7], 4, seed=11)
            assert [(pt.k, pt.mean, pt.stderr) for pt in curve] == pinned
            assert [pt.exact for pt in curve] == [True] + [False] * 3 + [True]

    def test_one_tally_per_draw(self, forced_draws, monkeypatch):
        """Both vote rules score the draws of each k, and the whole groups,
        from one _votes call, and give the curves of each rule alone."""
        calls = []
        monkeypatch.setattr(tts, "_votes", lambda groups, at, owner, rules: calls.append(rules)
                            or _votes(groups, at, owner, rules))
        groups = grid_groups(random.Random(31), 25, 7)
        curves = scaling_curves(groups, ["majority", "majconf"], [1, 2, 3, 5, 7], 4, seed=11)
        for strategy, pinned in self.PINNED.items():
            assert [(pt.k, pt.mean, pt.stderr) for pt in curves[strategy]] == pinned
        draws = sum(pt.draws for pt in curves["majority"])
        assert draws == 25 * 3 * 4  # groups x k in (2, 3, 5) x resamples
        assert calls == [["majority", "majconf"]] * 4  # k = 7 (whole groups), 2, 3, 5

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

    def test_each_strategy_names_its_first_failing_group(self):
        # group a lacks an answer, b a confidence; c lacks both in one sample
        groups = group_records(make_grouped(
            [("a", None, 0.5, True), ("a", "B", 0.5, False), ("b", "A", None, True),
             ("c", None, None, False)]))
        cases = [(["maxconf", "majority"], "strategy 'maxconf' needs confidences; group 'b'"),
                 (["majority", "maxconf"], "strategy 'majority' needs answers; group 'a'"),
                 (["mean", "majconf"], "strategy 'majconf' needs answers; group 'a'"),
                 (["majconf"], "strategy 'majconf' needs answers; group 'a'")]
        for strategies, message in cases:
            with pytest.raises(DataError, match=f"^{message} has a sample without one$"):
                scaling_curves(groups, strategies, [1], 1)
        with pytest.raises(DataError, match="'maxconf' needs confidences; group 'c'"):
            scaling_curves(list(groups)[2:], ["maxconf", "majority"], [1], 1)
        with pytest.raises(DataError, match="'majconf' needs answers; group 'c'"):
            scaling_curves(list(groups)[2:], ["majconf"], [1], 1)
        # the first failing strategy wins over an unknown one after it, not before
        with pytest.raises(DataError, match="'majority'"):
            scaling_curves(groups, ["majority", "oracle"], [1], 1)
        with pytest.raises(DomainError, match="unknown strategy 'oracle'"):
            scaling_curves(groups, ["oracle", "majority"], [1], 1)

    def test_samples_are_read_once_for_every_strategy(self):
        reads = []

        class Samples(tuple):
            def __iter__(self):
                reads.append(1)
                return super().__iter__()

        groups = [SampleGroup(group=grp.group, samples=Samples(grp.samples))
                  for grp in grid_groups(random.Random(2), 5, 4)]
        tts._checked(groups, list(STRATEGIES), [1, 4])
        assert len(reads) == len(groups)

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
        # and none is needed at k = 1 or k = n, so only 1 < k < n raises
        big = group_records(make_grouped(("big", "A", 0.5, s < 21) for s in range(63)))
        for strategy in ("majority", "majconf"):
            for k in (2, 62):
                with pytest.raises(DomainError, match="group 'big': more than 62 samples"):
                    exact_expected_accuracy(big, k, strategy)
            assert exact_expected_accuracy(big, 1, strategy) == Fraction(1, 3)
            assert exact_expected_accuracy(big, 63, strategy) == 1
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

    def test_exact_points_hold_nothing_per_resample(self):
        # no group is drawn, so a huge resample count costs nothing
        curves = scaling_curves(paradox_groups(), STRATEGIES, [1, 2], n_resamples=10 ** 12)
        assert all(pt.exact for curve in curves.values() for pt in curve)

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


class TestLazyModules:
    """Only a command that needs tables loads becal.votes, and only one that
    draws loads becal.draws and hashlib."""

    @staticmethod
    def loaded(tmp_path, *argv):
        child = ("import sys\nfrom becal.cli import main\n"
                 "assert main(sys.argv[1:]) == 0\n"
                 "print(*[m for m in ('hashlib', 'becal.votes', 'becal.draws') "
                 "if m in sys.modules])\n")
        src = str(Path(tts.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", child, *argv, "--out",
                               str(tmp_path / "out")], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_modules_load_only_where_needed(self, tmp_path):
        flat = tmp_path / "flat.jsonl"
        flat.write_text("".join(json.dumps({"id": f"r{i}", "confidence": i / 10,
                                            "valid": i % 3 == 0}) + "\n" for i in range(10)))
        ens = tmp_path / "ens.jsonl"
        ens.write_text("".join(json.dumps({"id": f"{g}{s}", "group": g, "answer": "AB"[s % 2],
                                           "confidence": s / 70, "valid": s % 2 == 0}) + "\n"
                               for g, size in (("g", 6), ("big", 63)) for s in range(size)))
        small = tmp_path / "small.jsonl"
        small.write_text("".join(line + "\n" for line in ens.read_text().splitlines()[:6]))
        assert self.loaded(tmp_path, "sweep", str(flat)) == []
        assert self.loaded(tmp_path, "report", str(flat)) == []
        assert self.loaded(tmp_path, "tts", str(ens), "--k", "1,2,6",
                           "--strategy", "mean,best,maxconf") == []
        # votes at k = 1 and k = n need no table
        assert self.loaded(tmp_path, "tts", str(small), "--k", "1,6") == []
        assert self.loaded(tmp_path, "tts", str(small), "--k", "1,2,6") == ["becal.votes"]
        # 63 samples are drawn at 1 < k < n
        assert self.loaded(tmp_path, "tts", str(ens), "--k", "1,2,6") == \
            ["hashlib", "becal.votes", "becal.draws"]

    # argv (INPUT: a file that suits the command) -> the becal modules loaded
    # beyond becal, becal.cli, becal.errors and becal.model, which every
    # command and --version load
    COMMANDS = [
        (["--version"], set()),
        (["validate", "INPUT"], set()),
        (["simulate", "--n", "5"], {"simulate", "rewards"}),
        (["simulate", "--groups", "2", "--samples-per-group", "2"], {"simulate", "rewards"}),
        (["reward", "INPUT"], {"rewards"}),
        (["reward", "INPUT", "--reward", "integrated"], {"rewards"}),
        (["metrics", "INPUT"], {"metrics", "behavior", "rewards"}),
        (["sweep", "INPUT"], {"behavior"}),
        (["objectives", "INPUT"], {"behavior"}),
        (["report", "INPUT"], {"metrics", "behavior", "rewards"}),
        (["tts", "INPUT", "--k", "1"], {"tts"}),
        (["sweep", "INPUT", "--confidence-from", "product"], {"behavior", "claims"}),
        (["report", "INPUT", "--confidence-from", "min"],
         {"metrics", "behavior", "rewards", "claims"}),
    ]

    @pytest.mark.parametrize("argv,extra", COMMANDS,
                             ids=[" ".join(argv) for argv, _ in COMMANDS])
    def test_each_command_loads_only_its_modules(self, argv, extra, tmp_path):
        """The exact becal modules a fresh process holds after main() returns."""
        rows = [{"id": f"r{i}", "group": f"g{i % 2}", "answer": "AB"[i % 3 == 0],
                 "confidence": i / 8, "valid": i % 3 == 0,
                 "claims": [{"text": "c", "confidence": 0.9}]} for i in range(8)]
        (tmp_path / "in.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        argv = [str(tmp_path / "in.jsonl") if a == "INPUT" else a for a in argv]
        if argv != ["--version"]:
            argv += ["--out", str(tmp_path / "out")]
        child = ("import sys\nfrom becal.cli import main\n"
                 "try:\n    rc = main(sys.argv[1:])\n"
                 "except SystemExit as exc:  # --version\n    rc = exc.code\n"
                 "assert rc == 0, rc\n"
                 "print(*(m for m in sys.modules if m.split('.')[0] == 'becal'))\n")
        src = str(Path(tts.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        always = {"becal", "becal.cli", "becal.errors", "becal.model"}
        assert set(proc.stdout.splitlines()[-1].split()) == \
            always | {f"becal.{name}" for name in extra}
