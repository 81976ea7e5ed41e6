"""Test-time scaling: pick or pool an answer from k samples per question.

Strategies:
  mean     average correctness of the k draws (no selection)
  best     1 if any draw is valid (oracle upper bound)
  majority modal answer, ties by total confidence then lexicographic
  maxconf  single highest-confidence draw, ties by draw order
  majconf  answer with the largest confidence sum, ties by count then
           lexicographic

Confidence sums are math.fsum sums, correctly rounded, so a vote depends only
on the set of samples drawn, not on the order they were drawn in.

Draws are k of a group's n samples without replacement, and each point is
exact wherever exactness is cheap:
  k = 1                every strategy scores the one sample drawn: v/n
  k = n                the draw is the whole group: majority and majconf
                       score it once, 0 or 1
  mean, best, maxconf  always by closed form: v/n, the unbiased pass@k
                       1 - C(n-v, k)/C(n, k), and the level-wise maxconf sum
  majority, majconf    at 1 < k < n from per-answer subset tables
                       (becal.votes), one table per group for every k
A group with some requested 1 < k < n is tabled when its answers have at
most STATES_PER_DRAW * n_resamples * len(k_values) states and it has at most
_MAX_TABLED samples, so it is tabled or drawn alike at every such k. Other
groups are drawn there: every (seed, k, resample, group) tuple gets its own
Philox stream, so majority and majconf evaluated at the same tuple see the
same draw and curves are paired. A point with no drawn group is exact and has
stderr 0; each point counts the groups valued by closed form, from tables and
by draws, so a vote rule's point at k counts a group as closed form where k
is 1 or the group's size, and by its table or draws elsewhere.

scaling_curves values every requested strategy in one pass: each batch of
tables is built once and scored for both vote rules, each draw is made once
and scored for both, and each group's closed-form inputs are read once for
every k. Exact sums are integer numerators per denominator, one Fraction per
distinct denominator. scaling_curve is its one-strategy case.

exact_expected_accuracy is the same exact value, from the same closed forms
and tables: at k = 1 and k = n for every group, and between them for any group
a table of at most _MAX_EXACT_STATES states holds.
The brute-force oracle, every ordered draw scored in turn, is in the tests.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError, DomainError, check_count, check_seed
from .model import Dataset, _names
from .simulate import _rng

STRATEGIES = ("mean", "best", "majority", "maxconf", "majconf")

# At the margin a table state costs about 0.45 us to build and 0.3 us more for
# each vote rule scored from it at k up to 8 (0.4 us up to 16), and a
# Monte-Carlo draw about 26 us to make and 4 us more for each rule that scores
# it (medians of 7 runs on the benchmark's 16-sample groups on the 0.05
# confidence grid, 2-core x86): a ratio of about 40 for one rule and 32 for
# both. A group is tabled when it has at most this many states per requested
# draw; the value stays 32, as it was when one rule cost 1.2 us a state and
# 37-39 us a draw, since moving it moves which groups are drawn and so the
# outputs. One table serves every k.
STATES_PER_DRAW = 32

# exact_expected_accuracy tables a vote group of at most this many states.
# At the cap, 4 answers of 14 samples at distinct confidences, k = 55 takes
# about 0.5 s and 140 MB (2-core x86); k = 56 is the whole group
_MAX_EXACT_STATES = 1 << 16

_CLOSED = ("mean", "best", "maxconf")  # valued by closed form, never drawn

# (needs answers, needs confidences) preconditions per strategy
_REQUIRES = {
    "mean": (False, False),
    "best": (False, False),
    "majority": (True, False),
    "maxconf": (False, True),
    "majconf": (True, True),
}


@dataclass(frozen=True)
class SampleGroup:
    """All samples sharing one question key.

    samples holds (answer, confidence, valid) tuples in a canonical order so
    that datasets differing only in record order produce identical draws.
    """

    group: str
    samples: tuple[tuple[str | None, float | None, bool], ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise DataError(f"group {self.group!r} has no samples")

    @property
    def size(self) -> int:
        return len(self.samples)


def _ranks(table: tuple[str, ...]) -> np.ndarray:
    """Each name's position in sorted order, and len(table) for code -1 (no name)."""
    ranks = np.empty(len(table) + 1, dtype=np.int64)
    ranks[sorted(range(len(table)), key=table.__getitem__)] = np.arange(len(table))
    ranks[-1] = len(table)
    return ranks


def group_records(dataset: Dataset) -> list[SampleGroup]:
    """Bucket records by group key, canonically ordered.

    One stable sort orders the records by group name, then answer (samples
    without one last), confidence (samples without one first) and validity,
    so datasets differing only in record order give identical groups.
    Errors if grouped and ungrouped records are mixed or no record carries a
    group key.
    """
    dataset.require_nonempty()
    missing = dataset.group < 0
    if missing.all():
        raise DataError("no record carries a group key")
    if missing.any():
        raise DataError(f"records mix grouped and ungrouped: "
                        f"{dataset.ids[int(np.argmax(missing))]!r} has no group")
    group_rank = _ranks(dataset.group_names)[dataset.group]
    confidence = np.where(np.isnan(dataset.confidence), -1.0, dataset.confidence)
    order = np.lexsort((dataset.valid, confidence,
                        _ranks(dataset.answer_names)[dataset.answer], group_rank))
    samples = list(zip(_names(dataset.answer[order], dataset.answer_names),
                       [None if c < 0 else c for c in confidence[order].tolist()],
                       dataset.valid[order].tolist()))
    edges = np.flatnonzero(np.diff(group_rank[order])) + 1
    return [SampleGroup(group=dataset.group_names[dataset.group[order[lo]]],
                        samples=tuple(samples[lo:hi]))
            for lo, hi in zip([0, *edges.tolist()], [*edges.tolist(), len(samples)])]


def _group_rng(seed: int, k: int, resample: int, group: str) -> np.random.Generator:
    digest = hashlib.sha256(group.encode("utf-8")).digest()[:8]
    return _rng([int(seed), int(k), int(resample), *digest])


def _draw(grp: SampleGroup, k: int, rng: np.random.Generator):
    idx = rng.permutation(grp.size)[:k]
    return [grp.samples[int(i)] for i in idx]


def _score(drawn, strategy: str) -> int:
    """1 if a majority or majconf vote over the drawn samples goes to a valid one."""
    tally: dict[str, list[tuple[float, bool]]] = {}
    for answer, conf, valid in drawn:
        tally.setdefault(answer, []).append((0.0 if conf is None else conf, valid))
    keys = {a: (len(votes), math.fsum(c for c, _ in votes)) for a, votes in tally.items()}
    if strategy == "majconf":
        keys = {a: (weight, count) for a, (count, weight) in keys.items()}
    top = max(keys.values())
    winner = min(a for a, key in keys.items() if key == top)
    return 1 if any(v for _, v in tally[winner]) else 0


def _closed_form(grp: SampleGroup, strategy: str,
                 ks: list[int]) -> list[tuple[int, int] | None]:
    """Exact accuracy of one group at each k as (numerator, denominator).

    At k = 1 every strategy scores the one sample drawn, so it is v/n, and at
    k = n the draw is the whole group, so majority and majconf score it once,
    0 or 1. Between them mean, best and maxconf have closed forms, majority
    and majconf None. The group's samples are read once for every k.
    """
    n = grp.size
    valid = sum(v for _, _, v in grp.samples)
    if strategy == "maxconf":
        # the top confidence level c in the draw holds the winner, and the
        # first drawn of the m_c samples at c is uniform over them; the sum
        # of v_c/m_c * (draws topped by c) is taken over the denominator lcm(m_c)
        at: dict[float, list[int]] = {}
        for _, conf, v in grp.samples:
            level = at.setdefault(conf, [0, 0])
            level[0] += 1
            level[1] += v
        levels = [at[conf] for conf in sorted(at)]
        scale = math.lcm(*(m for m, _ in levels))
    out: list[tuple[int, int] | None] = []
    for k in ks:
        if k == 1 or strategy == "mean":
            out.append((valid, n))
        elif strategy == "best":
            subsets = math.comb(n, k)
            out.append((subsets - math.comb(n - valid, k), subsets))
        elif strategy == "maxconf":
            total, below = 0, 0
            for m, v in levels:
                total += v * (scale // m) * (math.comb(below + m, k) - math.comb(below, k))
                below += m
            out.append((total, scale * math.comb(n, k)))
        else:
            out.append((_score(grp.samples, strategy), 1) if k == n else None)
    return out


def _exact(groups: list[SampleGroup], strategies: list[str], ks: list[int],
           cap: float) -> tuple[dict[str, list[Counter]], list[SampleGroup], np.ndarray]:
    """Per strategy and k, the sum of every exactly valued group's accuracy
    as {denominator: numerator}; the groups left to draw; and each group's
    table states, 0 for a group with no table.

    Every group at k = 1 and at k = its size, and every mean, best and
    maxconf value, is a closed form. At 1 < k < n majority and majconf are
    valued from the table of each group with at most cap states and
    _MAX_TABLED samples: each batch of tables is built once and scored for
    both rules before the next is built. A group with no such k needs
    neither a table nor a draw.
    """
    sums = {strategy: [Counter() for _ in ks] for strategy in strategies}
    for grp in groups:
        for strategy in strategies:
            for total, pair in zip(sums[strategy], _closed_form(grp, strategy, ks)):
                if pair is not None:
                    total[pair[1]] += pair[0]
    votes = [strategy for strategy in strategies if strategy not in _CLOSED]
    sizes = np.array([grp.size for grp in groups])
    above = np.array([k for k in ks if k > 1], dtype=np.int64)
    voted = np.flatnonzero((sizes[:, None] > above).any(axis=1) if votes else sizes[:0])
    states = np.zeros(len(groups), dtype=np.int64)
    if not len(voted):
        return sums, [], states
    # the tables' module is compiled and loaded only by a command that needs them
    from .votes import _batches, _vote_hits
    for indices, table in _batches([groups[index] for index in voted.tolist()], cap):
        indices = voted[indices]
        states[indices] = np.bincount(table.group)
        batch = sizes[indices].tolist()
        # scored up to the largest k below a group's size; k = n is closed
        deep = [(j, k) for j, k in enumerate(ks) if 1 < k < max(batch)]
        for strategy in votes:
            hits = _vote_hits(table, strategy, [k for _, k in deep]).tolist()
            for size, row in zip(batch, hits):
                for (j, k), count in zip(deep, row):
                    if k < size:
                        sums[strategy][j][math.comb(size, k)] += count
    return sums, [groups[index] for index in voted[states[voted] == 0].tolist()], states


def _total(sums: Counter) -> Fraction:
    """The exact sum of {denominator: numerator}: one Fraction per denominator."""
    return sum((Fraction(num, den) for den, num in sums.items()), Fraction(0))


def _checked(groups, strategies: list[str], ks: list[int]) -> list[SampleGroup]:
    """groups as a list; an error if there are none or they do not suit every
    strategy and every k.

    The samples are read once; each strategy in turn is then checked against
    the first sample that lacks what it needs.
    """
    groups = list(groups)
    if not groups:
        raise DataError("no groups to evaluate")
    # (group, sample) of the first sample without an answer, and without a confidence
    missing: list[tuple[int, int] | None] = [None, None]
    for g, grp in enumerate(groups):
        for s, sample in enumerate(grp.samples):
            for field in (0, 1):
                if sample[field] is None and missing[field] is None:
                    missing[field] = (g, s)
    for strategy in strategies:
        if strategy not in _REQUIRES:
            raise DomainError(f"unknown strategy {strategy!r}; expected one of "
                              + ", ".join(STRATEGIES))
        found = [(missing[field], what) for field, what in enumerate(("answers", "confidences"))
                 if _REQUIRES[strategy][field] and missing[field]]
        if found:
            (g, _), what = min(found, key=lambda item: item[0])
            raise DataError(f"strategy {strategy!r} needs {what}; "
                            f"group {groups[g].group!r} has a sample without one")
    check_count("k", min(ks))
    top = max(ks)
    for grp in groups:
        if top > grp.size:
            raise DomainError(f"k={top} exceeds group {grp.group!r} size {grp.size}")
    return groups


@dataclass(frozen=True)
class ScalingPoint:
    """Accuracy at k, and how the groups behind it were valued."""

    k: int
    mean: float
    stderr: float
    closed_form: int  # groups valued by closed form
    tabled: int       # groups valued from vote tables
    drawn: int        # groups drawn once per resample
    states: int       # table states over the tabled groups
    draws: int        # draws made: drawn groups x resamples

    @property
    def exact(self) -> bool:
        return self.drawn == 0


def scaling_curves(groups, strategies, k_values, n_resamples: int,
                   seed: int = 0) -> dict[str, list[ScalingPoint]]:
    """Each strategy's accuracy per k, in one pass: exact per group where
    cheap, else n_resamples paired draws.

    Each resample's accuracy is (sum of exact group values + sum of drawn
    group scores) / G; the point is their mean and its standard error. Each
    drawn group's (seed, k, resample) draw is made once and scored by every
    vote rule requested.
    """
    seed = check_seed(seed)
    check_count("n_resamples", n_resamples)
    ks = [int(k) for k in k_values]
    if not ks:
        raise DomainError("k_values must be non-empty")
    strategies = list(dict.fromkeys(strategies))
    groups = _checked(groups, strategies, ks)
    sums, drawn, states = _exact(groups, strategies, ks,
                                 STATES_PER_DRAW * n_resamples * len(ks))
    votes = [strategy for strategy in strategies if strategy not in _CLOSED]
    # per vote rule, k and resample: the drawn groups whose vote is valid;
    # with no group drawn nothing is kept or run per resample
    hits = {strategy: [[0] * n_resamples for _ in ks] for strategy in votes} if drawn else {}
    sizes = np.array([grp.size for grp in groups])
    valued = []  # per k, how a vote rule's groups are valued
    for j, k in enumerate(ks):
        # at k = 1 and at k = n a group is valued by closed form
        tabled = states[(states > 0) & (1 < k) & (k < sizes)]
        drawn_at = [grp for grp in drawn if 1 < k < grp.size]
        valued.append({"closed_form": len(groups) - len(tabled) - len(drawn_at),
                       "tabled": len(tabled), "drawn": len(drawn_at),
                       "states": int(tabled.sum()), "draws": len(drawn_at) * n_resamples})
        for r in range(n_resamples if drawn_at else 0):
            for grp in drawn_at:
                sample = _draw(grp, k, _group_rng(seed, k, r, grp.group))
                for strategy in votes:
                    hits[strategy][j][r] += _score(sample, strategy)
    closed = {"closed_form": len(groups), "tabled": 0, "drawn": 0, "states": 0, "draws": 0}
    curves = {}
    for strategy in strategies:
        curve = []
        for j, k in enumerate(ks):
            exact_sum = _total(sums[strategy][j])
            counts = closed if strategy in _CLOSED else valued[j]
            if not counts["drawn"]:
                curve.append(ScalingPoint(k=k, mean=float(exact_sum / len(groups)),
                                          stderr=0.0, **counts))
                continue
            # majority and majconf score a whole draw 0 or 1, so the sum is exact
            accs = np.array([float((exact_sum + h) / len(groups))
                             for h in hits[strategy][j]])
            stderr = 0.0 if n_resamples == 1 else float(
                accs.std(ddof=1) / math.sqrt(n_resamples))
            curve.append(ScalingPoint(k=k, mean=float(accs.mean()), stderr=stderr,
                                      **counts))
        curves[strategy] = curve
    return curves


def scaling_curve(groups, strategy: str, k_values, n_resamples: int,
                  seed: int = 0) -> list[ScalingPoint]:
    """One strategy's accuracy per k: scaling_curves for that strategy alone."""
    return scaling_curves(groups, [strategy], k_values, n_resamples, seed)[strategy]


def exact_expected_accuracy(groups, k: int, strategy: str) -> Fraction:
    """Exact expected accuracy of k samples drawn without replacement, as a fraction.

    mean, best and maxconf come from their closed forms, and so do majority
    and majconf at k = 1 and k = n; between them they come from vote tables:
    the values scaling_curves reports as exact. At 1 < k < n a DomainError
    names a group whose vote table would pass _MAX_EXACT_STATES states or
    _MAX_TABLED samples.
    """
    groups = _checked(groups, [strategy], [k])
    sums, drawn, _ = _exact(groups, [strategy], [k], _MAX_EXACT_STATES)
    if drawn:
        from .votes import _MAX_TABLED
        raise DomainError(f"group {drawn[0].group!r}: more than {_MAX_TABLED} samples or "
                          f"{_MAX_EXACT_STATES} vote states, too many to value exactly")
    return _total(sums[strategy][0]) / len(groups)
