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
  mean, best, maxconf  always by closed form: v/n, the unbiased pass@k
                       1 - C(n-v, k)/C(n, k), and the level-wise maxconf sum
  majority, majconf    by scoring every k-subset of a group when there are at
                       most SUBSETS_PER_DRAW * n_resamples of them
Groups with more subsets than that are drawn: every (seed, k, resample, group)
tuple gets its own Philox stream, so majority and majconf evaluated at the same
tuple see the same draw and curves are paired. A point with no drawn group is
exact and has stderr 0.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError, DomainError
from .model import Dataset
from .simulate import _rng, check_count, check_seed

STRATEGIES = ("mean", "best", "majority", "maxconf", "majconf")

# Scoring one k-subset costs about an eighth of one Monte-Carlo draw (median
# over k = 2..12 on 16-sample groups: 4-10 us against 40-85 us), so a group is
# enumerated when it has at most this many subsets per requested draw.
SUBSETS_PER_DRAW = 8

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


def _sample_key(sample: tuple[str | None, float | None, bool]):
    answer, conf, valid = sample
    return (answer is None, answer or "", -1.0 if conf is None else conf, valid)


def group_records(dataset: Dataset) -> list[SampleGroup]:
    """Bucket records by group key, canonically ordered.

    Errors if grouped and ungrouped records are mixed or no record carries a
    group key.
    """
    dataset.require_nonempty()
    missing = [r.id for r in dataset if r.group is None]
    if missing and len(missing) < len(dataset):
        raise DataError(f"records mix grouped and ungrouped: "
                        f"{missing[0]!r} has no group")
    if missing:
        raise DataError("no record carries a group key")
    buckets: dict[str, list] = {}
    for r in dataset:
        buckets.setdefault(r.group, []).append((r.answer, r.confidence, r.valid))
    return [SampleGroup(group=g, samples=tuple(sorted(buckets[g], key=_sample_key)))
            for g in sorted(buckets)]


def _check_strategy(strategy: str, groups) -> None:
    if strategy not in _REQUIRES:
        raise DomainError(f"unknown strategy {strategy!r}; expected one of "
                          + ", ".join(STRATEGIES))
    needs_answer, needs_conf = _REQUIRES[strategy]
    for grp in groups:
        for answer, conf, _ in grp.samples:
            if needs_answer and answer is None:
                raise DataError(f"strategy {strategy!r} needs answers; "
                                f"group {grp.group!r} has a sample without one")
            if needs_conf and conf is None:
                raise DataError(f"strategy {strategy!r} needs confidences; "
                                f"group {grp.group!r} has a sample without one")


def _check_k(k: int, groups) -> None:
    if k < 1:
        raise DomainError(f"k must be >= 1: {k!r}")
    for grp in groups:
        if k > grp.size:
            raise DomainError(f"k={k} exceeds group {grp.group!r} size {grp.size}")


def _group_rng(seed: int, k: int, resample: int, group: str) -> np.random.Generator:
    digest = hashlib.sha256(group.encode("utf-8")).digest()[:8]
    return _rng([int(seed), int(k), int(resample), *digest])


def _draw(grp: SampleGroup, k: int, rng: np.random.Generator):
    idx = rng.permutation(grp.size)[:k]
    return [grp.samples[int(i)] for i in idx]


def _score(drawn, strategy: str) -> tuple[int, int]:
    """Numerator and denominator of the group's accuracy contribution."""
    if strategy == "mean":
        return sum(1 for _, _, v in drawn if v), len(drawn)
    if strategy == "best":
        return (1 if any(v for _, _, v in drawn) else 0), 1
    if strategy == "maxconf":
        best = drawn[0]
        for s in drawn[1:]:
            if s[1] > best[1]:
                best = s
        return (1 if best[2] else 0), 1
    # majority / majconf: one tally per answer, ranked by the strategy's key
    tally: dict[str, list[tuple[float, bool]]] = {}
    for answer, conf, valid in drawn:
        tally.setdefault(answer, []).append((0.0 if conf is None else conf, valid))
    keys = {a: (len(votes), math.fsum(c for c, _ in votes)) for a, votes in tally.items()}
    if strategy == "majconf":
        keys = {a: (weight, count) for a, (count, weight) in keys.items()}
    top = max(keys.values())
    winner = min(a for a, key in keys.items() if key == top)
    return (1 if any(v for _, v in tally[winner]) else 0), 1


def _closed_form(grp: SampleGroup, strategy: str, k: int) -> Fraction:
    """Exact mean, best or maxconf accuracy of one group at k."""
    n, subsets = grp.size, math.comb(grp.size, k)
    if strategy == "mean":
        return Fraction(sum(v for _, _, v in grp.samples), n)
    if strategy == "best":
        wrong = sum(1 for _, _, v in grp.samples if not v)
        return 1 - Fraction(math.comb(wrong, k), subsets)
    # maxconf: the top confidence level c in the draw holds the winner, and
    # the first drawn of the m_c samples at c is uniform over them
    levels: dict[float, list[int]] = {}
    for _, conf, valid in grp.samples:
        level = levels.setdefault(conf, [0, 0])
        level[0] += 1
        level[1] += valid
    total, below = Fraction(0), 0
    for conf in sorted(levels):
        m, v = levels[conf]
        total += Fraction(v, m) * (math.comb(below + m, k) - math.comb(below, k))
        below += m
    return total / subsets


def _enumerated(grp: SampleGroup, strategy: str, k: int) -> Fraction:
    """Exact majority or majconf accuracy of one group: the mean over its k-subsets."""
    hits = sum(_score(subset, strategy)[0]
               for subset in itertools.combinations(grp.samples, k))
    return Fraction(hits, math.comb(grp.size, k))


@dataclass(frozen=True)
class ScalingPoint:
    k: int
    mean: float
    stderr: float
    exact: bool


def scaling_curve(groups, strategy: str, k_values, n_resamples: int,
                  seed: int = 0) -> list[ScalingPoint]:
    """Accuracy per k: exact per group where cheap, else n_resamples paired draws.

    Each resample's accuracy is (sum of exact group values + sum of drawn
    group scores) / G; the point is their mean and its standard error.
    """
    groups = list(groups)
    if not groups:
        raise DataError("no groups to evaluate")
    seed = check_seed(seed)
    check_count("n_resamples", n_resamples)
    ks = [int(k) for k in k_values]
    if not ks:
        raise DomainError("k_values must be non-empty")
    _check_strategy(strategy, groups)
    _check_k(min(ks), groups)
    _check_k(max(ks), groups)
    curve = []
    for k in ks:
        exact_sum, drawn = Fraction(0), []
        for grp in groups:
            if strategy in ("mean", "best", "maxconf"):
                exact_sum += _closed_form(grp, strategy, k)
            elif math.comb(grp.size, k) <= SUBSETS_PER_DRAW * n_resamples:
                exact_sum += _enumerated(grp, strategy, k)
            else:
                drawn.append(grp)
        if not drawn:
            curve.append(ScalingPoint(k=k, mean=float(exact_sum / len(groups)),
                                      stderr=0.0, exact=True))
            continue
        # majority and majconf score a whole draw 0 or 1, so the sum is exact
        accs = np.array([float((exact_sum + sum(
            _score(_draw(grp, k, _group_rng(seed, k, r, grp.group)), strategy)[0]
            for grp in drawn)) / len(groups)) for r in range(n_resamples)])
        stderr = 0.0 if n_resamples == 1 else float(
            accs.std(ddof=1) / math.sqrt(n_resamples))
        curve.append(ScalingPoint(k=k, mean=float(accs.mean()), stderr=stderr,
                                  exact=False))
    return curve


def exact_expected_accuracy(groups, k: int, strategy: str,
                            max_permutations: int = 50_000) -> Fraction:
    """Exact expectation over all ordered k-draws, as a fraction.

    Enumerates permutations (order matters for maxconf tie-breaking), so only
    viable for small groups; errors out beyond max_permutations per group.
    """
    groups = list(groups)
    if not groups:
        raise DataError("no groups to evaluate")
    _check_strategy(strategy, groups)
    _check_k(k, groups)
    total = Fraction(0)
    for grp in groups:
        n = grp.size
        n_perms = math.perm(n, k)
        if n_perms > max_permutations:
            raise DomainError(f"group {grp.group!r}: {n_perms} ordered draws "
                              f"exceed the enumeration limit {max_permutations}")
        acc = Fraction(0)
        for drawn in itertools.permutations(grp.samples, k):
            num, den = _score(list(drawn), strategy)
            acc += Fraction(num, den)
        total += acc / n_perms
    return total / len(groups)
