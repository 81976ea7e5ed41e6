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
  majority, majconf    from per-answer subset tables. A state of answer a is
                       a subset size c and an exact confidence sum; it counts
                       a's subsets there and those holding a valid sample.
                       a's subset wins iff every other answer b's subset
                       loses to it: a lower key, or an equal one when b's
                       name sorts after a's (the empty subset always loses).
                       So a wins sum count_valid * [x^(k-c)] prod_b L_b(x)
                       valid k-subsets over its states, L_b counting b's
                       losing subsets by size. One table serves every k.
A group is tabled when its answers have at most
STATES_PER_DRAW * n_resamples * len(k_values) states, counted while the table
grows, and at most _MAX_TABLED samples. Other groups are drawn: every (seed,
k, resample, group) tuple gets its own Philox stream, so majority and majconf
evaluated at the same tuple see the same draw and curves are paired. A point
with no drawn group is exact and has stderr 0.

exact_expected_accuracy is the same exact value, from the same closed forms
and tables, for any group a table of at most _MAX_EXACT_STATES states holds.
The brute-force oracle, every ordered draw scored in turn, is in the tests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DataError, DomainError, check_count, check_seed
from .model import Dataset, _names
from .simulate import _rng

STRATEGIES = ("mean", "best", "majority", "maxconf", "majconf")

# At the margin a table state costs about 1.2 us for one strategy, build
# included, and a Monte-Carlo draw 37-39 us (timed in turn on the benchmark's
# 16-sample groups on the 0.05 confidence grid, 2-core x86): a ratio of 32, so
# a group is tabled when it has at most this many states per requested draw.
# One table serves every k.
STATES_PER_DRAW = 32

# Subset counts of at most 62 samples stay below 2^62, so tables fit int64,
# and a state's size fits the 6 low bits of its key
_MAX_TABLED = 62

# exact_expected_accuracy tables a vote group of at most this many states.
# At the cap, 4 answers of 14 samples at distinct confidences, k = 56 takes
# about 1.3 s and 160 MB (2-core x86)
_MAX_EXACT_STATES = 1 << 16

# Vote states scored at once; their arrays peak near 1.6 MB at max k = 16
_BATCH_STATES = 1 << 12

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


def _closed_form(grp: SampleGroup, strategy: str, k: int) -> Fraction:
    """Exact mean, best or maxconf accuracy of one group at k."""
    n, subsets = grp.size, math.comb(grp.size, k)
    if strategy == "mean":
        return Fraction(sum(v for _, _, v in grp.samples), n)
    if strategy == "best":
        wrong = sum(1 for _, _, v in grp.samples if not v)
        return 1 - Fraction(math.comb(wrong, k), subsets)
    # maxconf: the top confidence level c in the draw holds the winner, and
    # the first drawn of the m_c samples at c is uniform over them; the sum
    # of v_c/m_c * (draws topped by c) is taken over the denominator lcm(m_c)
    levels: dict[float, list[int]] = {}
    for _, conf, valid in grp.samples:
        level = levels.setdefault(conf, [0, 0])
        level[0] += 1
        level[1] += valid
    scale = math.lcm(*(m for m, _ in levels.values()))
    total, below = 0, 0
    for conf in sorted(levels):
        m, v = levels[conf]
        total += v * (scale // m) * (math.comb(below + m, k) - math.comb(below, k))
        below += m
    return Fraction(total, scale * subsets)


class _Table(NamedTuple):
    """Vote states of a batch of groups, by group, then answer in name order."""

    group: np.ndarray   # the state's group, counted within the batch
    answer: np.ndarray  # the state's answer, counted within the batch
    size: np.ndarray    # subset size c
    total: np.ndarray   # confidence sum, correctly rounded as math.fsum rounds it
    count: np.ndarray   # subsets of that answer with this size and exact sum
    valid: np.ndarray   # of those, the subsets holding a valid sample


def _subsets(levels: dict[int, int], limit: float) -> dict[int, int] | None:
    """sum << 6 | size -> the subsets with that size and exact sum, of samples
    at the given levels (scaled confidence -> samples there); None once
    there are more than limit keys."""
    count = {0: 1}
    for x, m in levels.items():
        grown = dict(count)
        for j in range(1, m + 1):
            shift, ways = j * (x << 6 | 1), math.comb(m, j)
            for key, n in count.items():
                grown[key + shift] = grown.get(key + shift, 0) + n * ways
            if len(grown) > limit:
                return None
        count = grown
    return count


def _states(grp: SampleGroup, cap: int) -> tuple[list, ...] | None:
    """How many states each answer has, answers in name order, then the
    states' sizes, sums and counts as in _Table; None past cap states.

    Each state counts the subsets of one answer's samples with one size and
    one exact confidence sum, the empty subset included. Sums are integers
    over the group's common dyadic denominator while the states grow, then
    divided once: int true division rounds correctly, as math.fsum does.
    """
    if grp.size > _MAX_TABLED:
        return None
    ratios = [(0.0 if conf is None else conf).as_integer_ratio()
              for _, conf, _ in grp.samples]
    denom = max(q for _, q in ratios)  # every q is a power of two
    # per answer, scaled confidence -> samples there: all, and the invalid
    levels: dict[str, tuple[dict[int, int], dict[int, int]]] = {}
    for (answer, _, valid), (p, q) in zip(grp.samples, ratios):
        x = p * (denom // q)
        every, invalid = levels.setdefault(answer, ({}, {}))
        every[x] = every.get(x, 0) + 1
        if not valid:
            invalid[x] = invalid.get(x, 0) + 1
    columns: tuple[list, ...] = ([], [], [], [], [])
    for answer in sorted(levels):
        every, invalid = levels[answer]
        count = _subsets(every, cap - len(columns[1]))
        if count is None:
            return None
        # the subsets with no valid sample are those of the invalid samples
        invalid = count if invalid == every else _subsets(invalid, math.inf)
        columns[0].append(len(count))
        columns[1].extend([key & 63 for key in count])
        columns[2].extend([(key >> 6) / denom for key in count])
        columns[3].extend(count.values())
        columns[4].extend([n - invalid.get(key, 0) for key, n in count.items()])
    return columns


def _batches(groups: list[SampleGroup], cap: int):
    """(indices into groups, _Table) for every group with at most cap states.

    A batch closes once it holds _BATCH_STATES states, so the arrays scored
    at once stay bounded however many groups there are.
    """
    def batch():
        answer = np.repeat(np.arange(len(columns[0])), columns[0])
        group = np.repeat(np.arange(len(indices)), answers)[answer]
        return indices, _Table(group, answer, np.array(columns[1], dtype=np.int64),
                               np.array(columns[2], dtype=np.float64),
                               *(np.array(c, dtype=np.int64) for c in columns[3:]))

    indices: list[int] = []
    answers: list[int] = []  # answers per group
    columns: tuple[list, ...] = ([], [], [], [], [])  # as _states returns them
    for index, grp in enumerate(groups):
        states = _states(grp, cap)
        if states is None:
            continue
        indices.append(index)
        answers.append(len(states[0]))
        for column, values in zip(columns, states):
            column.extend(values)
        if len(columns[1]) >= _BATCH_STATES:
            yield batch()
            indices, answers, columns = [], [], ([], [], [], [], [])
    if indices:
        yield batch()


def _vote_hits(table: _Table, strategy: str, ks: list[int]) -> np.ndarray:
    """Per group of the batch and k: the k-subsets whose vote goes to a valid sample."""
    n = len(table.size)
    minor, major = (table.total, table.size) if strategy == "majority" else \
        (table.size, table.total)
    order = np.lexsort((minor, major, table.group))
    changed = np.ones(n, dtype=bool)
    changed[1:] = ((np.diff(table.group[order]) != 0) | (np.diff(table.size[order]) != 0)
                   | (np.diff(table.total[order]) != 0))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(changed)  # equal vote keys of a group share a rank
    # states by answer, then rank: answers are numbered group after group,
    # and each answer's empty subset, the least key, comes first
    by = np.lexsort((rank, table.answer))
    group, answer, size, rank = (column[by] for column in (table.group, table.answer,
                                                           table.size, rank))
    start = np.flatnonzero(np.diff(answer, prepend=-1))  # each answer's first state
    reach = np.maximum.reduceat(size, start)  # each answer's sample count
    # each group's first answer, and its number of answers
    first = np.searchsorted(group[start], np.arange(group[-1] + 1))
    answers = np.diff(first, append=len(start))
    # running[p]: by size, the subsets in states of p's answer up to p, then
    # one row for "no answer"; sizes from width on are never needed, as the
    # winner fills one of the k <= width places. Each answer's sum restarts
    # from 0, so no sum exceeds one answer's subsets and int64 holds it.
    width = max(ks)
    fits = size < width
    running = np.zeros((n + 1, width), dtype=np.int64)
    running[np.flatnonzero(fits), size[fits]] = table.count[by][fits]
    running[start[1:]] -= np.add.reduceat(running[:n], start)[:-1]
    np.cumsum(running[:n], axis=0, out=running[:n])
    running[n, 0] = 1
    # a row per state holding a valid sample; another answer b of its group
    # loses below its key, and at an equal key iff b's name sorts after a's
    rows = np.flatnonzero((table.valid[by] > 0) & (size <= width))
    a, g = answer[rows], group[rows]
    slots = np.arange(int(answers.max()) - 1)
    other = slots + (slots >= (a - first[g])[:, None])
    real = other < answers[g, None]
    b = np.where(real, first[g, None] + other, len(start))
    last = np.searchsorted(answer * (2 * n + 2) + 2 * rank,
                           b * (2 * n + 2) + 2 * rank[rows, None] + (b > a[:, None])) - 1
    last[~real] = n
    # the product of the L_b depends on a row only through last, which rises
    # with the rank, so rows sharing it are adjacent: multiply once for them
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (a[1:] != a[:-1]) | (last[1:] != last[:-1]).any(axis=1)
    b, last = b[fresh], last[fresh]
    depth = np.append(reach, 0)[b]
    poly = np.zeros((len(b), width), dtype=np.int64)
    poly[:, 0] = 1
    for slot in slots:
        factor = running[last[:, slot]]  # factor[:, 0] is 1: the empty subset
        product = poly.copy()
        for t in range(1, min(width, int(depth[:, slot].max(initial=0)) + 1)):
            product[:, t:] += poly[:, :-t] * factor[:, t:t + 1]
        poly = product
    place = np.array(ks) - size[rows, None]  # a fills c of the k places
    hits = (poly[np.cumsum(fresh)[:, None] - 1, np.maximum(place, 0)] * (place >= 0)
            * table.valid[by][rows, None])
    out = np.zeros((int(group[-1]) + 1, len(ks)), dtype=np.int64)
    np.add.at(out, g, hits)
    return out


def _exact(groups: list[SampleGroup], strategy: str, ks: list[int],
           cap: float) -> tuple[dict[int, list[Fraction]], int]:
    """Each exactly valued group's index -> its accuracy at each k, and the
    table states behind them: every group by closed form, or each vote group
    with at most cap states and _MAX_TABLED samples from its table."""
    if strategy in _CLOSED:
        return {index: [_closed_form(grp, strategy, k) for k in ks]
                for index, grp in enumerate(groups)}, 0
    exact, states = {}, 0
    for indices, table in _batches(groups, cap):
        states += len(table.size)
        for index, hits in zip(indices, _vote_hits(table, strategy, ks).tolist()):
            exact[index] = [Fraction(h, math.comb(groups[index].size, k))
                            for h, k in zip(hits, ks)]
    return exact, states


def _checked(groups, strategy: str, ks: list[int]) -> list[SampleGroup]:
    """groups as a list; an error if there are none or they do not suit the
    strategy and every k."""
    groups = list(groups)
    if not groups:
        raise DataError("no groups to evaluate")
    _check_strategy(strategy, groups)
    check_count("k", min(ks))
    for grp in groups:
        if max(ks) > grp.size:
            raise DomainError(f"k={max(ks)} exceeds group {grp.group!r} size {grp.size}")
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


def scaling_curve(groups, strategy: str, k_values, n_resamples: int,
                  seed: int = 0) -> list[ScalingPoint]:
    """Accuracy per k: exact per group where cheap, else n_resamples paired draws.

    Each resample's accuracy is (sum of exact group values + sum of drawn
    group scores) / G; the point is their mean and its standard error.
    """
    seed = check_seed(seed)
    check_count("n_resamples", n_resamples)
    ks = [int(k) for k in k_values]
    if not ks:
        raise DomainError("k_values must be non-empty")
    groups = _checked(groups, strategy, ks)
    exact, states = _exact(groups, strategy, ks, STATES_PER_DRAW * n_resamples * len(ks))
    drawn = [grp for index, grp in enumerate(groups) if index not in exact]
    sums = [sum((values[i] for values in exact.values()), Fraction(0))
            for i in range(len(ks))]
    closed = strategy in _CLOSED
    counts = {"closed_form": len(exact) if closed else 0,
              "tabled": 0 if closed else len(exact), "drawn": len(drawn),
              "states": states, "draws": len(drawn) * n_resamples}
    curve = []
    for k, exact_sum in zip(ks, sums):
        if not drawn:
            curve.append(ScalingPoint(k=k, mean=float(exact_sum / len(groups)),
                                      stderr=0.0, **counts))
            continue
        # majority and majconf score a whole draw 0 or 1, so the sum is exact
        accs = np.array([float((exact_sum + sum(
            _score(_draw(grp, k, _group_rng(seed, k, r, grp.group)), strategy)
            for grp in drawn)) / len(groups)) for r in range(n_resamples)])
        stderr = 0.0 if n_resamples == 1 else float(
            accs.std(ddof=1) / math.sqrt(n_resamples))
        curve.append(ScalingPoint(k=k, mean=float(accs.mean()), stderr=stderr, **counts))
    return curve


def exact_expected_accuracy(groups, k: int, strategy: str) -> Fraction:
    """Exact expected accuracy of k samples drawn without replacement, as a fraction.

    mean, best and maxconf come from their closed forms, majority and
    majconf from vote tables: the values scaling_curve reports as exact. A
    DomainError names a group whose vote table would pass _MAX_EXACT_STATES
    states or _MAX_TABLED samples.
    """
    groups = _checked(groups, strategy, [k])
    exact, _ = _exact(groups, strategy, [k], _MAX_EXACT_STATES)
    for index, grp in enumerate(groups):
        if index not in exact:
            raise DomainError(f"group {grp.group!r}: more than {_MAX_TABLED} samples or "
                              f"{_MAX_EXACT_STATES} vote states, too many to value exactly")
    return sum(values[0] for values in exact.values()) / len(groups)
