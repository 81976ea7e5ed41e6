"""Test-time scaling: pick or pool an answer from k samples per question.

Strategies:
  mean     average correctness of the k draws (no selection)
  best     1 if any draw is valid (oracle upper bound)
  majority modal answer, ties by total confidence then lexicographic
  maxconf  single highest-confidence draw, ties by draw order
  majconf  answer with the largest confidence sum, ties by count then
           lexicographic

Confidence sums are math.fsum sums, correctly rounded, so a vote depends only
on the set of samples drawn, not on its order. Groups are columns (Groups).
Draws are k of a group's n samples without replacement; each point is exact
wherever that is cheap:
  k = 1                every strategy scores the one sample drawn: v/n
  k = n                majority and majconf vote the whole group, 0 or 1
  mean, best, maxconf  closed forms: v/n, the unbiased pass@k and the
                       level-wise maxconf sum, read from the columns by
                       reduceat and summed over groups that share a term
  majority, majconf    at 1 < k < n from per-answer subset tables
                       (becal.votes), one table per group for every k
A group with some requested 1 < k < n is tabled when its answers have at most
STATES_PER_DRAW * n_resamples * len(k_values) states and it has at most
_MAX_TABLED samples; else it is drawn there, each (seed, k, resample, group)
tuple from its own Philox stream (becal.draws), so curves are paired. A point
with no drawn group is exact, stderr 0. One pass values every strategy: each
table, and each numpy tally (_votes) of many whole groups at k = n or draws,
serves both vote rules. The brute-force oracles are in the tests.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import STRATEGIES
from .errors import DataError, DomainError, check_count, check_integer, check_seed
from .model import Dataset, _check_flag, _check_number, _check_text, _check_unit

# A group is tabled when it has at most this many states per requested draw.
# A state costs about 0.5 us to build and 0.26 us to score for one vote rule
# at k up to 8, and a draw about 5.5 us to make and score for both rules in
# bulk (medians of 7 runs on the benchmark's 200 groups of 16 samples on the
# 0.05 grid, 2-core x86): a ratio near 5 for both rules. The value stays 32,
# since moving it moves which groups are drawn and so the outputs.
STATES_PER_DRAW = 32

# exact_expected_accuracy tables a vote group of at most this many states. At
# the cap, 4 answers of 14 samples at distinct confidences, k = 55 (k = 56 is
# the whole group) takes about 0.5 s and 140 MB (2-core x86)
_MAX_EXACT_STATES = 1 << 16

# A _votes tally of whole groups or of draws takes about this many samples
_TALLY_SAMPLES = 1 << 16

_CLOSED = ("mean", "best", "maxconf")  # valued by closed form, never drawn

# (needs answers, needs confidences) per strategy
_REQUIRES = {"mean": (False, False), "best": (False, False), "majority": (True, False),
             "maxconf": (False, True), "majconf": (True, True)}


@dataclass(frozen=True)
class SampleGroup:
    """One group built by hand: (answer, confidence, valid) samples, which
    draws index in this order."""

    group: str
    samples: tuple[tuple[str | None, float | None, bool], ...]

    def __post_init__(self) -> None:
        """Checks each sample as a record's answer, confidence and valid."""
        samples = []
        try:
            for answer, confidence, valid in self.samples:
                _check_text("answer", answer)
                if confidence is not None:
                    _check_number("confidence", confidence)
                    confidence = _check_unit("confidence", confidence)
                samples.append((answer, confidence, _check_flag("valid", valid)))
        except DataError as exc:
            raise DataError(f"group {self.group!r}: {exc}") from None
        except (TypeError, ValueError):  # not a sequence of triples
            raise DataError(f"group {self.group!r}: samples must be "
                            "(answer, confidence, valid) triples") from None
        if not samples:
            raise DataError(f"group {self.group!r} has no samples")
        object.__setattr__(self, "samples", tuple(samples))

    @property
    def size(self) -> int:
        return len(self.samples)


class Groups:
    """Every group's samples as columns: group g holds samples
    offsets[g]:offsets[g + 1]. groups[g] is that group as a SampleGroup.

    names       each group's name
    offsets     int64, len(names) + 1
    answers     the answer names, sorted
    answer      each sample's index into answers; len(answers) if none
    confidence  NaN if none
    valid
    """

    def __init__(self, names, offsets, answers, answer, confidence, valid):
        self.names, self.offsets, self.answers = names, offsets, answers
        self.answer, self.confidence, self.valid = answer, confidence, valid

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, g: int) -> SampleGroup:
        g = range(len(self))[g]
        part = slice(self.offsets[g], self.offsets[g + 1])
        names = [*self.answers, None]
        return SampleGroup(self.names[g], tuple(zip(
            [names[a] for a in self.answer[part].tolist()],
            [None if c != c else c for c in self.confidence[part].tolist()],
            self.valid[part].tolist())))


def _ranks(table: tuple[str, ...]) -> np.ndarray:
    """Each name's position in sorted order, and len(table) for code -1 (no name)."""
    ranks = np.empty(len(table) + 1, dtype=np.int64)
    ranks[sorted(range(len(table)), key=table.__getitem__)] = np.arange(len(table))
    ranks[-1] = len(table)
    return ranks


def group_records(dataset: Dataset) -> Groups:
    """The records as Groups, sorted once by group name, answer (none last),
    confidence (none first) and validity, so datasets differing only in
    record order give identical groups. Errors if grouped and ungrouped
    records are mixed or no record carries a group key."""
    dataset.require_nonempty()
    missing = dataset.group < 0
    if missing.all():
        raise DataError("no record carries a group key")
    if missing.any():
        raise DataError(f"records mix grouped and ungrouped: "
                        f"{dataset.ids[int(np.argmax(missing))]!r} has no group")
    group_rank = _ranks(dataset.group_names)[dataset.group]
    answer = _ranks(dataset.answer_names)[dataset.answer]
    order = np.lexsort((dataset.valid, np.nan_to_num(dataset.confidence, nan=-1.0),
                        answer, group_rank))
    starts = np.flatnonzero(np.diff(group_rank[order], prepend=-1))
    return Groups([dataset.group_names[g] for g in dataset.group[order[starts]].tolist()],
                  np.append(starts, len(order)), sorted(dataset.answer_names),
                  answer[order], dataset.confidence[order], dataset.valid[order])


def _columns(groups) -> Groups:
    """groups as Groups; each SampleGroup's samples are read once."""
    if isinstance(groups, Groups):
        return groups
    groups = list(groups)
    samples = [sample for grp in groups for sample in grp.samples]
    answers = sorted({answer for answer, _, _ in samples} - {None})
    code = dict(zip(answers, range(len(answers))))
    return Groups([grp.group for grp in groups], np.cumsum([0] + [grp.size for grp in groups]),
                  answers,
                  np.array([code.get(a, len(answers)) for a, _, _ in samples], dtype=np.int64),
                  np.array([np.nan if c is None else c for _, c, _ in samples], dtype=np.float64),
                  np.array([v for _, _, v in samples], dtype=bool))


def _members(groups: Groups, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample of groups[chosen], group after group: its index into the
    columns, and its group's place in chosen."""
    sizes = np.diff(groups.offsets)[chosen]
    owner = np.repeat(np.arange(len(chosen)), sizes)
    return np.repeat(groups.offsets[chosen] - np.cumsum(sizes) + sizes, sizes) + \
        np.arange(len(owner)), owner


def _votes(groups: Groups, at: np.ndarray, owner: np.ndarray, rules) -> dict[str, np.ndarray]:
    """Per vote rule, each set's vote in set order, 1 if it goes to a valid
    sample; set s holds the samples at[owner == s]. An answer's tally is its
    count, the math.fsum of its confidences (none: 0) and whether any is
    valid: majority ranks by count then sum, majconf by sum then count."""
    width = len(groups.answers) + 1
    key = owner * width + groups.answer[at]  # set, then answer
    order = np.argsort(key)
    key, at = key[order], at[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.diff(first, append=len(key))
    conf = np.nan_to_num(groups.confidence[at])
    total = np.add.reduceat(conf, first)  # one addition is correctly rounded, as fsum
    values, bounds = conf.tolist(), np.append(first, len(key)).tolist()
    for i in np.flatnonzero(count > 2).tolist():
        total[i] = math.fsum(values[bounds[i]:bounds[i + 1]])
    valid, key = np.logical_or.reduceat(groups.valid[at], first), key[first]
    # np.lexsort sorts by its last key first: by set, the rule's ranks, then name
    ranks = {"majority": (-total, -count), "majconf": (-count, -total)}
    opens = np.flatnonzero(np.diff(key // width, prepend=-1))
    return {rule: valid[np.lexsort((key, *ranks[rule], key // width))[opens]] for rule in rules}


def _sums(value: np.ndarray, *keys: np.ndarray):
    """(*key, sum of value) as Python ints, once per distinct key tuple."""
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for key in keys:
        new[1:] |= np.diff(key[order]) != 0
    first = np.flatnonzero(new)
    return list(zip(*(key[order[first]].tolist() for key in keys),
                    np.add.reduceat(value[order], first).tolist()))


def _exact(groups: Groups, strategies: list[str], ks: list[int],
           cap: float) -> tuple[dict[str, list[Counter]], np.ndarray, np.ndarray]:
    """Per strategy and k, the sum of every exactly valued group's accuracy
    as {denominator: numerator}; the groups left to draw; and each group's
    table states, 0 for none.

    At 1 < k < n majority and majconf are valued from the table of each
    group with at most cap states and _MAX_TABLED samples, each batch of
    tables built once and scored for both rules; at k = n by _votes.
    """
    sizes = np.diff(groups.offsets)
    valid = np.add.reduceat(groups.valid, groups.offsets[:-1], dtype=np.int64)
    sums = {strategy: [Counter() for _ in ks] for strategy in strategies}
    mean = dict(_sums(valid, sizes))  # size: valid samples of its groups
    for strategy in strategies:
        for j, k in enumerate(ks):
            if k == 1 or strategy == "mean":
                sums[strategy][j].update(mean)
    if "best" in strategies:
        pairs = _sums(np.ones_like(sizes), sizes, valid)  # (n, v, groups)
        for j, k in enumerate(ks):
            for n, v, count in pairs if k > 1 else ():
                sums["best"][j][math.comb(n, k)] += count * (math.comb(n, k) - math.comb(n - v, k))
    if "maxconf" in strategies:
        # the draw's top confidence level c holds the winner, uniform over its
        # m_c samples: a level with v_c valid and B_c below adds v_c/m_c *
        # (C(B_c + m_c, k) - C(B_c, k)) / C(n, k), summed per (n, m_c, B_c)
        owner = np.repeat(np.arange(len(groups)), sizes)
        order = np.lexsort((groups.confidence, owner))
        conf = groups.confidence[order]
        first = np.flatnonzero(np.append(True, (np.diff(owner) != 0) | (conf[1:] != conf[:-1])))
        levels = _sums(np.add.reduceat(groups.valid[order], first, dtype=np.int64),
                       sizes[owner[first]], np.diff(first, append=len(order)),
                       first - groups.offsets[owner[first]])
        for j, k in enumerate(ks):
            for n, m, below, v in levels if k > 1 else ():
                sums["maxconf"][j][m * math.comb(n, k)] += \
                    v * (math.comb(below + m, k) - math.comb(below, k))
    votes = [strategy for strategy in strategies if strategy not in _CLOSED]
    above = [k for k in ks if k > 1]
    if not votes or not above:
        return sums, sizes[:0], np.zeros(len(groups), dtype=np.int64)
    states = np.zeros(len(groups), dtype=np.int64)
    voted = np.flatnonzero(sizes > min(above))
    if len(voted):
        # loaded only by a command that needs tables
        from .votes import _batches, _vote_hits
        for tabled, table in _batches(groups, voted, cap):
            states[tabled] = np.bincount(table.group)
            batch = sizes[tabled]
            # scored up to the largest k below a group's size
            deep = [(j, k) for j, k in enumerate(ks) if 1 < k < batch.max()]
            for strategy in votes:
                hits = _vote_hits(table, strategy, [k for _, k in deep])
                for size in set(batch.tolist()):
                    # Python ints: many 62-sample groups' counts pass int64
                    for (j, k), column in zip(deep, hits[batch == size].T.tolist()):
                        if k < size:
                            sums[strategy][j][math.comb(size, k)] += sum(column)
    # k = n: each whole group's vote (none has one sample), in parts of
    # about _TALLY_SAMPLES samples
    whole = np.flatnonzero(np.isin(sizes, above))
    ends = np.cumsum(sizes[whole]) // _TALLY_SAMPLES
    for part in np.split(whole, np.flatnonzero(np.diff(ends)) + 1):
        for strategy, hit in _votes(groups, *_members(groups, part), votes).items():
            for j, k in enumerate(ks):
                sums[strategy][j][1] += int(hit[sizes[part] == k].sum())
    return sums, voted[states[voted] == 0], states


def _total(sums: Counter) -> Fraction:
    """The exact sum of {denominator: numerator}: one Fraction per denominator."""
    return sum((Fraction(num, den) for den, num in sums.items()), Fraction(0))


def check_curve_options(k_values, n_resamples: int, seed: int) -> tuple[list[int], int]:
    """k_values as a list of ints and seed as an int; DomainError unless there
    is a k, each k and n_resamples is an integer count and seed follows the
    seed rule. They need no group, so the CLI checks them before any record."""
    seed = check_seed(seed)
    check_integer("n_resamples", check_count("n_resamples", n_resamples))
    ks = list(k_values)
    if not ks:
        raise DomainError("k_values must be non-empty")
    return [check_integer("k", check_count("k", k)) for k in ks], seed


def _checked(groups, strategies: list[str], ks: list[int]) -> Groups:
    """groups as Groups; an error if there are none or they do not suit
    every strategy, each checked in turn against the first sample lacking
    what it needs, or a k exceeds a group's size."""
    groups = _columns(groups)
    if not len(groups):
        raise DataError("no groups to evaluate")
    # the first sample without an answer, and without a confidence
    missing = [int(np.argmax(lack)) if lack.any() else None
               for lack in (groups.answer == len(groups.answers), np.isnan(groups.confidence))]
    for strategy in strategies:
        if strategy not in _REQUIRES:
            raise DomainError(f"unknown strategy {strategy!r}; expected one of "
                              + ", ".join(STRATEGIES))
        found = [(missing[field], what) for field, what in enumerate(("answers", "confidences"))
                 if _REQUIRES[strategy][field] and missing[field] is not None]
        if found:
            sample, what = min(found)
            g = int(np.searchsorted(groups.offsets, sample, side="right")) - 1
            raise DataError(f"strategy {strategy!r} needs {what}; "
                            f"group {groups.names[g]!r} has a sample without one")
    sizes = np.diff(groups.offsets)
    if (sizes < max(ks)).any():
        g = int(np.argmax(sizes < max(ks)))
        raise DomainError(f"k={max(ks)} exceeds group {groups.names[g]!r} size {sizes[g]}")
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
    group scores) / G; the point is their mean and its standard error.
    """
    ks, seed = check_curve_options(k_values, n_resamples, seed)
    strategies = list(dict.fromkeys(strategies))
    groups = _checked(groups, strategies, ks)
    sums, drawn, states = _exact(groups, strategies, ks,
                                 STATES_PER_DRAW * n_resamples * len(ks))
    if len(drawn):
        # per k, each rule's valid votes over the drawn groups per resample;
        # loaded only when some group is drawn
        from .draws import draw_hits
        hits = draw_hits(groups, drawn, ks, n_resamples, seed,
                         [strategy for strategy in strategies if strategy not in _CLOSED])
    sizes = np.diff(groups.offsets)
    valued = []  # per k, how a vote rule's groups are valued
    for k in ks:
        # at k = 1 and at k = n a group is valued by closed form
        tabled = states[(states > 0) & (1 < k) & (k < sizes)]
        drawn_at = int(((1 < k) & (k < sizes[drawn])).sum())
        valued.append({"closed_form": len(groups) - len(tabled) - drawn_at,
                       "tabled": len(tabled), "drawn": drawn_at,
                       "states": int(tabled.sum()), "draws": drawn_at * n_resamples})
    closed = {"closed_form": len(groups), "tabled": 0, "drawn": 0, "states": 0, "draws": 0}
    curves = {}
    for strategy in strategies:
        curve = []
        for j, k in enumerate(ks):
            exact_sum = _total(sums[strategy][j])
            counts = closed if strategy in _CLOSED else valued[j]
            # majority and majconf score a whole draw 0 or 1, so each sum is
            # exact; an exact point is the one sum
            accs = np.array([float((exact_sum + h) / len(groups))
                             for h in (hits[j][strategy] if counts["drawn"] else [0])])
            stderr = float(accs.std(ddof=1) / math.sqrt(len(accs))) if len(accs) > 1 else 0.0
            curve.append(ScalingPoint(k=k, mean=float(accs.mean()), stderr=stderr, **counts))
        curves[strategy] = curve
    return curves


def scaling_curve(groups, strategy: str, k_values, n_resamples: int,
                  seed: int = 0) -> list[ScalingPoint]:
    """One strategy's accuracy per k: scaling_curves for that strategy alone."""
    return scaling_curves(groups, [strategy], k_values, n_resamples, seed)[strategy]


def exact_expected_accuracy(groups, k: int, strategy: str) -> Fraction:
    """Exact expected accuracy of k samples drawn without replacement, as a
    fraction, from the closed forms and tables scaling_curves uses. At
    1 < k < n a DomainError names a group whose vote table would pass
    _MAX_EXACT_STATES states or _MAX_TABLED samples."""
    groups = _checked(groups, [strategy], [check_integer("k", check_count("k", k))])
    sums, drawn, _ = _exact(groups, [strategy], [k], _MAX_EXACT_STATES)
    if len(drawn):
        from .votes import _MAX_TABLED
        raise DomainError(f"group {groups.names[drawn[0]]!r}: more than {_MAX_TABLED} samples "
                          f"or {_MAX_EXACT_STATES} vote states, too many to value exactly")
    return _total(sums[strategy][0]) / len(groups)
