"""Exact majority and majconf votes from per-answer subset tables.

A state of answer a is a subset size c and an exact confidence sum (an integer
over the group's power-of-two denominator, compared rounded once, as math.fsum
rounds it); it counts a's subsets there and those holding a valid sample. a's
subset wins iff every other answer b's subset loses to it: a lower vote key,
or an equal one when b's name sorts after a's (the empty subset always
loses). So a wins sum count_valid * [x^(k-c)] prod_b L_b(x) valid k-subsets
over its states, L_b counting b's losing subsets by size, and one table serves
every k.

Tables are numpy arrays read from the tts columns and built and scored a
batch of groups at a time, so the memory held stays bounded however many
groups there are. Each other answer's losing states are found by running
counts over the group's states in key order. The whole group's vote (k = n)
needs no table: becal.tts tallies it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tts import Groups, _members

# Subset counts of at most 62 samples stay below 2^62, so tables fit int64,
# and a state's size fits the 6 low bits of its key
_MAX_TABLED = 62

# Vote states built and scored at once, about. On the benchmark's 16-sample
# groups a batch of 8,400 states peaks near 1.4 MB to build and 2.2 MB to
# score at k up to 8 (3.0 MB up to 16; tracemalloc); with 4,096 the fixed
# numpy cost of more batches made scaling_curves there about 6 % slower
_BATCH_STATES = 1 << 13


class _Table(NamedTuple):
    """Vote states of a batch of groups; answers are numbered group after
    group, in name order within a group."""

    group: np.ndarray   # the state's group, counted within the batch
    answer: np.ndarray  # the state's answer, counted within the batch
    size: np.ndarray    # subset size c
    rank: np.ndarray    # rank of the confidence sum, correctly rounded as
                        # math.fsum rounds it, among the batch's sums
    count: np.ndarray   # subsets of that answer with this size and exact sum
    valid: np.ndarray   # of those, the subsets holding a valid sample


class _Levels(NamedTuple):
    """Some groups' answers and their confidence levels: answers are
    numbered group after group in name order, levels answer after answer,
    the fullest first. A level's value is its confidence times its group's
    power-of-two denominator, an integer: int64, or Python ints where some
    group's denominator or sum could pass 63 bits."""

    owner: np.ndarray    # each answer's group
    answer: np.ndarray   # each level's answer
    depth: np.ndarray    # the level's place among its answer's levels
    samples: np.ndarray  # samples at the level
    invalid: np.ndarray  # invalid samples at the level
    value: np.ndarray    # the level's scaled confidence
    denom: np.ndarray    # each group's denominator


def _levels(groups: Groups, chosen: np.ndarray) -> _Levels:
    """The answers and confidence levels of groups[chosen], for _table."""
    at, group = _members(groups, chosen)
    # samples by group, answer and confidence (no confidence: 0)
    key = group * (len(groups.answers) + 1) + groups.answer[at]
    conf = np.nan_to_num(groups.confidence[at])
    order = np.lexsort((conf, key))
    key, conf = key[order], conf[order]
    invalid = ~groups.valid[at][order]
    first = np.flatnonzero(np.append(True, (key[1:] != key[:-1]) | (conf[1:] != conf[:-1])))
    key, conf = key[first], conf[first]
    samples = np.diff(first, append=len(order))
    invalid = np.add.reduceat(invalid, first, dtype=np.int64)
    answer = np.cumsum(np.append(False, key[1:] != key[:-1]))
    answer_levels = np.flatnonzero(np.diff(answer, prepend=-1))
    owner = key[answer_levels] // (len(groups.answers) + 1)
    # the fullest level of each answer first
    order = np.argsort(answer * 64 + 63 - samples, kind="stable")
    conf, samples, invalid = conf[order], samples[order], invalid[order]
    depth = np.arange(len(order)) - answer_levels[answer]
    # conf = mantissa * 2^exponent, the mantissa odd or 0
    fraction, exponent = np.frexp(conf)
    mantissa = (fraction * 2.0 ** 53).astype(np.int64)
    zeros = np.where(mantissa > 0,
                     np.frexp((mantissa & -mantissa).astype(np.float64))[1] - 1, 0)
    mantissa >>= zeros
    exponent = np.where(mantissa > 0, exponent - 53 + zeros, 0)
    group_levels = answer_levels[np.searchsorted(owner, np.arange(len(chosen)))]
    scale = -np.minimum.reduceat(exponent, group_levels)  # denominators are 2^scale
    top = np.add.reduceat(conf * samples, group_levels)  # the group's whole sum
    wide = (scale > 62).any() or (np.ldexp(top, np.minimum(scale, 62)) >= 2.0 ** 62).any()
    dtype = object if wide else np.int64
    shift = exponent + scale[owner[answer]]
    return _Levels(owner, answer, depth, samples, invalid,
                   mantissa.astype(dtype) << shift.astype(dtype),
                   np.left_shift(1, scale.astype(dtype)))


def _batches(groups: Groups, voted: np.ndarray, cap: float):
    """(indices into groups, _Table) for every voted group with at most cap
    states and _MAX_TABLED samples.

    A batch holds about _BATCH_STATES states, so the arrays built and
    scored at once stay bounded however many groups there are. A group's
    bound on its rows counts its answers' subsets by how many samples of
    each level they take, at most cap, and is read from runs of equal answer
    and confidence in the columns (a canonically ordered group holds each
    level in one run; a level split over runs only raises it). Where sums
    coincide it passes the states, so a batch's groups may bound as many
    rows as _BATCH_STATES times the ratio of bound to states so far, at most
    2: past 2 * _BATCH_STATES rows a build merges them anyway.
    """
    pascal = np.zeros((_MAX_TABLED + 1, _MAX_TABLED + 1), dtype=np.int64)
    pascal[:, 0] = 1
    for m in range(1, _MAX_TABLED + 1):
        pascal[m, 1:] = pascal[m - 1, 1:] + pascal[m - 1, :-1]
    answer, conf = groups.answer, np.nan_to_num(groups.confidence)
    opens = np.zeros(len(answer), dtype=bool)  # a group's first sample
    opens[groups.offsets[:-1]] = True
    turns = opens.copy()  # an answer's first sample
    turns[1:] |= answer[1:] != answer[:-1]
    runs = np.flatnonzero(turns | np.append(False, conf[1:] != conf[:-1]))
    ways = np.multiply.reduceat(np.diff(runs, append=len(answer)) + 1,
                                np.flatnonzero(turns[runs]))
    bound = np.add.reduceat(ways, np.flatnonzero(opens[runs[turns[runs]]]))
    voted = voted[np.diff(groups.offsets)[voted] <= _MAX_TABLED]
    # rows past cap are merged, and the group dropped if it is past cap
    total = np.cumsum(np.minimum(bound[voted], cap))
    lo, states = 0, 0
    while lo < len(voted):
        before = total[lo - 1] if lo else 0
        ratio = min(before / states, 2.0) if states else 1.0
        hi = int(np.searchsorted(total, before + _BATCH_STATES * ratio)) + 1
        built = _table(_levels(groups, voted[lo:hi]), cap, pascal)
        if built is not None:
            states += len(built[1].size)
            yield voted[lo:hi][built[0]], built[1]
        lo = hi


def _table(levels: _Levels, cap: float,
           pascal: np.ndarray) -> tuple[list[int], _Table] | None:
    """The groups of levels with at most cap states, as their indices and
    _Table; None if there are none.

    Each state counts the subsets of one answer's samples with one size and
    one exact confidence sum, the empty subset included, and of those the
    subsets of its invalid samples. The states grow by one level of every
    answer at a time: taking j of a level's m samples, u of them invalid,
    adds j to the size and j times the level to the sum, in C(m, j) ways of
    which C(u, j) are invalid. Rows of equal answer, size and sum are merged
    at the end, and sooner when there are more than 2 * _BATCH_STATES of
    them; a group of more than cap merged states is dropped then, as merged
    states only grow. Sums are integers over the group's power-of-two
    denominator, divided once at the end: int64 to float64 rounds once, and
    int true division rounds correctly, as math.fsum does.
    """
    owner = levels.owner
    groups = len(levels.denom)
    shape = (int(levels.depth.max()) + 1, len(owner))
    level_x = np.zeros(shape, dtype=levels.value.dtype)
    level_m, level_u = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    at = (levels.depth, levels.answer)
    level_x[at], level_m[at], level_u[at] = levels.value, levels.samples, levels.invalid
    pascal = pascal.ravel()  # C(m, j) at m * (_MAX_TABLED + 1) + j
    tag = np.arange(len(owner)) << 6  # answer << 6 | subset size
    total = np.zeros(len(owner), dtype=level_x.dtype)
    count, invalid = np.ones(len(owner), dtype=np.int64), np.ones(len(owner), dtype=np.int64)
    for depth in range(shape[0]):
        ways = level_m[depth, tag >> 6] + 1
        src = np.repeat(np.arange(len(tag)), ways)
        j = np.arange(len(src)) - np.repeat(np.cumsum(ways) - ways, ways)
        tag = tag[src] + j
        answer = tag >> 6
        total = total[src] + j * level_x[depth, answer]
        count = count[src] * pascal[(level_m[depth] * (_MAX_TABLED + 1))[answer] + j]
        invalid = invalid[src] * pascal[(level_u[depth] * (_MAX_TABLED + 1))[answer] + j]
        if len(tag) <= 2 * _BATCH_STATES and depth < shape[0] - 1:
            continue
        # equal states next to each other: by answer and size, then sum
        order = np.argsort(total)
        key = total[order]
        key = tag[order] * len(key) + np.cumsum(np.append(False, key[1:] != key[:-1]))
        by = np.argsort(key)
        order, key = order[by], key[by]
        first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
        tag, total = tag[order[first]], total[order[first]]
        count, invalid = (np.add.reduceat(column[order], first) for column in (count, invalid))
        states = np.bincount(owner[tag >> 6], minlength=groups)
        if (states > cap).any():
            keep = states[owner[tag >> 6]] <= cap
            if not keep.any():
                return None
            tag, total, count, invalid = (column[keep] for column in (tag, total, count, invalid))
    group = owner[tag >> 6]
    tabled = np.bincount(group, minlength=groups) > 0
    value = (total / levels.denom[group]).astype(np.float64)
    order = np.argsort(value)
    value = value[order]
    rank = np.empty(len(value), dtype=np.int64)
    rank[order] = np.cumsum(np.append(False, value[1:] != value[:-1]))
    return (np.flatnonzero(tabled).tolist(),
            _Table((np.cumsum(tabled) - 1)[group], (np.cumsum(tabled[owner]) - 1)[tag >> 6],
                   tag & 63, rank, count, count - invalid))


def _vote_hits(table: _Table, strategy: str, ks: list[int]) -> np.ndarray:
    """Per group of the batch and k: the k-subsets whose vote goes to a
    valid sample."""
    n = len(table.size)
    span = 64 * (int(table.rank.max()) + 1)
    # one int64 orders a group's states by the rule's vote key
    key = table.size * (span >> 6) + table.rank if strategy == "majority" else \
        table.rank * 64 + table.size
    # states by answer, then key: answers are numbered group after group,
    # and each answer's empty subset, the least key, comes first. Table rows
    # run by answer, size and sum, so a stable sort (timsort) only merges runs
    by = np.argsort(table.answer * span + key, kind="stable")
    group, answer, size, key = (column[by] for column in (table.group, table.answer,
                                                          table.size, key))
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
    # loses below its key, and at an equal key iff b's name sorts after a's.
    # So b's losing states are its states up to the row's seat, where the
    # group's states run by key and the later name first at equal keys (by
    # holds each answer's states in that order: again only runs to merge)
    rows = np.flatnonzero((table.valid[by] > 0) & (size <= width))
    local = answer - first[group]  # the state's answer within its group
    wide = int(answers.max())
    seat = np.empty(n, dtype=np.int64)
    seat[np.argsort((group * span + key) * wide + wide - 1 - local, kind="stable")] = np.arange(n)
    # the product of the L_b depends on a row only through those states, so
    # rows of an answer share it unless another answer's state is seated
    # between them: their seats then differ by more than their places in by
    a, passed = answer[rows], seat[rows] - rows
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (a[1:] != a[:-1]) | (passed[1:] != passed[:-1])
    picked = rows[fresh]
    g = group[picked]
    # last[:, slot]: each other answer's latest losing state, a running
    # maximum of places in by over the seats, one per answer place: a
    # group's states come after earlier groups' in by, and each answer's
    # empty subset (key 0) is seated before any row
    latest = np.zeros((wide, n), dtype=np.int64)
    latest[local, seat] = np.arange(n)
    np.maximum.accumulate(latest, axis=1, out=latest)
    slots = np.arange(wide - 1)
    other = (slots + (slots >= np.arange(wide)[:, None]))[local[picked]]
    real = other < answers[g, None]
    b = np.where(real, first[g, None] + other, len(start))
    last = np.where(real, latest.ravel()[other * n + seat[picked, None]], n)
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
    hits = (poly.ravel()[(np.cumsum(fresh)[:, None] - 1) * width + np.maximum(place, 0)]
            * (place >= 0) * table.valid[by][rows, None])
    # rows run group after group: sum each group's at once
    out = np.zeros((len(first), len(ks)), dtype=np.int64)
    if len(rows):
        g = group[rows]
        edges = np.flatnonzero(np.diff(g, prepend=-1))
        out[g[edges]] = np.add.reduceat(hits, edges)
    return out
