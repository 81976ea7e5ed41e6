"""Monte-Carlo draws of tts groups, keyed in bulk.

The (seed, k, resample, group) tuple draws from the Philox stream that
np.random.SeedSequence([seed, k, resample, *digest]) keys, digest being the
first 8 bytes of the SHA-256 of the group's name: k of the group's n samples,
permutation(n)[:k] of a Generator on it. The keys are that SeedSequence hash
on 32-bit words in numpy, for many tuples at once; each is set, counter 0,
into one reused Philox. So the draws are those of a Philox built per tuple,
bit for bit, at a fraction of the cost, and one becal.tts._votes tally votes
many draws. becal.tts loads this module only when some group is drawn.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tts import Groups

_MASK = 0xFFFFFFFF
# numpy's SeedSequence: a pool of 4 words, hashed and mixed by these constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """value as SeedSequence reads an int: 32-bit words, the low one first."""
    words = [value & _MASK]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK)
    return words


def keys(seed: int, k: int, resample: np.ndarray, digest: np.ndarray) -> np.ndarray:
    """Per row, SeedSequence([seed, k, resample, *digest]).generate_state(2,
    np.uint64): the Philox key of each tuple.

    resample is a uint64 array, all below 2^32 or all from 2^32 on, so each
    row has as many words; digest holds each row's 8 bytes. Words are uint64
    arrays holding 32 bits, or ints where every row shares them, and each
    product is masked back to 32 bits.
    """
    if resample[0] >> 32:
        entropy = [*_words(seed), *_words(k), resample & _MASK, resample >> 32, *digest.T]
    else:
        entropy = [*_words(seed), *_words(k), resample, *digest.T]
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK
        value = value * hash_const & _MASK
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = [hashmix(word, _MULT_B) for word in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def draw_hits(groups: Groups, drawn: np.ndarray, ks: list[int], n_resamples: int,
              seed: int, rules: list[str]) -> list[dict[str, list[int]]]:
    """Per k, {rule: hits per resample} summed over the drawn groups with
    1 < k < n, each group's draw made from its own (seed, k, resample)
    stream; the draws of a step of resamples are voted at once."""
    from .tts import _TALLY_SAMPLES, _votes
    sizes = np.diff(groups.offsets)
    digest = np.array([list(hashlib.sha256(groups.names[g].encode("utf-8")).digest()[:8])
                       for g in drawn.tolist()], dtype=np.uint64)
    philox = np.random.Philox(0)
    generator = np.random.Generator(philox)
    state = philox.state  # counter 0, nothing buffered
    key = state["state"]["key"]
    hits = []
    for k in ks:
        at = np.flatnonzero((1 < k) & (k < sizes[drawn]))
        hits.append({rule: [] for rule in rules})
        # about 4,096 keys and _TALLY_SAMPLES samples at once, in power-of-two
        # steps of resamples: none crosses 2^32, from where a resample is two words
        step = 1 << max(0, (min(4096, _TALLY_SAMPLES // k) // max(len(at), 1)).bit_length() - 1)
        for lo in range(0, n_resamples if len(at) else 0, step):
            resample = np.arange(lo, min(lo + step, n_resamples), dtype=np.uint64)
            chosen = np.tile(drawn[at], len(resample))
            picks = np.empty((len(chosen), k), dtype=np.int64)
            for row, (pair, n) in enumerate(zip(
                    keys(seed, k, np.repeat(resample, len(at)),
                         np.tile(digest[at], (len(resample), 1))).tolist(),
                    sizes[chosen].tolist())):
                key[:] = pair
                philox.state = state
                picks[row] = generator.permutation(n)[:k]
            for rule, hit in _votes(groups, (picks + groups.offsets[chosen, None]).ravel(),
                                    np.arange(len(chosen)).repeat(k), rules).items():
                hits[-1][rule] += hit.reshape(len(resample), -1).sum(axis=1).tolist()
    return hits
