"""The trial seeds of a Monte Carlo call, hashed as arrays.

``trial_seeds(root, trials)`` gives the seeds numpy's spawn tree would,
``root.spawn(trials)[i].spawn(2)[j]``, as ``SeedWords``: their PCG64 state
words, computed for all 2 x trials seeds at once.  ``np.random.default_rng``
takes a ``SeedWords`` as it takes a SeedSequence, and starts from the same
state bit for bit.

The hash is O'Neill's seed_seq_fe (O'Neill 2014, "PCG: a family of simple
fast space-efficient statistically good algorithms") as numpy's SeedSequence
runs it: ``mix_entropy`` and ``generate_state(4, np.uint64)`` restated over
uint32 words held in uint64, so that no product of two words wraps and every
result is masked back to 32 bits.

This module loads ``numpy.random``; ``scheme`` imports it on first use, so
that callers who draw nothing do not pay for that import.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generating the state from the pool
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_MASK32, _SHIFT16, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(16), np.uint64(32)


@functools.lru_cache(maxsize=None)
def _hash_constants(init, mult, count):
    """The xor and the multiply constant of ``count`` hashes in turn, each (count, 1)."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & 0xFFFFFFFF)
    c = np.array(c, dtype=np.uint64)[:, None]
    return c[:-1], c[1:]


def _hash(value, xor, mul):
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> _SHIFT16


def _mix(x, y):
    x = (_MIX_L * x - _MIX_R * y) & _MASK32
    return x ^ x >> _SHIFT16


class SeedWords(ISeedSequence):
    """A seed whose PCG64 state words are hashed already."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("these words seed PCG64 only")
        return self.words


def trial_seeds(root: np.random.SeedSequence, trials: int):
    """The channel and the symbol seeds of ``trials`` trials, lists of
    ``SeedWords``: ``root.spawn(trials)[i].spawn(2)[j]`` for j = 0 and 1.

    ``root`` is left as it is.  A grandchild's entropy is the root's run
    entropy, zero-padded to pool_size as a spawned sequence's is, the root's
    spawn key, then i (counted from ``n_children_spawned``) and j.  The pool
    fills from the run entropy alone, so only the last two words differ
    between seeds: the pool is mixed once up to them, then for all seeds at
    once.
    """
    size = root.pool_size
    run = _coerce_to_uint32_array(root.entropy)
    entropy = np.zeros(max(size, len(run)), dtype=np.uint64)
    entropy[: len(run)] = run
    entropy = np.concatenate([entropy, _coerce_to_uint32_array(root.spawn_key)])
    first = root.n_children_spawned
    child = np.repeat(np.arange(first, first + trials, dtype=np.uint64), 2)
    grandchild = np.tile(np.arange(2, dtype=np.uint64), trials)
    xor, mul = _hash_constants(_INIT_A, _MULT_A, size * (len(entropy) + 2))
    pool = _hash(entropy[:size, None], xor[:size], mul[:size])
    at = size
    for src in range(size):  # each pool word into every other, in turn
        others = np.arange(size) != src
        hashed = _hash(pool[src], xor[at : at + size - 1], mul[at : at + size - 1])
        pool[others] = _mix(pool[others], hashed)
        at += size - 1
    for word in [*entropy[size:, None], child, grandchild]:  # each later word into the pool
        pool = _mix(pool, _hash(word, xor[at : at + size], mul[at : at + size]))
        at += size
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 8)
    state = _hash(pool[np.arange(8) % size], xor, mul)  # eight uint32 words a seed
    words = np.ascontiguousarray((state[0::2] | state[1::2] << _SHIFT32).T)  # little-endian pairs
    return [SeedWords(w) for w in words[0::2]], [SeedWords(w) for w in words[1::2]]
