"""The trial seeds of a Monte Carlo call, hashed as arrays.

``trial_seeds(root, trials)`` gives the seeds numpy's spawn tree would,
``root.spawn(trials)[i].spawn(2)[j]``, as ``SeedWords``: their PCG64 state
words, computed for all 2 x trials seeds at once.  ``np.random.default_rng``
takes a ``SeedWords`` as it takes a SeedSequence, and starts from the same
state bit for bit.

The hash is O'Neill's seed_seq_fe (O'Neill 2014, "PCG: a family of simple
fast space-efficient statistically good algorithms") as numpy's SeedSequence
runs it: ``mix_entropy`` and ``generate_state(4, np.uint64)`` restated over
uint32 words held in Python ints for the words every seed of a call shares,
and in uint64 arrays for the rest, so that no product of two words wraps;
every result is masked back to 32 bits.

This module loads ``numpy.random``; ``scheme`` imports it on first use, so
that callers who draw nothing do not pay for that import.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generating the state from the pool
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@functools.lru_cache(maxsize=None)
def _hash_constants(init, mult, count):
    """The xor and the multiply constants of ``count`` hashes in turn, as lists."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _MASK32)
    return c[:-1], c[1:]


def _hash(value, xor, mul):
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    x = (_MIX_L * x - _MIX_R * y) & _MASK32
    return x ^ x >> 16


def _root_pool(words, size):
    """The pool, as ints, after mixing in the root's entropy ``words``."""
    xor, mul = _hash_constants(_INIT_A, _MULT_A, size * len(words))
    pool = [_hash(w, x, m) for w, x, m in zip(words[:size], xor, mul)]
    at = size
    for src in range(size):  # each pool word into every other, in turn
        for dst in range(size):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hash(pool[src], xor[at], mul[at]))
                at += 1
    for word in words[size:]:  # each later word into the pool
        pool = [_mix(p, _hash(word, xor[at + k], mul[at + k])) for k, p in enumerate(pool)]
        at += size
    return pool


@functools.lru_cache(maxsize=None)
def _trial_constants(size, at):
    """What mixes a trial's two words into a pool of ``size`` after ``at`` hashes:
    the child word's xor and multiply constants, each (size, 1), and the
    hashes of the grandchild words 0 and 1, (size, 1, 2), all uint64; and the
    state's xor and multiply constants, each (8, 1, 1)."""
    xor, mul = (np.array(c, dtype=np.uint64)
                for c in _hash_constants(_INIT_A, _MULT_A, at + 2 * size))
    child = xor[at : at + size, None], mul[at : at + size, None]
    grandchild = _hash(np.arange(2, dtype=np.uint64), xor[at + size :, None, None],
                       mul[at + size :, None, None])
    state = [np.array(c, dtype=np.uint64)[:, None, None]
             for c in _hash_constants(_INIT_B, _MULT_B, 8)]
    for a in (*child, grandchild, *state):  # cached: every call of this shape reads them
        a.flags.writeable = False
    return child, grandchild, *state


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
    between seeds: the pool is mixed once up to them, in Python ints, then
    for every trial's child word at once and for both grandchild words of
    each, whose hashes are the same for every trial.
    """
    size = root.pool_size
    entropy = _coerce_to_uint32_array(root.entropy).tolist()
    entropy += [0] * (size - len(entropy)) + _coerce_to_uint32_array(root.spawn_key).tolist()
    (xor, mul), grandchild, state_xor, state_mul = _trial_constants(size, size * len(entropy))
    pool = np.array(_root_pool(entropy, size), dtype=np.uint64)[:, None]
    first = root.n_children_spawned
    pool = _mix(pool, _hash(np.arange(first, first + trials, dtype=np.uint64), xor, mul))
    pool = _mix(pool[:, :, None], grandchild)  # (size, trials, 2)
    state = _hash(pool[np.arange(8) % size], state_xor, state_mul)  # eight uint32 words a seed
    pairs = state[0::2] | state[1::2] << 32  # little-endian pairs of uint32 words
    words = np.ascontiguousarray(np.moveaxis(pairs, 0, -1))  # (trials, 2, 4)
    return [SeedWords(w) for w in words[:, 0]], [SeedWords(w) for w in words[:, 1]]
