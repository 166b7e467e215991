"""Reproducible RNG substreams for parallel Monte Carlo.

Every logical unit of work (a replicate, a reference batch, ...) gets its
own counter-based Philox stream derived from a master seed and an integer
key path.  Streams are independent of worker count and scheduling order,
so results keyed by replicate index are bit-reproducible under any degree
of parallelism.

A Philox stream is fixed by its 128-bit key (its counter starts at 0), so
a loop over many indices needs no SeedSequence and no Philox per index:
`substreams` derives every key of the loop in one vectorised pass of
numpy's SeedSequence mixing and re-keys one generator per loop: its
stream(i) is valid until the next call, which may restart stream i.
"""

from __future__ import annotations

import operator

import numpy as np

# Domain tags keep replicate streams, reference streams etc. disjoint.
DOMAIN_REPLICATE = 1
DOMAIN_REFERENCE = 2
DOMAIN_AUX = 3


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return a Philox generator for the given (seed, key path)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n) -> list[int]:
    """The little-endian uint32 words SeedSequence reads from an int >= 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seeds and keys must be non-negative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _philox_keys(master_seed: int, key: tuple, index: np.ndarray) -> np.ndarray:
    """(len(index), 2) uint64 Philox keys of substream(master_seed, *key, i):
    SeedSequence's entropy mixing and generate_state(2, uint64).  Every
    word but the index is the same Python int for all i; the index word is
    a uint32 array, and the words it touches become arrays too (masking
    makes the ints wrap like the uint32 arrays and the C code)."""
    seed = _words(master_seed)
    seed += [0] * (_POOL_SIZE - len(seed))        # padding when spawn_key set
    entropy = seed + [w for k in key for w in _words(k)]
    entropy.append(index.astype(np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    state, const = [], _INIT_B
    for w in pool:
        w = w ^ const
        const = const * _MULT_B & _MASK32
        w = w * const & _MASK32
        state.append(np.asarray(w ^ w >> 16, dtype=np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def substreams(master_seed: int, key, indices):
    """A function stream(i), i in [0, len(indices)), whose generator
    draws exactly what substream(master_seed, *key, indices[i]) draws.

    The keys of all indices (each in [0, 2**32)) come from one vectorised
    pass, and stream(i) re-keys one Philox to key i (counter 0).  So its
    generator is valid only until the next call: no caller keeps it, and
    none spawns from it (its SeedSequence is not the index's).  A caller
    may restart stream i by calling stream(i) again.
    """
    key = tuple(key)
    index = np.asarray(indices, dtype=np.int64).reshape(-1)
    if index.size and (index.min() < 0 or index.max() > _MASK32):
        raise ValueError("substream indices must lie in [0, 2**32)")
    keys = _philox_keys(master_seed, key, index)
    if index.size:
        want = np.random.SeedSequence(master_seed, spawn_key=key + (
            int(index[0]),)).generate_state(2, np.uint64)
        if not np.array_equal(keys[0], want):
            raise RuntimeError("substreams: derived Philox key differs from "
                               "numpy's SeedSequence")
    # Python ints and lists: Philox's state setter reads them element by
    # element, which is much faster than from numpy arrays
    keys = keys.tolist()
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}

    def stream(i: int) -> np.random.Generator:
        if not 0 <= i < len(keys):
            raise ValueError(f"no stream {i}: {len(keys)} streams given")
        state["state"]["key"] = keys[i]
        bits.state = state
        return gen

    return stream
