"""Many numpy PCG64 streams, seeded and read in one batch.

`np.random.default_rng(np.random.SeedSequence(entropy))` costs a Python
SeedSequence hash per stream, and a Generator call per draw. Here the
SeedSequence pool mix and PCG64's seeding run on (words, streams) uint32
arrays, one computation for every stream (`pcg64_states`), and one reused
PCG64 reads each stream's raw 64-bit outputs into one buffer (`read_raw`).
`unit_floats` then turns the buffer into numpy's doubles in [0, 1).

The results equal numpy's own generators bit for bit. That rests on NumPy's
stream-compatibility policy for SeedSequence and PCG64 (NEP 19); the oracle
tests in tests/test_streams.py guard it.
"""

from __future__ import annotations

import operator

import numpy as np

# numpy's seeding constants: SeedSequence's hashmix and mix
# (numpy/random/bit_generator.pyx) and PCG64's 128-bit LCG multiplier
# (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's pool size in uint32 words


def _hash_constants(init: int, mult: int, count: int):
    """The (xor, multiplier) of `count` successive hashmix calls, as uint32
    column vectors: the hash constant advances the same way whatever the
    data, so every call's constants are known in advance."""
    xor, mul = [], []
    for _ in range(count):
        xor.append(init)
        init = init * mult & _MASK32
        mul.append(init)
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


# mix_entropy makes 4 hashmix calls to fill the pool, 3 per pool word to mix
# it, then 4 per entropy word past the pool
_MIX_XOR, _MIX_MUL = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
# generate_state(8): PCG64 asks for 4 uint64 words
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 8)
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix on uint32 arrays (array arithmetic wraps
    silently; numpy scalars would warn on the wraparound)."""
    out = words ^ xor
    out *= mul
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    out ^= out >> 16
    return out


def entropy_words(values) -> list[int]:
    """The uint32 entropy words of `SeedSequence(values)` for a sequence of
    non-negative ints, as numpy coerces them: each int is its 32-bit words,
    low first, one word for 0; the ints' words are concatenated."""
    words = []
    for value in values:
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"seed words need non-negative integers, got {value}")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's (state, inc) after `PCG64(SeedSequence(e))`, for the entropy
    e of each column of the uint32 array `words` (n_words, streams).

    Every stream has the same n_words. Entropy shorter than the pool is
    zero-padded to it, so trailing zero words within the first four do not
    change a stream. The pool mix and `generate_state(8)` run on the
    (words, streams) arrays: within one source word's round the destination
    updates are independent, so each round is one array step. PCG64 then
    seeds as `srandom` does.
    """
    n_words, count = words.shape
    pool = np.zeros((_POOL, count), dtype=np.uint32)
    pool[:min(n_words, _POOL)] = words[:_POOL]
    pool = _hashmix(pool, _MIX_XOR[:_POOL], _MIX_MUL[:_POOL])
    for src in range(_POOL):
        rows = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        dst = _OTHERS[src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _MIX_XOR[rows], _MIX_MUL[rows]))
    if n_words > _POOL:
        # entropy word i mixes into every pool word with hashmix calls 4i..4i+3
        xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * n_words)
        for i in range(_POOL, n_words):
            rows = slice(_POOL * i, _POOL * (i + 1))
            pool = _mix(pool, _hashmix(words[i], xor[rows], mul[rows]))
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MUL)
    # little-endian uint32 pairs -> the 4 uint64 words of generate_state
    w = (state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << 32).tolist()
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*w):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def read_raw(states, slots, size: int) -> np.ndarray:
    """A uint64 buffer of `size` words holding, for each PCG64 (state, inc)
    of `states` and its (start, count) of `slots`, that stream's first
    `count` raw outputs at [start, start + count). Words no slot covers are
    left unset.

    One PCG64 is set to each state in turn; its `random_raw` outputs are the
    words numpy's Generator turns into doubles.
    """
    out = np.empty(size, dtype=np.uint64)
    bits = np.random.PCG64(0)  # any seed: each stream replaces the state
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for (pcg["state"], pcg["inc"]), (start, count) in zip(states, slots):
        bits.state = full
        out[start:start + count] = bits.random_raw(count)
    return out


def unit_floats(raw: np.ndarray) -> np.ndarray:
    """numpy's doubles in [0, 1) from raw 64-bit outputs: the top 53 bits
    times 2**-53, as `Generator.random` computes them (exact in float64)."""
    return (raw >> 11) * 2.0 ** -53


def uniform_rows(prefix, rows: int, width: int) -> np.ndarray:
    """(rows, width) doubles in [0, 1) whose row i is
    `default_rng(SeedSequence([*prefix, i])).random(width)`, bit for bit."""
    head = entropy_words(prefix)
    words = np.empty((len(head) + 1, rows), dtype=np.uint32)
    words[:-1] = np.array(head, dtype=np.uint32)[:, None]
    words[-1] = np.arange(rows, dtype=np.uint32)
    slots = [(i * width, width) for i in range(rows)]
    return unit_floats(read_raw(pcg64_states(words), slots, rows * width)).reshape(rows, width)
