"""Many numpy PCG64 streams, seeded and read as array arithmetic.

`np.random.default_rng(np.random.SeedSequence(entropy))` costs a Python
SeedSequence hash per stream, and a Generator call per draw. Here no step
loops over streams in Python:

- Seeding (`pcg64_states`): the SeedSequence pool mix and PCG64's seeding
  run on (words, streams) uint32 arrays, and give each stream's 128-bit
  state s, increment c and jump base z (below) as (hi, lo) pairs of uint64
  arrays.
- Reading (`read_raw`): PCG64 is the 128-bit LCG x -> M x + c with an
  XSL-RR output (O'Neill 2014, "PCG: A Family of Simple Fast
  Space-Efficient Statistically Good Algorithms for Random Number
  Generation"). After k steps a stream is at A_k s + C_k c mod 2**128, with
  A_k = M**k and C_k = 1 + M + ... + M**(k-1) the same for every stream
  (Brown 1994, "Random Number Generation with Arbitrary Strides"). numpy
  steps before each output, so raw word j of a stream is
  XSL-RR(A_{j+1} s + C_{j+1} c): the state's high and low 64 bits xored,
  then rotated right by its top 6 bits.
  M = 4 q + 1 with q odd, so q has an inverse 1 / q mod 2**128; with
  J_k = (M**k - 1) / 4 (an integer), A_k = 4 J_k + 1 and C_k = J_k / q,
  and the state after k steps is s + J_k z, where z = 4 s + c / q is fixed
  per stream: one 128-bit product per word. The reader computes every requested word that way in
  fixed-size chunks, with 128-bit products built from 64-bit halves and a
  table of J_k that is cached and grown on demand.
- `unit_floats` turns raw words into numpy's doubles in [0, 1).

All arithmetic is on uint32 or uint64 arrays, which wrap silently (numpy
scalars would warn on the wraparound), and no operand is of a signed type
that promotion could widen the result to.

The results equal numpy's own generators bit for bit. That rests on NumPy's
stream-compatibility policy for SeedSequence and PCG64 (NEP 19); the oracle
tests in tests/test_streams.py guard it.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

# numpy's seeding constants: SeedSequence's hashmix and mix
# (numpy/random/bit_generator.pyx) and PCG64's 128-bit LCG multiplier
# (numpy/random/src/pcg64/pcg64.h).
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.array(0xCA01F9DD, np.uint32), np.array(0x4973F715, np.uint32)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4  # SeedSequence's pool size in uint32 words

# uint64 operands, as 0-d arrays: numpy applies those faster than its scalars
_U1, _U11, _U32, _U58, _U63, _U64 = (
    np.array(v, np.uint64) for v in (1, 11, 32, 58, 63, 64))
_LOW32 = np.array(_MASK32, np.uint64)

_CHUNK = 8192  # words per step of the reader: its temporaries stay in cache


def _pairs(values):
    """128-bit ints as a (hi, lo) pair of uint64 column arrays."""
    values = [value % 2 ** 128 for value in values]
    return (np.array([[value >> 64] for value in values], np.uint64),
            np.array([[value & 2 ** 64 - 1] for value in values], np.uint64))


_Q = (_PCG_MULT - 1) // 4  # odd, so it has an inverse mod 2**128
# srandom gives state = (seed + c) M + c from the seed and c, so
# state = M seed + (M + 1) c and z = 4 state + c / q
# = 4 M seed + (4 M + 4 + 1 / q) c: four products of one array step, with
# the multipliers as a (2, 2, 1) array over (state | z, seed | c)
_SEED_MULTS = tuple(part.reshape(2, 2, 1) for part in _pairs(
    [_PCG_MULT, _PCG_MULT + 1, 4 * _PCG_MULT, 4 * _PCG_MULT + 4 + pow(_Q, -1, 2 ** 128)]))


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
# round src of the pool mix hashes pool word src once for each other word:
# its (xor, multiplier) columns over all four words, 0 for word src itself
_ROUND_XOR, _ROUND_MUL = (np.zeros((_POOL, _POOL, 1), np.uint32) for _ in range(2))
for _src in range(_POOL):
    _dst = [d for d in range(_POOL) if d != _src]
    _rows = slice(_POOL + 3 * _src, _POOL + 3 * _src + 3)
    _ROUND_XOR[_src, _dst], _ROUND_MUL[_src, _dst] = _MIX_XOR[_rows], _MIX_MUL[_rows]
# generate_state(8): PCG64 asks for 4 uint64 words
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix on uint32 arrays."""
    out = words ^ xor
    out *= mul
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    out ^= out >> 16
    return out


def _halves(x: np.ndarray):
    """The low and high 32-bit halves of uint64 array x."""
    return x & _LOW32, x >> _U32


def _mulhi(x_lo, x_hi, y_lo, y_hi) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 arrays x and y,
    given as their 32-bit halves (Hacker's Delight, mulhu): no partial sum
    overflows 64 bits."""
    mid = x_hi * y_lo
    mid += x_lo * y_lo >> _U32
    low = x_lo * y_hi
    low += mid & _LOW32
    out = x_hi * y_hi
    out += mid >> _U32
    out += low >> _U32
    return out


def _mul(a, b):
    """a * b mod 2**128 for 128-bit values as (hi, lo) uint64 array pairs."""
    hi = _mulhi(*_halves(a[1]), *_halves(b[1]))
    hi += a[1] * b[0]
    hi += a[0] * b[1]
    return hi, a[1] * b[1]


def _add(a, b):
    """a + b mod 2**128 for (hi, lo) uint64 array pairs."""
    lo = a[1] + b[1]
    hi = a[0] + b[0]
    hi += lo < b[1]  # the carry out of the low word
    return hi, lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of 128-bit states: hi ^ lo rotated right by the top 6
    bits of the state."""
    rot = hi >> _U58
    word = hi ^ lo
    return (word >> rot) | (word << ((_U64 - rot) & _U63))


class _Jumps:
    """J_k = (M**k - 1) / 4 mod 2**128 for k = 0, 1, ..., K, kept for the
    process and grown by doubling when a read needs a larger k: they depend
    on nothing but PCG64's multiplier. Row k of the (K + 1, 4) uint64 table
    is J_k's high and low words, then the low word's 32-bit halves."""

    def __init__(self):
        self.table = self.rows(*_pairs([0, _Q]))  # J_0 = 0, J_1 = q

    @staticmethod
    def rows(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        hi, lo = hi.ravel(), lo.ravel()
        return np.stack([hi, lo, *_halves(lo)], axis=1)

    def upto(self, k: int) -> np.ndarray:
        """The table, covering every step count up to k."""
        while len(self.table) <= k:
            # from the top entry t: J_{t+i} = M**t J_i + J_t, i = 1 .. t
            top = int(self.table[-1, 0]) << 64 | int(self.table[-1, 1])
            (mult_hi, add_hi), (mult_lo, add_lo) = _pairs([4 * top + 1, top])
            grown = _add(_mul((self.table[1:, 0], self.table[1:, 1]), (mult_hi, mult_lo)),
                         (add_hi, add_lo))
            self.table = np.concatenate([self.table, self.rows(*grown)])
        return self.table


_JUMPS = _Jumps()


class Streams(NamedTuple):
    """Seeded PCG64 streams: 128-bit values, each a (hi, lo) pair of uint64
    arrays with one element per stream."""

    state: tuple  # PCG64's state once seeded
    inc: tuple  # its increment c
    base: tuple  # z = 4 state + c / q: after k steps a stream is at state + J_k z


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


def pcg64_states(words: np.ndarray) -> Streams:
    """The streams of `PCG64(SeedSequence(e))` for the entropy e of each
    column of the uint32 array `words` (n_words, streams).

    Every stream has the same n_words. Entropy shorter than the pool is
    zero-padded to it, so trailing zero words within the first four do not
    change a stream. The pool mix and `generate_state(8)` run on the
    (words, streams) arrays: within one source word's round the destination
    updates are independent, so each round is one array step. PCG64 then
    seeds as `srandom` does, on the uint64 words.
    """
    n_words, count = words.shape
    pool = np.zeros((_POOL, count), dtype=np.uint32)
    pool[:min(n_words, _POOL)] = words[:_POOL]
    pool = _hashmix(pool, _MIX_XOR[:_POOL], _MIX_MUL[:_POOL])
    for src in range(_POOL):
        mixed = _mix(pool, _hashmix(pool[src], _ROUND_XOR[src], _ROUND_MUL[src]))
        mixed[src] = pool[src]  # a word does not mix with itself
        pool = mixed
    if n_words > _POOL:
        # entropy word i mixes into every pool word with hashmix calls 4i..4i+3
        xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * n_words)
        for i in range(_POOL, n_words):
            rows = slice(_POOL * i, _POOL * (i + 1))
            pool = _mix(pool, _hashmix(words[i], xor[rows], mul[rows]))
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MUL)
    # little-endian uint32 pairs -> generate_state's 4 uint64 words: the
    # seed's hi and lo, then the stream selector's
    w = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << _U32
    # srandom: c = selector << 1 | 1, in place of the selector
    w[2] = w[2] << _U1 | w[3] >> _U63
    w[3] <<= _U1
    w[3] |= _U1
    # rows (seed, c) of the high words, then of the low words
    hi, lo = _mul((w[0::2], w[1::2]), _SEED_MULTS)
    (state_hi, base_hi), (state_lo, base_lo) = _add((hi[:, 0], lo[:, 0]), (hi[:, 1], lo[:, 1]))
    return Streams((state_hi, state_lo), (w[2], w[3]), (base_hi, base_lo))


def read_raw(streams: Streams, starts, counts, size: int) -> np.ndarray:
    """A uint64 buffer of `size` words holding, for each of `streams`, its
    first counts[i] raw outputs at [starts[i], starts[i] + counts[i]).
    Words no stream covers are left unset.

    Word j of a stream is XSL-RR of its state after j + 1 steps,
    state + J_{j+1} z: the word numpy's `random_raw` returns and its
    Generator turns into doubles. The streams' words are numbered in one
    flat sequence and computed `_CHUNK` at a time.
    """
    # one row per stream: its state, z, and z's low word in 32-bit halves
    per_stream = np.array([*streams.state, *streams.base, *_halves(streams.base[1])]).T
    counts = np.asarray(counts, dtype=np.intp)
    firsts = np.cumsum(counts) - counts
    # flat word p of stream i is its word j = p - firsts[i], at step j + 1,
    # and goes to p + shift[i]
    steps_from, shift = firsts - 1, np.asarray(starts, dtype=np.intp) - firsts
    # each flat word's stream (int32: half the size of the words themselves)
    owner = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    out = np.empty(size, dtype=np.uint64)
    if len(owner):
        jumps = _JUMPS.upto(int(counts.max()))
    for begin in range(0, len(owner), _CHUNK):
        stream = owner[begin:begin + _CHUNK]
        flat = np.arange(begin, begin + len(stream))
        j_hi, j_lo, j_lo_lo, j_lo_hi = jumps.take(flat - steps_from[stream], axis=0).T
        s_hi, s_lo, z_hi, z_lo, z_lo_lo, z_lo_hi = per_stream.take(stream, axis=0).T
        hi = _mulhi(j_lo_lo, j_lo_hi, z_lo_lo, z_lo_hi)
        hi += j_lo * z_hi
        hi += j_hi * z_lo
        out[flat + shift[stream]] = _xsl_rr(*_add((hi, j_lo * z_lo), (s_hi, s_lo)))
    return out


def unit_floats(raw: np.ndarray) -> np.ndarray:
    """numpy's doubles in [0, 1) from the 1-D array `raw` of raw 64-bit
    outputs: the top 53 bits times 2**-53, as `Generator.random` computes
    them (exact in float64).

    The conversion is in place, `_CHUNK` words at a time: the result is a
    float64 view of `raw`'s buffer, and `raw` no longer holds the raw words.
    """
    out = raw.view(np.float64)
    for begin in range(0, len(raw), _CHUNK):
        part = slice(begin, begin + _CHUNK)
        out[part] = (raw[part] >> _U11) * 2.0 ** -53
    return out


def uniform_rows(prefix, rows: int, width: int) -> np.ndarray:
    """(rows, width) doubles in [0, 1) whose row i is
    `default_rng(SeedSequence([*prefix, i])).random(width)`, bit for bit."""
    head = entropy_words(prefix)
    words = np.empty((len(head) + 1, rows), dtype=np.uint32)
    words[:-1] = np.array(head, dtype=np.uint32)[:, None]
    words[-1] = np.arange(rows, dtype=np.uint32)
    raw = read_raw(pcg64_states(words), np.arange(rows) * width, np.full(rows, width),
                   rows * width)
    return unit_floats(raw).reshape(rows, width)
