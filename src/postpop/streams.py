"""One counter-based draw rule for the stub's vectors and the dropout masks.

A stream is a 64-bit key, a blake2b digest of what it stands for. Word j of
a stream is the SplitMix64 finalizer of `key + (j + 1) * GAMMA` mod 2**64
(Steele, Lea & Flood 2014, "Fast splittable pseudorandom number
generators"), so any word of any stream is a pure function of (key, j) and
a whole batch of streams is one array computation, with no generator state
(Salmon, Moraes, Dror & Shaw 2011, "Parallel random numbers: as easy as 1,
2, 3"). A word's top 53 bits times 2**-53 give a double in [0, 1), exactly.

All arithmetic is on uint64 arrays, which wrap silently (numpy scalars would
warn on the wraparound), and no operand is of a signed type that promotion
could widen the result to.
"""

from __future__ import annotations

import hashlib

import numpy as np

GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 over the golden ratio
# uint64 operands, as 0-d arrays: numpy applies those faster than its scalars
_GAMMA, _MIX_A, _MIX_B, _U11, _U27, _U30, _U31 = (np.array(v, np.uint64) for v in (
    GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31))

_CHUNK = 8192  # words per step: the temporaries stay in cache


def _row_blocks(rows: int, count: int):
    """Slices of whole rows covering `rows` rows of `count` words, each at
    most `_CHUNK` words unless one row alone is longer."""
    step = max(1, _CHUNK // max(count, 1))
    return (slice(begin, begin + step) for begin in range(0, rows, step))


def words(keys, count: int) -> np.ndarray:
    """(len(keys), count) uint64: row i holds words 0 .. count - 1 of the
    stream keyed keys[i]."""
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty((len(keys), count), dtype=np.uint64)
    steps = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    for rows in _row_blocks(len(keys), count):
        z = out[rows]
        np.add(keys[rows, None], steps, out=z)
        z ^= z >> _U30
        z *= _MIX_A
        z ^= z >> _U27
        z *= _MIX_B
        z ^= z >> _U31
    return out


def unit_floats(keys, count: int) -> np.ndarray:
    """(len(keys), count) doubles in [0, 1) from `words(keys, count)`.

    The conversion is in place, a block of rows at a time: the result is a
    float64 view of the word buffer, so no second full-size array exists.
    """
    raw = words(keys, count)
    out = raw.view(np.float64)
    for rows in _row_blocks(len(raw), count):
        np.multiply(raw[rows] >> _U11, 2.0 ** -53, out=out[rows])
    return out


def digests(head, names) -> bytes:
    """The stream keys of `names`, as concatenated little-endian 8-byte
    digests: each name continues a copy of `head`, a blake2b state (digest
    size 8) that has hashed the names' common prefix."""
    out = []
    for name in names:
        digest = head.copy()
        digest.update(name.encode())
        out.append(digest.digest())
    return b"".join(out)


def uniform_rows(prefix, rows: int, width: int) -> np.ndarray:
    """(rows, width) doubles in [0, 1): row i is the stream keyed by the
    blake2b digest of `dropout:{prefix[0]}:{prefix[1]}:...:{i}`, so a row
    does not depend on how many rows are drawn with it."""
    head = hashlib.blake2b(
        ("dropout:" + "".join(f"{value}:" for value in prefix)).encode(), digest_size=8)
    keys = digests(head, map(str, range(rows)))
    return unit_floats(np.frombuffer(keys, dtype="<u8"), width)
