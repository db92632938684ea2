"""One counter-based draw rule for the stub's vectors and the dropout masks.

A stream is a 64-bit key, a blake2b digest of what it stands for. Word j of
a stream is the SplitMix64 finalizer of `key + (j + 1) * GAMMA` mod 2**64
(Steele, Lea & Flood 2014, "Fast splittable pseudorandom number
generators"), so any word of any stream is a pure function of (key, j) and
a whole batch of streams is one array computation, with no generator state
(Salmon, Moraes, Dror & Shaw 2011, "Parallel random numbers: as easy as 1,
2, 3"). A word's top 53 bits times 2**-53 give a double u in [0, 1),
exactly.

All arithmetic is on uint64 arrays, which wrap silently (numpy scalars would
warn on the wraparound), and no operand is of a signed type that promotion
could widen the result to.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 over the golden ratio
# Operands as 0-d arrays: numpy applies those faster than its scalars or
# Python numbers, and a uint64 one keeps every product uint64.
_GAMMA, _MIX_A, _MIX_B, _U11, _U27, _U30, _U31 = (np.array(v, np.uint64) for v in (
    GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31))
_UNIT, _SIGNED, _ONE = (np.array(v) for v in (2.0 ** -53, 2.0 ** -52, 1.0))
_KEY = np.dtype("<u8")

_CHUNK = 8192  # words per step: the temporaries stay in cache


@functools.lru_cache(maxsize=64)
def _steps(count: int) -> np.ndarray:
    """(count,) uint64: the counter offsets (j + 1) * GAMMA of words 0 ..
    count - 1, made once per count (read-only, as it is shared)."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA
    steps.flags.writeable = False
    return steps


def floats(keys: bytes, count: int, signed: bool = False) -> np.ndarray:
    """(len(keys) // 8, count) doubles: row i holds the doubles u of words
    0 .. count - 1 of the stream keyed by the i-th little-endian 8-byte
    digest of `keys`, or `2u - 1` if `signed`.

    A block of whole rows at a time, the words are made and mixed in place
    in the output buffer, with one block-sized temporary, and their top 53
    bits are written back through its float64 view, so no second full-size
    array exists. The top bits m < 2**53 convert exactly; `m * 2**-52 - 1`
    then rounds the exact `2u - 1` once, as `2 * u - 1` does, so both are
    equal bit for bit.
    """
    keys = np.frombuffer(keys, dtype=_KEY).reshape(-1, 1)
    out = np.empty((len(keys), count), dtype=np.uint64)
    values = out.view(np.float64)
    steps = _steps(count)
    step = max(1, _CHUNK // max(count, 1))  # rows per block
    for begin in range(0, len(keys), step):
        z = out[begin:begin + step]
        np.add(keys[begin:begin + step], steps, out=z)
        t = z >> _U30
        z ^= t
        z *= _MIX_A
        np.right_shift(z, _U27, out=t)
        z ^= t
        z *= _MIX_B
        np.right_shift(z, _U31, out=t)
        z ^= t
        np.right_shift(z, _U11, out=t)
        u = values[begin:begin + step]
        u[...] = t
        if signed:
            u *= _SIGNED
            u -= _ONE
        else:
            u *= _UNIT
    return values


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
    return floats(digests(head, map(str, range(rows))), width)
