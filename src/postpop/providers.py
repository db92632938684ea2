"""Embedding providers.

The default provider is a deterministic stub: every string maps to a
hash-seeded uniform vector in [-1, 1], so the full pipeline runs with no
pretrained models and reproduces bit-exactly across processes. A
`precomputed_file` provider reads vectors from a binary key/value file
instead, for plugging in real extractor outputs.

`vector(key, dim)` is one draw: a blake2b digest of (seed, dim, key) seeds a
numpy PCG64 stream. Most of a draw's cost is numpy's SeedSequence hash
inside `PCG64(int)`, so `vectors(requests)` seeds many streams at once: it
runs SeedSequence's documented pool mix and PCG64's seeding on uint32/uint64
arrays, one computation for every key, and gives the result to numpy's own
generator. Its output equals `vector`'s bit for bit; that rests on NumPy's
stream-compatibility policy for SeedSequence and PCG64 (NEP 19), and the
oracle test in tests/test_providers.py guards it.

A featurization pass works on a `for_pass(requests)` copy of the provider:
one `vectors` call fills its memo with every distinct (key, dim) the pass
will read, `memo_vector` serves them, and the memo is dropped with the copy.
"""

from __future__ import annotations

import copy
import hashlib
import string
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

_MAGIC = b"PPEMB1"

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

# Stub draws from which `vectors` seeds in one array computation. Measured at
# dim 8 (numpy 2.4, one BLAS thread, 2-vCPU Xeon): the batch costs about
# 90-130 us fixed plus 5-6 us a draw, `vector` 15-17 us a draw, so they break
# even near 10 draws. Below this count `vectors` calls `vector` per key.
BATCH_DRAWS = 12


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


# mix_entropy makes 4 hashmix calls to fill the pool, then 3 per source word
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


def _pcg64_states(digests: bytes) -> list[tuple[int, int]]:
    """PCG64's (state, inc) after `PCG64(int.from_bytes(d, "little"))`, for
    each 8-byte digest d of `digests`.

    `SeedSequence(v)` takes a 64-bit v as its uint32 words, low first (one
    word when v < 2**32, which pads to the same pool). Its pool mix and
    `generate_state(8)` run here on (words, keys) arrays: within one source
    word's round the three destination updates are independent, so each
    round is one array step. PCG64 then seeds as `srandom` does.
    """
    pool = np.zeros((_POOL, len(digests) // 8), dtype=np.uint32)
    pool[:2] = np.frombuffer(digests, dtype="<u4").reshape(-1, 2).T
    pool = _hashmix(pool, _MIX_XOR[:_POOL], _MIX_MUL[:_POOL])
    for src in range(_POOL):
        rows = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        dst = _OTHERS[src]
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hashmix(
            pool[src], _MIX_XOR[rows], _MIX_MUL[rows])
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MUL)
    # little-endian uint32 pairs -> the 4 uint64 words of generate_state
    w = (state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << 32).tolist()
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*w):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization with lowercasing and punctuation stripping."""
    tokens = []
    for raw in text.lower().split():
        tok = raw.translate(_PUNCT_TABLE)
        if tok:
            tokens.append(tok)
    return tokens


def write_feature_file(path, vectors: dict[str, np.ndarray]) -> None:
    """Write a key -> float32 vector file (header: dim, count)."""
    dims = {v.reshape(-1).shape[0] for v in vectors.values()}
    if len(dims) != 1:
        raise ValueError(f"all vectors must share one flattened dim, got {dims}")
    dim = dims.pop()
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<ii", dim, len(vectors)))
        for key, vec in vectors.items():
            kb = key.encode("utf-8")
            fh.write(struct.pack("<i", len(kb)))
            fh.write(kb)
            fh.write(np.asarray(vec, dtype="<f4").reshape(-1).tobytes())


def _read_exact(fh, size: int, path) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(
            f"truncated feature file {path}: wanted {size} bytes at offset "
            f"{fh.tell() - len(data)}, got {len(data)}")
    return data


def read_feature_file(path) -> tuple[int, dict[str, np.ndarray]]:
    """Read a feature file written by write_feature_file.

    A file that is not one, or is cut short anywhere, raises ValueError
    naming the path.
    """
    with Path(path).open("rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a feature file: {path}")
        dim, count = struct.unpack("<ii", _read_exact(fh, 8, path))
        if dim < 1 or count < 0:
            raise ValueError(f"bad feature file header in {path}: dim={dim}, count={count}")
        out = {}
        for _ in range(count):
            (klen,) = struct.unpack("<i", _read_exact(fh, 4, path))
            if klen < 0:
                raise ValueError(f"bad key length {klen} in feature file {path}")
            key = _read_exact(fh, klen, path).decode("utf-8")
            vec = np.frombuffer(_read_exact(fh, 4 * dim, path), dtype="<f4")
            out[key] = vec.astype(np.float64)
    return dim, out


@dataclass
class EmbeddingProvider:
    """Source of dense embeddings keyed by string.

    kind 'deterministic_stub' derives every vector from a 64-bit hash of
    (seed, key, dim); kind 'precomputed_file' serves stored vectors and
    raises KeyError for unknown keys.
    """

    kind: str = "deterministic_stub"
    seed: int = 0
    feature_path: str | None = None
    _table: dict[str, np.ndarray] | None = field(default=None, repr=False)
    _memo: dict[tuple[str, int], np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("deterministic_stub", "precomputed_file"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.kind == "precomputed_file":
            if self.feature_path is None:
                raise ValueError("precomputed_file provider needs feature_path")
            _, self._table = read_feature_file(self.feature_path)

    def vector(self, key: str, dim: int) -> np.ndarray:
        """Deterministic dim-vector for a string key, entries in [-1, 1]."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if self.kind == "precomputed_file":
            if key not in self._table:
                raise KeyError(f"key {key!r} missing from {self.feature_path}")
            vec = self._table[key]
            if vec.shape[0] != dim:
                raise ValueError(
                    f"stored dim {vec.shape[0]} != requested {dim} for key {key!r}")
            return vec.copy()
        rng = np.random.Generator(np.random.PCG64(
            int.from_bytes(self._digest(key, dim), "little")))
        return rng.uniform(-1.0, 1.0, size=dim)

    def _digest(self, key: str, dim: int) -> bytes:
        return hashlib.blake2b(
            f"{self.seed}:{dim}:{key}".encode("utf-8"), digest_size=8).digest()

    def vectors(self, requests) -> list[np.ndarray]:
        """`[self.vector(key, dim) for key, dim in requests]`, bit for bit.

        From `BATCH_DRAWS` stub requests on, every stream is seeded in one
        array computation (`_pcg64_states`), and one reused PCG64 generator,
        set to each stream's state in turn, draws each vector. Shorter lists
        and the `precomputed_file` provider call `vector` per request.
        """
        requests = list(requests)
        if self.kind == "precomputed_file" or len(requests) < BATCH_DRAWS:
            return [self.vector(key, dim) for key, dim in requests]
        for _, dim in requests:
            if dim < 1:
                raise ValueError(f"dim must be >= 1, got {dim}")
        states = _pcg64_states(b"".join(self._digest(key, dim) for key, dim in requests))
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        out = []
        for (_, dim), (state, inc) in zip(requests, states):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            out.append(rng.uniform(-1.0, 1.0, size=dim))
        return out

    def for_pass(self, requests=()) -> "EmbeddingProvider":
        """A copy for one featurization pass; drop it when the pass ends.

        Its memo holds each distinct (key, dim) of `requests`, drawn by one
        `vectors` call; `memo_vector` draws and keeps any other key on first
        use. The copy shares this provider's stored table (read-only), so
        making one costs no file read.
        """
        clone = copy.copy(self)
        unique = list(dict.fromkeys(requests))
        clone._memo = dict(zip(unique, self.vectors(unique)))
        return clone

    def memo_vector(self, key: str, dim: int) -> np.ndarray:
        """`vector(key, dim)`, served from a `for_pass()` copy's memo.

        A key the pass did not request is drawn on first use and kept. Every
        call returns a fresh copy, so a caller that writes to its result
        cannot change a later one. Without a memo this is `vector`.
        """
        if self._memo is None:
            return self.vector(key, dim)
        hit = self._memo.get((key, dim))
        if hit is None:
            hit = self._memo[key, dim] = self.vector(key, dim)
        return hit.copy()


def text_token_embeddings(caption: str, M: int, D: int,
                          provider: EmbeddingProvider) -> tuple[np.ndarray, np.ndarray]:
    """Token-embedding matrix (M x D) and binary mask of length M.

    Captions shorter than M are zero-padded (mask 0); longer ones are
    truncated to the first M tokens.
    """
    if M < 1 or D < 1:
        raise ValueError(f"M and D must be >= 1, got M={M}, D={D}")
    tokens = tokenize(caption)[:M]
    out = np.zeros((M, D), dtype=np.float64)
    mask = np.zeros(M, dtype=np.float64)
    for i, tok in enumerate(tokens):
        out[i] = provider.memo_vector(tok, D)
        mask[i] = 1.0
    return out, mask


def image_region_features(image_ref: str, K: int, N: int,
                          provider: EmbeddingProvider) -> np.ndarray:
    """K x N regional feature matrix keyed by image reference."""
    if K < 1 or N < 1:
        raise ValueError(f"K and N must be >= 1, got K={K}, N={N}")
    return provider.memo_vector(image_ref, K * N).reshape(K, N)


def hashtag_embedding_matrix(hashtags, L: int, D: int,
                             provider: EmbeddingProvider) -> tuple[np.ndarray, np.ndarray]:
    """Per-hashtag embedding matrix (L x D) with zero padding and mask."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    out = np.zeros((L, D), dtype=np.float64)
    mask = np.zeros(L, dtype=np.float64)
    for i, tag in enumerate(list(hashtags)[:L]):
        out[i] = provider.memo_vector(tag, D)
        mask[i] = 1.0
    return out, mask
