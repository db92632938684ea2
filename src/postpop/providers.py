"""Embedding providers.

The default provider is a deterministic stub: every string maps to a
hash-seeded uniform vector in [-1, 1], so the full pipeline runs with no
pretrained models and reproduces bit-exactly across processes. A
`precomputed_file` provider reads vectors from a binary key/value file
instead, for plugging in real extractor outputs.

A featurization pass works on a `for_pass()` copy of the provider, whose
`memo_vector` draws each distinct (key, dim) once and serves repeats from a
memo that is dropped with the copy.
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
        digest = hashlib.blake2b(
            f"{self.seed}:{dim}:{key}".encode("utf-8"), digest_size=8).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
        return rng.uniform(-1.0, 1.0, size=dim)

    def for_pass(self) -> "EmbeddingProvider":
        """A copy whose `memo_vector` memoises draws; drop it when the pass ends.

        The copy shares this provider's stored table (read-only), so making
        one costs no file read, and its memo is empty.
        """
        clone = copy.copy(self)
        clone._memo = {}
        return clone

    def memo_vector(self, key: str, dim: int) -> np.ndarray:
        """`vector(key, dim)`, drawn once per (key, dim) on a `for_pass()` copy.

        A repeat returns a fresh copy of the first draw, so a caller that
        writes to its result cannot change a later one. Without a memo this
        is `vector`.
        """
        if self._memo is None:
            return self.vector(key, dim)
        hit = self._memo.get((key, dim))
        if hit is None:
            hit = self._memo[key, dim] = self.vector(key, dim)
        return hit.copy()

    def matrix(self, key: str, rows: int, cols: int) -> np.ndarray:
        """Deterministic rows x cols matrix for a string key."""
        if self.kind == "precomputed_file":
            flat = self.vector(key, rows * cols)
            return flat.reshape(rows, cols)
        return self.vector(key, rows * cols).reshape(rows, cols)


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
    return provider.matrix(image_ref, K, N)


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
