"""Embedding providers.

The default provider is a deterministic stub: every string maps to a
hash-seeded uniform vector in [-1, 1], so the full pipeline runs with no
pretrained models and reproduces bit-exactly across processes. A
`precomputed_file` provider reads vectors from a binary key/value file
instead, for plugging in real extractor outputs.

`vector(key, dim)` is one draw: a blake2b digest of (seed, dim, key) seeds a
numpy PCG64 stream. A featurization pass needs many draws, so
`tables(keys_by_dim)` makes them all at once: the digests continue one
hashed `seed:dim:` prefix per dim, `streams.pcg64_states` seeds every key's
stream in one array computation, and `streams.read_raw` computes every raw
word with array arithmetic, word j of a stream being XSL-RR of its PCG64
state jumped ahead j + 1 steps. The buffer is converted to doubles once,
into one `(len(keys) + 1, dim)` table per dim whose last row is zeros. Its
rows equal `vector`'s bit for bit; that rests on NumPy's stream-compatibility
policy for SeedSequence and PCG64 (NEP 19), and the oracle tests in
tests/test_providers.py and tests/test_streams.py guard it.
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

# Stub draws, counted over every dim of a `tables` call, from which it seeds
# and reads every stream as array arithmetic; below this count it calls
# `vector` per key. Measured on graph-pass keys (dims 8 and 32; numpy 2.4,
# one BLAS thread, a shared 2-vCPU host on which `vector` took 25 us): the
# batch takes about 240 us at 12 keys (as the per-stream reader it replaced
# did), 430 us at 95 and 810 us at 332, so it wins from about 10 keys on.
# The cut-off stays at 12 so that a one-post pass of a few draws still takes
# the per-key path: the benchmark's traced runs require the
# `providers.vector` span, and only that path reaches it.
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
            int.from_bytes(self._digests(dim, [key]), "little")))
        return rng.uniform(-1.0, 1.0, size=dim)

    def _digests(self, dim: int, keys) -> bytes:
        """The 8-byte blake2b digests of `f"{seed}:{dim}:{key}"` for each key,
        concatenated: the `seed:dim:` prefix is hashed once per (seed, dim),
        and each key continues a copy of that state."""
        prefix = self._prefixes.get((self.seed, dim))
        if prefix is None:
            prefix = hashlib.blake2b(f"{self.seed}:{dim}:".encode(), digest_size=8)
            self._prefixes[self.seed, dim] = prefix
        out = []
        for key in keys:
            digest = prefix.copy()
            digest.update(key.encode())
            out.append(digest.digest())
        return b"".join(out)

    def tables(self, keys_by_dim) -> dict[int, np.ndarray]:
        """One `(len(keys) + 1, dim)` table per dim of `keys_by_dim` (a
        mapping of dim to an iterable of keys): row j is
        `self.vector(keys[j], dim)` bit for bit, and the last row is zeros,
        so index -1 gathers zeros.

        From `BATCH_DRAWS` stub keys in all on, every stream is seeded in one
        array computation and read into one raw-word buffer, which is
        converted once; the tables are views of one array. Fewer keys and
        the `precomputed_file` provider call `vector` per key.
        """
        keys_by_dim = {dim: list(keys) for dim, keys in keys_by_dim.items()}
        for dim in keys_by_dim:
            if dim < 1:
                raise ValueError(f"dim must be >= 1, got {dim}")
        count = sum(map(len, keys_by_dim.values()))
        if self.kind == "precomputed_file" or count < BATCH_DRAWS:
            out = {}
            for dim, keys in keys_by_dim.items():
                out[dim] = table = np.zeros((len(keys) + 1, dim))
                for j, key in enumerate(keys):
                    table[j] = self.vector(key, dim)
            return out
        digests = b"".join(self._digests(dim, keys) for dim, keys in keys_by_dim.items())
        # key j of a dim's table starts at that table's offset + j * dim
        starts, counts, offsets, size = [], [], [], 0
        for dim, keys in keys_by_dim.items():
            offsets.append(size)
            starts += range(size, size + dim * len(keys), dim)
            counts += [dim] * len(keys)
            size += (len(keys) + 1) * dim
        states = streams.pcg64_states(np.frombuffer(digests, dtype="<u4").reshape(-1, 2).T)
        raw = streams.read_raw(states, starts, counts, size)
        # -1 + 2u, as Generator.uniform(-1, 1) computes it (2u is exact)
        flat = streams.unit_floats(raw)
        flat *= 2.0
        flat -= 1.0
        out = {}
        for (dim, keys), begin in zip(keys_by_dim.items(), offsets):
            out[dim] = table = flat[begin:begin + (len(keys) + 1) * dim].reshape(-1, dim)
            table[-1] = 0.0
        return out
