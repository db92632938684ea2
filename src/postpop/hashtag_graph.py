"""Hashtag co-occurrence graph and the topic/structure hashtag feature.

The graph is built from the training split only. Node embeddings come from
an untrained, deterministic mean-aggregator over the weighted neighborhood
(the GraphSAGE mean aggregator with no learned weights), run over a dense
(nodes, dim) state with one scatter-add per hop, so its cost is linear in
nodes plus edges. The per-post hashtag feature concatenates a pooled topic
embedding with the averaged node embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Post
from .providers import EmbeddingProvider

TOPIC_DIM = 768
STRUCTURE_DIM = 50

# Floats per block of gathered edge terms in `node_embeddings` (2 MB).
_SCATTER_FLOATS = 1 << 18


@dataclass
class HashtagGraph:
    """Weighted undirected co-occurrence graph over hashtags.

    Edge keys are (a, b) with a < b lexically; the weight counts posts in
    which both tags appear.
    """

    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)
    node_features: dict[str, np.ndarray] = field(default_factory=dict)
    base_dim: int = 64

    def weight(self, a: str, b: str) -> int:
        key = (a, b) if a < b else (b, a)
        return self.edges.get(key, 0)


def build_cooccurrence_graph(posts: Dataset | list[Post],
                             provider: EmbeddingProvider,
                             base_dim: int = 64) -> HashtagGraph:
    """Count unordered co-occurring tag pairs per post (tags deduplicated).

    Each node's base feature is the provider's vector for the tag; all of
    them are drawn in one `vectors` call.
    """
    g = HashtagGraph(base_dim=base_dim)
    first_seen = {}
    for post in posts:
        tags = sorted(set(post.hashtags))
        first_seen.update(dict.fromkeys(tags))
        for i in range(len(tags)):
            for j in range(i + 1, len(tags)):
                key = (tags[i], tags[j])
                g.edges[key] = g.edges.get(key, 0) + 1
    g.nodes = set(first_seen)
    g.node_features = dict(zip(first_seen, provider.vectors(
        [(tag, base_dim) for tag in first_seen])))
    return g


def initial_node_states(g: HashtagGraph, dim: int) -> dict[str, np.ndarray]:
    """Base node features mapped to `dim` by a fixed random projection."""
    proj_rng = np.random.default_rng(np.random.SeedSequence([g.base_dim, dim]))
    projection = proj_rng.uniform(-1.0, 1.0, size=(g.base_dim, dim)) / np.sqrt(g.base_dim)
    return {t: g.node_features[t] @ projection for t in sorted(g.nodes)}


def node_embeddings(g: HashtagGraph, dim: int = STRUCTURE_DIM,
                    hops: int = 2) -> dict[str, np.ndarray]:
    """Deterministic structural embeddings via iterated weighted-mean pooling.

    Each node starts from its projected base feature. For `hops` rounds,
    nodes with neighbors update to tanh of the edge-weighted mean of their
    own and neighboring states (self-weight 1); isolated nodes keep their
    projection. Final vectors are scaled to unit norm when nonzero.

    A round is a scatter-add over the (nodes, dim) state, so the cost is
    O(hops * (nodes + edges) * dim) time and O((nodes + edges) + nodes * dim)
    memory. Each node sums its own state first, then its neighbors' terms in
    `g.edges` insertion order, so the result is bitwise equal to adding them
    one neighbor at a time.
    """
    if dim < 1 or hops < 1:
        raise ValueError(f"dim and hops must be >= 1, got dim={dim}, hops={hops}")
    tags = sorted(g.nodes)
    if not tags:
        return {}
    initial = initial_node_states(g, dim)
    state = np.array([initial[t] for t in tags])
    index = {t: i for i, t in enumerate(tags)}
    # Edge k = (a, b) becomes entries 2k (a <- b) and 2k+1 (b <- a).
    ends = np.array([(index[a], index[b]) for a, b in g.edges], dtype=np.intp).reshape(-1, 2)
    rows = ends.reshape(-1)
    cols = ends[:, ::-1].reshape(-1)
    w = np.repeat(np.array(list(g.edges.values()), dtype=np.float64), 2)
    total = 1.0 + np.bincount(rows, weights=w, minlength=len(tags))
    linked = np.bincount(rows, minlength=len(tags)) > 0
    # Edge terms are gathered a bounded block at a time, in order, so a hop
    # holds O(_SCATTER_FLOATS) temporaries rather than O(edges * dim).
    step = max(1, _SCATTER_FLOATS // dim)
    lanes = np.arange(dim)
    for _ in range(hops):
        acc = state.copy()  # self-weight 1; isolated rows keep their state
        for start in range(0, len(rows), step):
            block = slice(start, start + step)
            terms = state[cols[block]]
            terms *= w[block, None]
            # On flat indices: add.at's 1-D loop is ~3x faster than its 2-D one.
            flat = (rows[block, None] * dim + lanes).reshape(-1)
            np.add.at(acc.reshape(-1), flat, terms.reshape(-1))
        acc[linked] = np.tanh(acc[linked] / total[linked, None])
        state = acc
    out = {}
    for t, v in zip(tags, state):
        norm = np.linalg.norm(v)  # per row: an axis-wise norm rounds differently
        out[t] = v / norm if norm > 0 else v.copy()
    return out


def structural_embedding(post: Post, emb: dict[str, np.ndarray],
                         dim: int = STRUCTURE_DIM) -> np.ndarray:
    """Mean node embedding over the post's hashtags; zero when none are known."""
    known = [emb[t] for t in post.hashtags if t in emb]
    if not known:
        return np.zeros(dim, dtype=np.float64)
    return np.mean(known, axis=0)


def topic_embedding(post: Post, provider: EmbeddingProvider,
                    dim: int = TOPIC_DIM) -> np.ndarray:
    """Mean of per-hashtag embeddings; zero vector for hashtag-free posts."""
    if not post.hashtags:
        return np.zeros(dim, dtype=np.float64)
    vecs = [provider.memo_vector(t, dim) for t in post.hashtags]
    return np.mean(vecs, axis=0)


@dataclass(frozen=True)
class HashtagFeature:
    topic: np.ndarray
    structure: np.ndarray

    @property
    def combined(self) -> np.ndarray:
        return np.concatenate([self.topic, self.structure])


def hashtag_feature(post: Post, emb: dict[str, np.ndarray],
                    provider: EmbeddingProvider,
                    topic_dim: int = TOPIC_DIM,
                    structure_dim: int = STRUCTURE_DIM) -> HashtagFeature:
    """Topic embedding concatenated with the structural embedding (768 + 50)."""
    return HashtagFeature(
        topic=topic_embedding(post, provider, topic_dim),
        structure=structural_embedding(post, emb, structure_dim),
    )
