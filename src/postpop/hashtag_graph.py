"""Hashtag co-occurrence graph and the topic/structure hashtag feature.

The graph is built from the training split only. Node embeddings come from
an untrained, deterministic mean-aggregator over the weighted neighborhood
(the GraphSAGE mean aggregator with no learned weights), run over a dense
(nodes, dim) state with one scatter-add per hop, so its cost is linear in
nodes plus edges. A post's hashtag feature concatenates its mean topic
embedding with its mean node embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Post
from .numeric import padded_index, pooled_mean
from .providers import EmbeddingProvider

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
    them are drawn in one `tables` call.
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
    g.node_features = dict(zip(first_seen, provider.tables({base_dim: first_seen})[base_dim]))
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


@dataclass(frozen=True)
class HashtagFeature:
    topic: np.ndarray
    structure: np.ndarray

    @property
    def combined(self) -> np.ndarray:
        return np.concatenate([self.topic, self.structure], axis=-1)


def hashtag_feature(posts, emb: dict[str, np.ndarray], topic_rows: np.ndarray,
                    structure_dim: int = STRUCTURE_DIM) -> HashtagFeature:
    """Topic and structure features of a batch of posts, (B, topic_dim) and
    (B, structure_dim); a post gets zeros for a part it has no tags for.

    The topic part is the mean of `topic_rows[b, j]`, the provider's topic
    vector of post b's j-th hashtag (zero past its last). The structure part
    is the mean node embedding over the post's hashtags that are in `emb`.
    """
    topic = pooled_mean(topic_rows, [len(post.hashtags) for post in posts])
    nodes: dict[str, int] = {}
    index = [[nodes.setdefault(t, len(nodes)) for t in post.hashtags if t in emb]
             for post in posts]
    table = np.array([*map(emb.__getitem__, nodes), np.zeros(structure_dim)])
    structure = pooled_mean(table[padded_index(index)], list(map(len, index)))
    return HashtagFeature(topic=topic, structure=structure)
