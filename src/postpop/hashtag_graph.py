"""Hashtag co-occurrence graph and the topic/structure hashtag feature.

The graph is built from the training split only. Node embeddings come from
an untrained, deterministic mean-aggregator over the weighted neighborhood
(the GraphSAGE mean aggregator with no learned weights), run over a dense
(nodes, dim) state with one scatter-add per hop, so its cost is linear in
nodes plus edges. A post's hashtag feature concatenates its mean topic
embedding with its mean node embedding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat

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


def build_cooccurrence_graph(posts: Dataset | list[Post],
                             provider: EmbeddingProvider,
                             base_dim: int = 64) -> HashtagGraph:
    """Count unordered co-occurring tag pairs per post (tags deduplicated).

    Each post's distinct tags are sorted and their pairs counted in one
    `Counter` pass over every post's `combinations`, so `edges` lists the
    pairs in the order they are first seen, as a loop over the posts'
    sorted pairs would insert them. Each node's base feature is the
    provider's vector for the tag; all of them are drawn in one `tables`
    call.
    """
    g = HashtagGraph(base_dim=base_dim)
    tag_sets = [sorted(set(post.hashtags)) for post in posts]
    # a plain dict: a Counter would answer 0 for a pair that never occurs
    g.edges = dict(Counter(chain.from_iterable(map(combinations, tag_sets, repeat(2)))))
    first_seen = dict.fromkeys(chain.from_iterable(tag_sets))
    g.nodes = set(first_seen)
    g.node_features = dict(zip(first_seen, provider.tables({base_dim: first_seen})[base_dim]))
    return g


def _initial_rows(g: HashtagGraph, tags: list[str], dim: int) -> np.ndarray:
    """(len(tags) + 1, dim): the base features of `tags`, in that order, times
    a fixed random projection, then a zero row.

    Each row is its own (1, base_dim) @ (base_dim, dim) product in one
    stacked matmul, which runs the kernel a one-row product runs, so a row
    equals `g.node_features[t] @ projection` bit for bit. A plain
    (nodes, base_dim) @ (base_dim, dim) product blocks the sums differently.
    """
    proj_rng = np.random.default_rng(np.random.SeedSequence([g.base_dim, dim]))
    projection = proj_rng.uniform(-1.0, 1.0, size=(g.base_dim, dim)) / np.sqrt(g.base_dim)
    out = np.zeros((len(tags) + 1, dim))
    if tags:
        base = np.array(list(map(g.node_features.__getitem__, tags)))
        np.matmul(base[:, None, :], projection, out=out[:-1, None])
    return out


class NodeEmbeddings(dict):
    """Tag -> node embedding: a view of row `rows[tag]` of one `table`,
    whose last row is zeros, so index -1 gathers zeros."""

    def __init__(self, table: np.ndarray, rows: dict[str, int]):
        super().__init__(zip(rows, table))
        self.table, self.rows = table, rows


def node_embeddings(g: HashtagGraph, dim: int = STRUCTURE_DIM,
                    hops: int = 2) -> NodeEmbeddings:
    """Deterministic structural embeddings via iterated weighted-mean pooling.

    Each node starts from its projected base feature. For `hops` rounds,
    nodes with neighbors update to tanh of the edge-weighted mean of their
    own and neighboring states (self-weight 1); isolated nodes keep their
    projection. Final vectors are scaled to unit norm when nonzero.

    A round is a scatter-add over the (nodes + 1, dim) state, whose last row
    stays zero, so the cost is O(hops * (nodes + edges) * dim) time and
    O((nodes + edges) + nodes * dim) memory. Each node sums its own state
    first, then its neighbors' terms in `g.edges` insertion order, so the
    result is bitwise equal to adding them one neighbor at a time. The final
    state is the returned table; its `rows` index the tags in sorted order.
    """
    if dim < 1 or hops < 1:
        raise ValueError(f"dim and hops must be >= 1, got dim={dim}, hops={hops}")
    tags = sorted(g.nodes)
    state = _initial_rows(g, tags, dim)
    index = dict(zip(tags, range(len(tags))))
    # Edge k = (a, b) becomes entries 2k (a <- b) and 2k+1 (b <- a).
    rows = np.fromiter(map(index.__getitem__, chain.from_iterable(g.edges)),
                       dtype=np.intp, count=2 * len(g.edges))
    cols = rows.reshape(-1, 2)[:, ::-1].reshape(-1)
    w = np.repeat(np.fromiter(g.edges.values(), dtype=np.float64, count=len(g.edges)), 2)
    total = 1.0 + np.bincount(rows, weights=w, minlength=len(state))
    linked = np.bincount(rows, minlength=len(state)) > 0
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
    # Each row's norm is its own (1, dim) @ (dim, 1) product in one stacked
    # matmul: the dot kernel `np.linalg.norm` runs on one row, so the bits
    # match it. An axis-wise `np.linalg.norm(state, axis=1)` squares and sums
    # in another order and rounds differently.
    norm = np.sqrt(np.matmul(state[:, None, :], state[:, :, None]))[:, 0]
    np.divide(state, norm, out=state, where=norm > 0)
    return NodeEmbeddings(state, index)


@dataclass(frozen=True)
class HashtagFeature:
    topic: np.ndarray
    structure: np.ndarray

    @property
    def combined(self) -> np.ndarray:
        return np.concatenate([self.topic, self.structure], axis=-1)


def hashtag_feature(posts, emb: NodeEmbeddings, topic_rows: np.ndarray,
                    topic_counts) -> HashtagFeature:
    """Topic and structure features of a batch of posts, (B, topic_dim) and
    (B, structure_dim); a post gets zeros for a part it has no tags for.

    The topic part is the mean of `topic_rows[b, j]`, the provider's topic
    vector of post b's j-th hashtag (zero past its last), over its
    `topic_counts[b]` hashtags. The structure part is the mean node
    embedding over the post's hashtags that are in `emb`: one gather from
    its table, which prepare built once.
    """
    rows = emb.rows
    # every tag listed is in `rows`, so the index adds no row to it
    index, counts = padded_index(rows, [[t for t in post.hashtags if t in rows]
                                        for post in posts])
    return HashtagFeature(topic=pooled_mean(topic_rows, topic_counts),
                          structure=pooled_mean(emb.table[index], counts))
