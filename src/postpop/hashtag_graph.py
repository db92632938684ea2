"""Hashtag co-occurrence graph and the topic/structure hashtag feature.

The graph is built from the training split only, and numbers its tags once,
in sorted order: that tag -> node dict keys the edges by node pairs, indexes
the rows of the node features, and is the row index of the node-embedding
table. Node embeddings come from an untrained, deterministic mean-aggregator
over the weighted neighborhood (the GraphSAGE mean aggregator with no
learned weights), run over a dense (nodes, dim) state with one scatter-add
per hop, so its cost is linear in nodes plus edges. A post's hashtag feature
concatenates its mean topic embedding with its mean node embedding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat

import numpy as np

from .data import Dataset, Post
from .numeric import pooled_mean
from .providers import EmbeddingProvider

STRUCTURE_DIM = 50

# Floats per block of gathered edge terms in `node_embeddings` (2 MB).
_SCATTER_FLOATS = 1 << 18


@dataclass
class HashtagGraph:
    """Weighted undirected co-occurrence graph over hashtags.

    `nodes` numbers the tags in sorted order (tag -> node). Edge keys are
    node pairs (i, j) with i < j; the weight counts posts in which both tags
    appear. Row i of the (nodes, base_dim) `node_features` is node i's base
    feature, and of `tag_rows[dim]` its provider vector at dim (then a zero row).
    """

    nodes: dict[str, int]
    edges: dict[tuple[int, int], int]
    node_features: np.ndarray
    tag_rows: dict[int, np.ndarray] = field(default_factory=dict)


def build_cooccurrence_graph(posts: Dataset | list[Post],
                             provider: EmbeddingProvider,
                             base_dim: int = 64, tag_dims: tuple[int, ...] = ()) -> HashtagGraph:
    """Number the distinct tags in sorted order, then count the unordered
    co-occurring node pairs per post (tags deduplicated).

    Each post's distinct nodes are sorted and their pairs counted in one
    `Counter` pass over every post's `combinations`, so `edges` lists the
    pairs in the order they are first seen, as a loop over the posts' sorted
    pairs would insert them. The base features are the provider's vectors
    of the tags, drawn with their `tag_rows` at `tag_dims` in one `tables` call.
    """
    tag_lists = [post.hashtags for post in posts]
    tags = sorted(set(chain.from_iterable(tag_lists)))
    nodes = dict(zip(tags, range(len(tags))))
    node_sets = [sorted(set(map(nodes.__getitem__, t))) for t in tag_lists]
    # a plain dict: a Counter would answer 0 for a pair that never occurs
    edges = dict(Counter(chain.from_iterable(map(combinations, node_sets, repeat(2)))))
    tables = provider.tables({base_dim: tags, **dict.fromkeys(tag_dims, tags)})
    return HashtagGraph(nodes, edges, tables[base_dim][:-1], {d: tables[d] for d in tag_dims})


def _initial_rows(g: HashtagGraph, dim: int) -> np.ndarray:
    """(nodes + 1, dim): each node's base feature times a fixed random
    projection, in node order, then a zero row.

    Each row is its own (1, base_dim) @ (base_dim, dim) product in one
    stacked matmul, which runs the kernel a one-row product runs, so row i
    equals `g.node_features[i] @ projection` bit for bit. A plain
    (nodes, base_dim) @ (base_dim, dim) product blocks the sums differently.
    """
    base_dim = g.node_features.shape[1]
    proj_rng = np.random.default_rng(np.random.SeedSequence([base_dim, dim]))
    projection = proj_rng.uniform(-1.0, 1.0, size=(base_dim, dim)) / np.sqrt(base_dim)
    out = np.zeros((len(g.node_features) + 1, dim))
    np.matmul(g.node_features[:, None, :], projection, out=out[:-1, None])
    return out


class NodeEmbeddings(dict):
    """Tag -> node embedding: a view of row `rows[tag]` of one `table`,
    whose last row is zeros, so index -1 gathers zeros."""

    def __init__(self, table: np.ndarray, rows: dict[str, int]):
        super().__init__(zip(rows, table))
        self.table, self.rows = table, rows

    def index(self, tag_lists, width: int):
        """(index, lengths, lacking): B tag lists' (B, max(width, longest)) node
        index, -1 past a list's end and `len(rows)` at a tag the graph lacks,
        the lists' lengths, and each lacking tag's (list, position)."""
        lengths = [*map(len, tag_lists)]
        get, lacks, pad = self.rows.get, len(self.rows), (None,) * max(width, *lengths)
        flat = [-1 if tag is None else get(tag, lacks)
                for tags in tag_lists for tag in (*tags, *pad[len(tags):])]
        lacking = ([divmod(i, len(pad)) for i, node in enumerate(flat) if node == lacks]
                   if lacks in flat else [])  # `in` scans in C: most passes lack no tag
        return np.array(flat, dtype=np.intp).reshape(len(tag_lists), len(pad)), lengths, lacking


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
    state is the returned table, and its `rows` are `g.nodes`.
    """
    if dim < 1 or hops < 1:
        raise ValueError(f"dim and hops must be >= 1, got dim={dim}, hops={hops}")
    state = _initial_rows(g, dim)
    # Edge k = (i, j) becomes entries 2k (i <- j) and 2k+1 (j <- i).
    rows = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=2 * len(g.edges))
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
    return NodeEmbeddings(state, g.nodes)


def hashtag_feature(emb: NodeEmbeddings, index: np.ndarray, counts,
                    topic_rows: np.ndarray, topic_counts) -> np.ndarray:
    """(B, topic_dim + structure_dim): each post's topic part, then its
    structure part; a post gets zeros for a part it has no tags for.

    The topic part is the mean of `topic_rows[b, j]`, the provider's topic
    vector of post b's j-th hashtag (zero past its last), over its
    `topic_counts[b]` hashtags. The structure part is the mean node
    embedding over its `counts[b]` graph tags, gathered at `index`, where a
    tag the graph lacks adds a zero row: no bit moves, as numpy adds rows in
    order, and sums one-wide rows, each -1, 0 or 1, pairwise but exactly.
    """
    return np.concatenate([pooled_mean(topic_rows, topic_counts),
                           pooled_mean(emb.table[index], counts)], axis=-1)
