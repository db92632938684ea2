import random

import numpy as np
import pytest

from conftest import make_post
import postpop.hashtag_graph as hg
from postpop.data import Dataset
from postpop.hashtag_graph import (HashtagGraph, NodeEmbeddings,
                                   build_cooccurrence_graph,
                                   hashtag_feature, node_embeddings)
from postpop.numeric import padded_index, pooled_mean
from postpop.providers import EmbeddingProvider


@pytest.fixture
def provider():
    return EmbeddingProvider(kind="deterministic_stub", seed=0)


def posts_with_tags(tag_lists):
    return Dataset(tuple(
        make_post(post_id=f"p{i}", hashtags=tags)
        for i, tags in enumerate(tag_lists)))


def brute_force_weights(tag_lists):
    """Oracle: for every vocabulary pair, count posts containing both tags."""
    vocab = sorted({t for tags in tag_lists for t in tags})
    weights = {}
    for i, a in enumerate(vocab):
        for b in vocab[i + 1:]:
            w = sum(1 for tags in tag_lists if a in set(tags) and b in set(tags))
            if w:
                weights[(a, b)] = w
    return weights


def tag_edges(g):
    """`g.edges` keyed by tag pairs, in the same order."""
    tags = list(g.nodes)  # node -> tag
    return {(tags[i], tags[j]): w for (i, j), w in g.edges.items()}


def loop_edges(tag_lists):
    """Reference: each post's sorted distinct tags, pair by pair, in a double
    loop; the dict lists the pairs in the order they are first seen."""
    edges = {}
    for tags in tag_lists:
        tags = sorted(set(tags))
        for i in range(len(tags)):
            for j in range(i + 1, len(tags)):
                key = (tags[i], tags[j])
                edges[key] = edges.get(key, 0) + 1
    return edges


class TestGraphBuild:
    def test_two_posts_hand_counts(self, provider):
        ds = posts_with_tags([("a", "b", "c"), ("a", "b")])
        g = build_cooccurrence_graph(ds, provider)
        assert g.nodes == {"a": 0, "b": 1, "c": 2}
        assert g.edges == {(0, 1): 2, (0, 2): 1, (1, 2): 1}

    def test_single_tag_no_edges(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([("a",)]), provider)
        assert g.nodes == {"a": 0} and g.edges == {}

    def test_duplicate_tag_deduplicated(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([("a", "a", "b")]), provider)
        assert tag_edges(g) == {("a", "b"): 1}

    def test_empty_corpus(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([(), ()]), provider, base_dim=5)
        assert g.nodes == {} and g.edges == {}
        assert g.node_features.shape == (0, 5)

    def test_matches_brute_force_oracle(self, provider, rng):
        for trial in range(5):
            vocab = [f"t{i}" for i in range(rng.integers(3, 15))]
            tag_lists = []
            for _ in range(rng.integers(5, 40)):
                k = int(rng.integers(0, min(6, len(vocab)) + 1))
                tag_lists.append(tuple(rng.choice(vocab, size=k, replace=True)))
            g = build_cooccurrence_graph(posts_with_tags(tag_lists), provider)
            assert tag_edges(g) == brute_force_weights(tag_lists)

    def test_edges_in_first_seen_order_over_sorted_nodes(self, provider, rng):
        # `node_embeddings` sums each node's neighbours in `edges` order, so
        # its bits depend on the order, which `==` on dicts ignores; the
        # nodes number the tags in sorted order, and so do the feature rows
        for trial in range(8):
            vocab = [f"t{i:02d}" for i in range(int(rng.integers(3, 30)))]
            tag_lists = [tuple(rng.choice(vocab, size=int(rng.integers(0, 7))))
                         for _ in range(int(rng.integers(5, 50)))]
            tag_lists[int(rng.integers(len(tag_lists))):0] = [(), ("solo",), ("a", "a")]
            g = build_cooccurrence_graph(posts_with_tags(tag_lists), provider)
            assert type(g.edges) is dict
            assert all(i < j for i, j in g.edges)
            assert list(tag_edges(g).items()) == list(loop_edges(tag_lists).items())
            tags = sorted({t for tags in tag_lists for t in tags})
            assert list(g.nodes.items()) == list(zip(tags, range(len(tags))))
            assert g.node_features.shape == (len(tags), 64)
            for t, i in g.nodes.items():
                assert np.array_equal(g.node_features[i], provider.vector(t, 64)), t


def projection(base_dim, dim):
    """The fixed random projection of base features to `dim`."""
    proj_rng = np.random.default_rng(np.random.SeedSequence([base_dim, dim]))
    return proj_rng.uniform(-1.0, 1.0, size=(base_dim, dim)) / np.sqrt(base_dim)


def initial_states(g, dim):
    """Reference: each node's base feature times the projection, one row
    product at a time."""
    proj = projection(g.node_features.shape[1], dim)
    return {t: g.node_features[i] @ proj for t, i in g.nodes.items()}


def loop_node_embeddings(g, dim, hops):
    """Reference: the per-node loop, scanning every edge for each node's
    neighbors in `g.edges` insertion order."""
    tags = sorted(g.nodes)
    state = initial_states(g, dim)
    neigh = {t: [(b if a == t else a, w) for (a, b), w in tag_edges(g).items()
                 if t in (a, b)] for t in tags}
    for _ in range(hops):
        nxt = {}
        for t in tags:
            if not neigh[t]:
                nxt[t] = state[t]
                continue
            acc = state[t].copy()
            total = 1.0
            for other, w in neigh[t]:
                acc += w * state[other]
                total += w
            nxt[t] = np.tanh(acc / total)
        state = nxt
    out = {}
    for t in tags:
        norm = np.linalg.norm(state[t])
        out[t] = state[t] / norm if norm > 0 else state[t]
    return out


class TestNodeEmbeddings:
    # 7 floats per block: edge terms are scattered a few entries at a time
    @pytest.mark.parametrize("scatter_floats", [hg._SCATTER_FLOATS, 7])
    def test_bitwise_equal_to_per_node_loop(self, provider, rng, monkeypatch,
                                            scatter_floats):
        monkeypatch.setattr(hg, "_SCATTER_FLOATS", scatter_floats)
        graphs = [build_cooccurrence_graph(posts_with_tags([("a", "b")]), provider)]
        for trial in range(6):
            vocab = [f"t{i}" for i in range(int(rng.integers(4, 40)))]
            # few tags per post over a small vocabulary: repeated pairs give
            # weights above 1, and one-tag posts leave isolated nodes
            tag_lists = [tuple(rng.choice(vocab, size=int(rng.integers(1, 5))))
                         for _ in range(int(rng.integers(5, 60)))]
            tag_lists += [(f"solo{trial}",), (f"lone{trial}", f"lone{trial}")]
            graphs.append(build_cooccurrence_graph(posts_with_tags(tag_lists), provider))
        assert any(w > 1 for g in graphs for w in g.edges.values())
        for g in graphs:
            for dim, hops in ((1, 1), (5, 2), (7, 3)):
                got = node_embeddings(g, dim=dim, hops=hops)
                want = loop_node_embeddings(g, dim, hops)
                assert got.keys() == want.keys()
                for t in want:
                    assert np.array_equal(got[t], want[t]), (t, dim, hops)


    @pytest.mark.parametrize("base_dim", [1, 3, 16, 64])
    def test_initial_states_bitwise_equal_to_per_row_products(self, rng, base_dim):
        g = HashtagGraph(nodes={f"t{i:02d}": i for i in range(37)}, edges={},
                         node_features=rng.uniform(-1, 1, (37, base_dim)))
        for dim in (1, 3, 4, 5, 7, 8, 16, 50, 64):
            proj = projection(base_dim, dim)
            got = hg._initial_rows(g, dim)
            assert got.shape == (37 + 1, dim)
            assert got[-1].tobytes() == bytes(8 * dim)  # the zero row, +0.0
            for i, v in enumerate(got[:-1]):
                assert np.array_equal(v, g.node_features[i] @ proj), (i, dim)

    def test_isolated_node_is_normalized_projection(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([("solo",)]), provider)
        emb = node_embeddings(g, dim=6, hops=2)
        h0 = initial_states(g, 6)["solo"]
        assert np.allclose(emb["solo"], h0 / np.linalg.norm(h0))

    def test_symmetric_pair_identical(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([("x", "y")]), provider)
        g.node_features[g.nodes["x"]] = g.node_features[g.nodes["y"]]
        emb = node_embeddings(g, dim=5, hops=2)
        assert np.allclose(emb["x"], emb["y"])

    def test_path_graph_matches_explicit_computation(self):
        # a-b weight 2, b-c weight 1; hand-set base features
        g = HashtagGraph(nodes={"a": 0, "b": 1, "c": 2}, edges={(0, 1): 2, (1, 2): 1},
                         node_features=np.random.default_rng(77).normal(size=(3, 3)))
        emb = node_embeddings(g, dim=4, hops=1)

        h0 = initial_states(g, 4)
        expect = {
            "a": np.tanh((h0["a"] + 2 * h0["b"]) / 3.0),
            "b": np.tanh((h0["b"] + 2 * h0["a"] + 1 * h0["c"]) / 4.0),
            "c": np.tanh((h0["c"] + 1 * h0["b"]) / 2.0),
        }
        for t, v in expect.items():
            assert np.allclose(emb[t], v / np.linalg.norm(v), atol=1e-12)

    def test_insertion_order_irrelevant(self, provider):
        tag_lists = [("a", "b"), ("b", "c"), ("c", "d", "a")]
        g1 = build_cooccurrence_graph(posts_with_tags(tag_lists), provider)
        g2 = build_cooccurrence_graph(posts_with_tags(tag_lists[::-1]), provider)
        e1 = node_embeddings(g1, dim=5)
        e2 = node_embeddings(g2, dim=5)
        for t in e1:
            assert np.allclose(e1[t], e2[t])

    def test_one_table_with_a_zero_row(self, provider, rng):
        tag_lists = [tuple(rng.choice([f"t{i}" for i in range(9)], size=3))
                     for _ in range(12)] + [("solo",)]
        g = build_cooccurrence_graph(posts_with_tags(tag_lists), provider)
        emb = node_embeddings(g, dim=6)
        tags = sorted(g.nodes)
        assert emb.table.shape == (len(tags) + 1, 6)
        assert emb.rows == dict(zip(tags, range(len(tags)))) and list(emb) == tags
        assert emb.rows is g.nodes  # one numbering
        assert emb.table[-1].tobytes() == bytes(6 * 8)  # +0.0, gathered by -1
        # by-tag reads are views of the table's rows, not copies
        assert all(np.shares_memory(emb[t], emb.table) for t in tags)
        assert len(emb) == len(tags) and "solo" in emb and "mystery" not in emb

    def test_tagless_corpus_gives_a_zero_table_and_zero_structure(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([(), ()]), provider, base_dim=5)
        emb = node_embeddings(g, dim=4)
        assert emb == {} and emb.rows is g.nodes and g.nodes == {}
        assert emb.table.shape == (1, 4) and emb.table.tobytes() == bytes(4 * 8)
        posts = [make_post(hashtags=()), make_post(hashtags=("unseen", "tags"))]
        f = feature(posts, emb, topic_rows(posts, provider, 3))
        assert f.shape == (2, 3 + 4)
        assert f[:, 3:].tobytes() == bytes(2 * 4 * 8)
        assert g.nodes == {}  # the unseen tags were not numbered

    def test_one_wide_table_holds_signs(self, provider, rng):
        # a one-wide row of unit norm is -1 or 1: sqrt(x * x) is |x| exactly
        tag_lists = [tuple(rng.choice([f"t{i}" for i in range(30)], size=4))
                     for _ in range(40)] + [("solo",)]
        g = build_cooccurrence_graph(posts_with_tags(tag_lists), provider)
        for hops in (1, 2, 3):
            table = node_embeddings(g, dim=1, hops=hops).table
            assert set(np.unique(table[:-1])) <= {-1.0, 1.0} and table[-1] == 0.0

    def test_unit_norm_outputs(self, provider, rng):
        tag_lists = [tuple(rng.choice([f"t{i}" for i in range(8)], size=3))
                     for _ in range(10)]
        g = build_cooccurrence_graph(posts_with_tags(tag_lists), provider)
        emb = node_embeddings(g, dim=7)
        for v in emb.values():
            norm = np.linalg.norm(v)
            assert norm == 0.0 or abs(norm - 1.0) < 1e-9
            assert np.all(np.isfinite(v))


def topic_rows(posts, provider, dim):
    """Each post's provider vectors of its hashtags, zero-padded: (B, T, dim)."""
    width = max(len(p.hashtags) for p in posts)
    out = np.zeros((len(posts), width, dim))
    for b, post in enumerate(posts):
        for j, tag in enumerate(post.hashtags):
            out[b, j] = provider.vector(tag, dim)
    return out


def node_table(emb: dict, dim: int) -> NodeEmbeddings:
    """The NodeEmbeddings of a tag -> vector dict: its rows in dict order,
    then the zero row."""
    return NodeEmbeddings(np.array([*emb.values(), np.zeros(dim)]),
                          dict(zip(emb, range(len(emb)))))


def feature(posts, emb: NodeEmbeddings, topic_rows) -> np.ndarray:
    """The hashtag feature of `posts`, their tags numbered through `emb`."""
    index, lengths, _ = emb.index([post.hashtags for post in posts], 0)
    known = [sum(tag in emb.rows for tag in post.hashtags) for post in posts]
    return hashtag_feature(emb, index, known, topic_rows, lengths)


def structural_embedding(post, emb, dim):
    """The structure part: past the one-wide topic part of zeros."""
    return feature([post], node_table(emb, dim), np.zeros((1, len(post.hashtags), 1)))[0, 1:]


def topic_embedding(post, provider, dim):
    """The topic part: before the one-wide structure part."""
    return feature([post], node_table({}, 1), topic_rows([post], provider, dim))[0, :-1]


class TestNodeIndex:
    def test_nodes_lacking_and_padding(self):
        emb = node_table({"a": np.ones(2), "b": np.zeros(2)}, 2)
        index, lengths, lacking = emb.index([("b", "x", "a", "b"), (), ("y",)], 2)
        # a tag the graph lacks is len(rows), padding is -1: both gather
        # the zero row
        assert index.tolist() == [[1, 2, 0, 1], [-1, -1, -1, -1], [2, -1, -1, -1]]
        assert index.dtype == np.intp and lengths == [4, 0, 1]
        assert lacking == [(0, 1), (2, 0)]  # (list, position) of "x" and "y"
        assert emb.rows == {"a": 0, "b": 1}  # nothing is added to the graph
        assert emb.table[index[1:]].tobytes() == bytes(2 * 4 * 2 * 8)

    def test_width_is_at_least_the_asked_width(self):
        emb = node_table({"a": np.ones(2)}, 2)
        index, lengths, lacking = emb.index([("a",), ()], 3)
        assert index.tolist() == [[0, -1, -1], [-1, -1, -1]] and lacking == []
        assert emb.index([()], 0)[0].shape == (1, 0)


class TestStructuralEmbedding:
    def test_no_hashtags_zero_vector(self):
        post = make_post(hashtags=())
        assert np.array_equal(structural_embedding(post, {}, dim=5), np.zeros(5))

    def test_two_tags_mean(self):
        u, v = np.arange(4.0), np.ones(4)
        post = make_post(hashtags=("a", "b"))
        out = structural_embedding(post, {"a": u, "b": v}, dim=4)
        assert np.allclose(out, (u + v) / 2.0)

    def test_single_tag_is_its_embedding(self):
        u = np.array([1.0, -2.0, 0.5])
        post = make_post(hashtags=("a",))
        assert np.allclose(structural_embedding(post, {"a": u}, dim=3), u)

    def test_unknown_tags_skipped(self):
        u = np.ones(3)
        post = make_post(hashtags=("a", "mystery"))
        assert np.allclose(structural_embedding(post, {"a": u}, dim=3), u)
        post_all_unknown = make_post(hashtags=("mystery",))
        assert np.array_equal(structural_embedding(post_all_unknown, {"a": u}, dim=3),
                              np.zeros(3))

    def test_order_invariance(self, provider):
        emb = {"a": np.arange(3.0), "b": np.ones(3), "c": -np.ones(3)}
        p1 = make_post(hashtags=("a", "b", "c"))
        p2 = make_post(hashtags=("c", "a", "b"))
        assert np.allclose(structural_embedding(p1, emb, 3),
                           structural_embedding(p2, emb, 3))


class TestTopicEmbedding:
    def test_no_hashtags_zero(self, provider):
        assert np.array_equal(topic_embedding(make_post(hashtags=()), provider, 8),
                              np.zeros(8))

    def test_single_tag(self, provider):
        out = topic_embedding(make_post(hashtags=("sun",)), provider, 8)
        assert np.array_equal(out, provider.vector("sun", 8))

    def test_two_tags_average(self, provider):
        out = topic_embedding(make_post(hashtags=("sun", "sea")), provider, 8)
        expect = (provider.vector("sun", 8) + provider.vector("sea", 8)) / 2.0
        assert np.allclose(out, expect, atol=1e-12)


class TestHashtagFeature:
    def test_default_dims(self, provider):
        post = make_post(hashtags=("sun",))
        emb = node_table({"sun": np.ones(50)}, 50)
        hf = feature([post], emb, topic_rows([post], provider, 768))
        assert hf.shape == (1, 818)

    def test_concatenation_layout(self, provider):
        post = make_post(hashtags=("sun",))
        emb = node_table({"sun": np.full(50, 0.25)}, 50)
        hf = feature([post], emb, topic_rows([post], provider, 768))
        assert np.array_equal(hf[0, :768], provider.vector("sun", 768))
        assert np.array_equal(hf[0, 768:], np.full(50, 0.25))

    def test_zero_plus_zero(self, provider):
        hf = feature([make_post(hashtags=())], node_table({}, 50), np.zeros((1, 0, 768)))
        assert np.array_equal(hf, np.zeros((1, 818)))

    def test_batch_rows_equal_one_post_calls(self, provider):
        # posts with no tags, unknown tags, repeated tags and differing counts
        # pad to one width; the structure part is bitwise what numbering the
        # known tags alone gives. At dim 1 numpy sums pairwise, where the
        # unknown tags' zero rows move the grouping, but a one-wide node table
        # holds only -1, 0 and 1, whose sums are exact in any grouping.
        for dim in (1, 5):
            emb = {t: provider.vector(t, dim) for t in ("a", "b", "c")}
            if dim == 1:
                emb = {t: np.sign(v) for t, v in emb.items()}
            table = node_table(emb, dim)
            draw = random.Random(3)
            posts = [make_post(hashtags=tags) for tags in
                     [(), ("a",), ("b", "mystery", "b"), ("mystery",), ("c", "a", "b", "a"),
                      *(draw.choices("abcwxyz", k=draw.randint(9, 16)) for _ in range(8))]]
            batch = feature(posts, table, topic_rows(posts, provider, 8))
            # the tags the graph lacks are skipped, not added to its rows
            assert table.rows == {"a": 0, "b": 1, "c": 2}
            known = [[t for t in post.hashtags if t in emb] for post in posts]
            index, lengths = padded_index(dict(table.rows), known)
            assert batch[:, 8:].tobytes() == pooled_mean(table.table[index], lengths).tobytes()
            for b, post in enumerate(posts):
                one = feature([post], table, topic_rows([post], provider, 8))
                assert batch[b].tobytes() == one[0].tobytes()
                rows = [emb[t] for t in known[b]]
                assert batch[b, 8:].tobytes() == (np.mean(rows, axis=0) if rows
                                                   else np.zeros(dim)).tobytes()
