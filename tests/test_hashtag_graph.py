import numpy as np
import pytest

from conftest import make_post
import postpop.hashtag_graph as hg
from postpop.data import Dataset
from postpop.hashtag_graph import (HashtagGraph,
                                   build_cooccurrence_graph, export_edge_list,
                                   hashtag_feature, initial_node_states,
                                   node_embeddings, structural_embedding,
                                   topic_embedding)
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


class TestGraphBuild:
    def test_two_posts_hand_counts(self, provider):
        ds = posts_with_tags([("a", "b", "c"), ("a", "b")])
        g = build_cooccurrence_graph(ds, provider)
        assert g.weight("a", "b") == 2
        assert g.weight("a", "c") == 1
        assert g.weight("b", "c") == 1

    def test_single_tag_no_edges(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([("a",)]), provider)
        assert g.nodes == {"a"} and g.edges == {}

    def test_duplicate_tag_deduplicated(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([("a", "a", "b")]), provider)
        assert g.weight("a", "b") == 1
        assert ("a", "a") not in g.edges

    def test_empty_corpus(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([(), ()]), provider)
        assert g.nodes == set() and g.edges == {}

    def test_matches_brute_force_oracle(self, provider, rng):
        for trial in range(5):
            vocab = [f"t{i}" for i in range(rng.integers(3, 15))]
            tag_lists = []
            for _ in range(rng.integers(5, 40)):
                k = int(rng.integers(0, min(6, len(vocab)) + 1))
                tag_lists.append(tuple(rng.choice(vocab, size=k, replace=True)))
            g = build_cooccurrence_graph(posts_with_tags(tag_lists), provider)
            assert g.edges == brute_force_weights(tag_lists)


def loop_node_embeddings(g, dim, hops):
    """Reference: the per-node loop, scanning every edge for each node's
    neighbors in `g.edges` insertion order."""
    tags = sorted(g.nodes)
    state = initial_node_states(g, dim)
    neigh = {t: [(b if a == t else a, w) for (a, b), w in g.edges.items()
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


    def test_isolated_node_is_normalized_projection(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([("solo",)]), provider)
        emb = node_embeddings(g, dim=6, hops=2)
        h0 = initial_node_states(g, 6)["solo"]
        assert np.allclose(emb["solo"], h0 / np.linalg.norm(h0))

    def test_symmetric_pair_identical(self, provider):
        g = build_cooccurrence_graph(posts_with_tags([("x", "y")]), provider)
        g.node_features["x"] = g.node_features["y"].copy()
        emb = node_embeddings(g, dim=5, hops=2)
        assert np.allclose(emb["x"], emb["y"])

    def test_path_graph_matches_explicit_computation(self):
        # a-b weight 2, b-c weight 1; hand-set base features
        g = HashtagGraph(base_dim=3)
        g.nodes = {"a", "b", "c"}
        g.edges = {("a", "b"): 2, ("b", "c"): 1}
        rng = np.random.default_rng(77)
        for t in sorted(g.nodes):
            g.node_features[t] = rng.normal(size=3)
        emb = node_embeddings(g, dim=4, hops=1)

        h0 = initial_node_states(g, 4)
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

    def test_unit_norm_outputs(self, provider, rng):
        tag_lists = [tuple(rng.choice([f"t{i}" for i in range(8)], size=3))
                     for _ in range(10)]
        g = build_cooccurrence_graph(posts_with_tags(tag_lists), provider)
        emb = node_embeddings(g, dim=7)
        for v in emb.values():
            norm = np.linalg.norm(v)
            assert norm == 0.0 or abs(norm - 1.0) < 1e-9
            assert np.all(np.isfinite(v))


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
        emb = {"sun": np.ones(50)}
        hf = hashtag_feature(post, emb, provider)
        assert hf.topic.shape == (768,)
        assert hf.structure.shape == (50,)
        assert hf.combined.shape == (818,)

    def test_concatenation_layout(self, provider):
        post = make_post(hashtags=("sun",))
        emb = {"sun": np.full(50, 0.25)}
        hf = hashtag_feature(post, emb, provider)
        assert np.array_equal(hf.combined[:768], hf.topic)
        assert np.array_equal(hf.combined[768:], hf.structure)

    def test_zero_plus_zero(self, provider):
        hf = hashtag_feature(make_post(hashtags=()), {}, provider)
        assert np.array_equal(hf.combined, np.zeros(818))


class TestExport:
    def test_edge_list_format(self, provider, tmp_path):
        ds = posts_with_tags([("b", "a"), ("a", "b"), ("c", "a")])
        g = build_cooccurrence_graph(ds, provider)
        path = tmp_path / "graph.tsv"
        export_edge_list(g, path)
        lines = path.read_text().splitlines()
        assert lines == ["a\tb\t2", "a\tc\t1"]
