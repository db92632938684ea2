import re

import numpy as np
import pytest

from conftest import make_post, tiny_config
from postpop.model import FeatureBundle, build_caches, extract_features
from postpop.providers import (BATCH_DRAWS, EmbeddingProvider, _pcg64_states,
                               read_feature_file, tokenize, write_feature_file)


@pytest.fixture
def provider():
    return EmbeddingProvider(kind="deterministic_stub", seed=0)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Holi Festival, in Madrid!") == ["holi", "festival", "in", "madrid"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("...  !!") == []


def featurize(posts, provider, **overrides) -> FeatureBundle:
    """The stacked bundle of `posts` under a tiny config, drawing from
    `provider`. The feature state is fitted on hashtag-free posts, so
    fitting it draws nothing."""
    cfg = tiny_config(**overrides)
    fit_posts = [make_post(post_id=f"t{i}", comment_count=i) for i in range(6)]
    return extract_features(posts, build_caches(fit_posts, cfg, provider=provider), cfg)


class TestTextEmbeddings:
    def test_padding_and_mask(self, provider):
        b = featurize([make_post(caption="holi festival in madrid")], provider, m=15, d=8)
        mat, mask = b.tokens[0], b.token_mask[0]
        assert mat.shape == (15, 8) and mask.shape == (15,)
        assert np.all(mask[:4] == 1) and np.all(mask[4:] == 0)
        assert np.all(np.any(mat[:4] != 0, axis=1))
        assert np.all(mat[4:] == 0)

    def test_empty_caption(self, provider):
        b = featurize([make_post(caption="")], provider, m=5, d=4)
        assert np.all(b.tokens == 0) and np.all(b.token_mask == 0)

    def test_truncation_matches_token_slice(self, provider):
        words = [f"w{i}" for i in range(20)]
        b = featurize([make_post(caption=" ".join(words))], provider, m=15, d=6)
        mat, mask = b.tokens[0], b.token_mask[0]
        assert mat.shape == (15, 6) and np.all(mask == 1)
        expected = np.array([provider.vector(w, 6) for w in words[:15]])
        assert np.array_equal(mat, expected)

    def test_same_token_same_row(self, provider):
        b = featurize([make_post(caption="echo echo")], provider, m=4, d=8)
        assert np.array_equal(b.tokens[0, 0], b.tokens[0, 1])


class TestImageFeatures:
    def test_determinism(self, provider):
        a = featurize([make_post(image_ref="imgX")], provider, k=7, n=5).regions
        b = featurize([make_post(image_ref="imgX")], provider, k=7, n=5).regions
        assert a.shape == (1, 7, 5) and np.array_equal(a, b)
        assert np.array_equal(a[0], provider.vector("imgX", 35).reshape(7, 5))

    def test_paper_default_shape(self, provider):
        b = featurize([make_post(image_ref="imgX")], provider, k=49, n=512)
        assert b.regions.shape == (1, 49, 512)

    def test_distinct_refs_differ(self, provider):
        b = featurize([make_post(post_id="a", image_ref="imgA"),
                       make_post(post_id="b", image_ref="imgB")], provider, k=4, n=4)
        assert np.any(b.regions[0] != b.regions[1])


class TestHashtagMatrix:
    def test_padding(self, provider):
        b = featurize([make_post(hashtags=("a", "b", "c"))], provider, l=60, d=8)
        mat, mask = b.hashtag_mat[0], b.hashtag_mask[0]
        assert mat.shape == (60, 8)
        assert mask.sum() == 3
        assert np.any(mat[:3] != 0) and np.all(mat[3:] == 0)

    def test_empty_list(self, provider):
        b = featurize([make_post(hashtags=())], provider, l=10, d=4)
        assert np.all(b.hashtag_mat == 0) and np.all(b.hashtag_mask == 0)

    def test_truncation(self, provider):
        tags = [f"t{i}" for i in range(70)]
        b = featurize([make_post(hashtags=tags)], provider, l=60, d=4)
        mat, mask = b.hashtag_mat[0], b.hashtag_mask[0]
        assert mat.shape == (60, 4) and mask.sum() == 60
        expected = np.array([provider.vector(t, 4) for t in tags[:60]])
        assert np.array_equal(mat, expected)


class TestStubProperties:
    def test_cross_instance_determinism(self):
        a = EmbeddingProvider(kind="deterministic_stub", seed=5).vector("word", 16)
        b = EmbeddingProvider(kind="deterministic_stub", seed=5).vector("word", 16)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a = EmbeddingProvider(seed=1).vector("word", 16)
        b = EmbeddingProvider(seed=2).vector("word", 16)
        assert np.any(a != b)

    def test_entries_in_unit_interval(self, provider):
        for key in ("alpha", "beta", "gamma"):
            v = provider.vector(key, 64)
            assert np.all(v >= -1.0) and np.all(v <= 1.0)

    def test_bad_dim(self, provider):
        with pytest.raises(ValueError):
            provider.vector("x", 0)


class TestPrecomputedFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.bin"
        vectors = {"a": np.linspace(-1, 1, 6).astype(np.float32),
                   "b": np.zeros(6, dtype=np.float32)}
        write_feature_file(path, vectors)
        dim, table = read_feature_file(path)
        assert dim == 6
        assert np.allclose(table["a"], vectors["a"])

    def test_provider_reads_stored(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_feature_file(path, {"img0": np.arange(12, dtype=np.float32)})
        p = EmbeddingProvider(kind="precomputed_file", feature_path=str(path))
        b = featurize([make_post(caption="", image_ref="img0")], p, k=3, n=4)
        assert np.array_equal(b.regions[0], np.arange(12.0).reshape(3, 4))

    def test_missing_key_raises(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_feature_file(path, {"img0": np.zeros(4, dtype=np.float32)})
        p = EmbeddingProvider(kind="precomputed_file", feature_path=str(path))
        with pytest.raises(KeyError):
            p.vector("unknown", 4)

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            read_feature_file(path)

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_feature_file(path, {"a": np.arange(4, dtype=np.float32),
                                  "bb": -np.arange(4, dtype=np.float32)})
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(ValueError, match=re.escape(str(cut))):
                read_feature_file(cut)
        cut.write_bytes(raw)
        assert read_feature_file(cut)[1].keys() == {"a", "bb"}


class TestPassMemo:
    """A featurization pass draws each distinct (key, dim) once, in one
    `vectors` call, and keeps nothing after it returns."""

    def test_repeats_equal_fresh_draws(self, provider):
        post = make_post(caption="k x k", hashtags=("k", "k"))
        for _ in range(2):
            b = featurize([post, post], provider, m=3, l=2, d=8, topic_dim=3)
            assert np.array_equal(b.tokens[1, 2], provider.vector("k", 8))
            assert np.array_equal(b.hashtag_mat[0, 1], provider.vector("k", 8))
            assert np.array_equal(b.f_hashtag[0, :3], provider.vector("k", 3))

    def test_each_key_drawn_once(self, provider, draw_log):
        words = [f"w{i}" for i in range(BATCH_DRAWS)]
        posts = [make_post(post_id="a", caption=" ".join(words), image_ref="img"),
                 make_post(post_id="b", caption="w0 w1 w0", hashtags=("w0", "x", "x"),
                           image_ref="img")]
        for _ in range(2):  # and again by the next pass
            draw_log.drawn.clear()
            featurize(posts, provider, m=BATCH_DRAWS, l=4, d=8, topic_dim=8, k=2, n=3)
            assert draw_log.drawn == [(w, 8) for w in words] + [("x", 8), ("img", 6)]
            assert draw_log.per_key == []  # above the crossover: no per-key draw

    def test_mutating_a_result_leaves_later_draws_unchanged(self, provider):
        post = make_post(caption="k")
        first = featurize([post], provider, d=8)
        first.tokens[:] = 7.0
        assert np.array_equal(featurize([post], provider, d=8).tokens[0, 0],
                              provider.vector("k", 8))

    def test_precomputed_file_through_the_memo(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_feature_file(path, {"k": np.arange(4, dtype=np.float32),
                                  "img0": np.ones(4, dtype=np.float32)})
        stored = EmbeddingProvider(kind="precomputed_file", feature_path=str(path))
        b = featurize([make_post(caption="k k")], stored, d=4, k=2, n=2)
        b.tokens[:] = -1.0
        b = featurize([make_post(caption="k k")], stored, d=4, k=2, n=2)
        assert np.array_equal(b.tokens[0, :2], [np.arange(4.0)] * 2)
        assert np.array_equal(stored.vector("k", 4), np.arange(4.0))
        with pytest.raises(KeyError):
            featurize([make_post(caption="unknown")], stored, d=4, k=2, n=2)


class TestBatchedDraws:
    """`vectors` seeds many streams at once; its output must be `vector`'s."""

    def requests(self, count: int, rng) -> list[tuple[str, int]]:
        keys = ["", "é", "ünïcödé ☃ 🙂", "x" * 300, "#tag", "a b\tc"]
        keys += [f"tok{i}" for i in range(count)]
        dims = rng.choice([1, 2, 8, 33, 512], size=count, p=[0.3, 0.3, 0.25, 0.1, 0.05])
        out = [(keys[int(rng.integers(len(keys)))], int(dim)) for dim in dims]
        return out + out[:50]  # repeated requests

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 31 - 1])
    def test_bitwise_equal_to_per_key_draws(self, seed):
        rng = np.random.default_rng(seed)
        provider = EmbeddingProvider(seed=seed)
        requests = self.requests(3400, rng)  # >= 10^4 requests over the three seeds
        got = provider.vectors(requests)
        assert len(got) == len(requests)
        for vec, (key, dim) in zip(got, requests):
            want = provider.vector(key, dim)
            assert vec.dtype == want.dtype and vec.tobytes() == want.tobytes(), (key, dim)

    @pytest.mark.parametrize("count", [0, 1, BATCH_DRAWS - 1, BATCH_DRAWS, BATCH_DRAWS + 1])
    def test_both_sides_of_the_crossover(self, provider, draw_log, count):
        requests = [(f"k{i}", 1 + i % 3) for i in range(count)]
        got = provider.vectors(requests)
        assert draw_log.per_key == ([] if count >= BATCH_DRAWS else requests)
        assert [v.tobytes() for v in got] == [provider.vector(k, d).tobytes()
                                             for k, d in requests]

    def test_every_digest_seeds_like_pcg64(self):
        # one-word entropy (digest < 2**32), zero, and the top of the range
        for value in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 12345, 2 ** 64 - 1):
            state = np.random.PCG64(value).state["state"]
            assert _pcg64_states(value.to_bytes(8, "little")) == [
                (state["state"], state["inc"])], value

    def test_bad_dim_raises_on_both_paths(self, provider):
        for count in (1, BATCH_DRAWS):
            with pytest.raises(ValueError, match="dim must be >= 1"):
                provider.vectors([("k", 4)] * (count - 1) + [("k", 0)])

    def test_precomputed_file(self, tmp_path):
        path = tmp_path / "emb.bin"
        stored = {f"k{i}": np.arange(4, dtype=np.float32) + i for i in range(2 * BATCH_DRAWS)}
        write_feature_file(path, stored)
        p = EmbeddingProvider(kind="precomputed_file", feature_path=str(path))
        requests = [(k, 4) for k in stored] * 2
        got = p.vectors(requests)
        assert all(np.array_equal(v, p.vector(k, d)) for v, (k, d) in zip(got, requests))
        got[0][:] = -1.0  # each result is its own copy
        assert np.array_equal(p.vector("k0", 4), np.arange(4.0))
        with pytest.raises(KeyError):
            p.vectors(requests + [("unknown", 4)])
