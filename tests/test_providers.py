import hashlib
import re
import string
import struct

import numpy as np
import pytest

from conftest import make_post, tiny_config
from postpop.model import FeatureBundle, build_caches, extract_features
from postpop import streams
from postpop.providers import (EmbeddingProvider, read_feature_file, tokenize,
                               write_feature_file)


@pytest.fixture
def provider():
    return EmbeddingProvider(kind="deterministic_stub", seed=0)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Holi Festival, in Madrid!") == ["holi", "festival", "in", "madrid"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("...  !!") == []

    @staticmethod
    def per_token(text: str) -> list[str]:
        """Reference: split the lowercased text, then strip each token."""
        out = []
        for raw in text.lower().split():
            tok = "".join(c for c in raw if c not in string.punctuation)
            if tok:
                out.append(tok)
        return out

    @pytest.mark.parametrize("text", [
        "Holi Festival, in Madrid!",
        "a,b c.d !!! e-f (g) [h]{i} #tag @user 'q' \"r\" x/y z\\w",
        "tab\tnew\nline\rcr\x0bvt\x0cff",
        "nbsp\u00a0em\u2003ideo\u3000line\u2028para\u2029end\u0085nel",
        "¡Olé! «guillemets» — dash… ‘curly’ “quotes” ¿qué?",
        "... ,,, !!! ?? ---", "ÉCOLE Straße İstanbul ΣΊΣΥΦΟΣ",
        "  lead and trail  ", "emoji 🙂 ☃ ok", "",
    ])
    def test_matches_the_per_token_reference(self, text):
        assert tokenize(text) == self.per_token(text)

    def test_matches_the_per_token_reference_on_random_text(self):
        rng = np.random.default_rng(11)
        alphabet = list(string.ascii_letters + string.punctuation + " \t\n") + [
            "\u00a0", "\u2003", "\u3000", "é", "ß", "İ", "—", "…", "¡", "🙂"]
        for _ in range(500):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 40))))
            assert tokenize(text) == self.per_token(text), repr(text)


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

    def test_uniform_on_minus_one_to_one(self, provider):
        values = provider.tables({100: [f"k{i}" for i in range(1000)]})[100][:-1].ravel()
        assert values.size == 10 ** 5
        assert values.min() >= -1.0 and values.max() < 1.0
        assert abs(values.mean()) < 0.01
        assert abs(values.var() - 1 / 3) < 1 / 300

    def test_distinct_keys_give_distinct_vectors(self, provider):
        table = provider.tables({4: [f"k{i}" for i in range(10 ** 4)]})[4][:-1]
        assert len(np.unique(table, axis=0)) == 10 ** 4


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

    def test_mixed_dims_not_written(self, tmp_path):
        path = tmp_path / "emb.bin"
        with pytest.raises(ValueError, match="share one flattened dim"):
            write_feature_file(path, {"a": np.zeros(4, np.float32),
                                      "b": np.zeros((2, 3), np.float32)})
        assert not path.exists()

    @pytest.mark.parametrize("dim, count, klen, error", [
        (0, 1, 1, "bad feature file header"),
        (-4, 1, 1, "bad feature file header"),
        (4, -1, 1, "bad feature file header"),
        (4, 1, -1, "bad key length -1"),
    ])
    def test_bad_header_or_key_length(self, tmp_path, dim, count, klen, error):
        # the magic, then dim and count, then each key's length (all <i4)
        path = tmp_path / "emb.bin"
        write_feature_file(path, {"a": np.zeros(4, np.float32)})
        raw = bytearray(path.read_bytes())
        raw[6:18] = struct.pack("<iii", dim, count, klen)
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=error):
            read_feature_file(path)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown provider kind 'glove'"):
            EmbeddingProvider(kind="glove")

    def test_missing_feature_path(self):
        with pytest.raises(ValueError, match="needs feature_path"):
            EmbeddingProvider(kind="precomputed_file")

    def test_stored_dim_mismatch(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_feature_file(path, {"img0": np.zeros(12, np.float32)})
        p = EmbeddingProvider(kind="precomputed_file", feature_path=str(path))
        with pytest.raises(ValueError, match="stored dim 12 != requested 8"):
            p.vector("img0", 8)
        with pytest.raises(ValueError, match="stored dim 12 != requested 8"):
            p.tables({8: ["img0", "img0"]})


class TestPassMemo:
    """A featurization pass draws each distinct (key, dim) once, in one
    `tables` call, and keeps nothing after it returns."""

    def test_repeats_equal_fresh_draws(self, provider):
        post = make_post(caption="k x k", hashtags=("k", "k"))
        for _ in range(2):
            b = featurize([post, post], provider, m=3, l=2, d=8, topic_dim=3)
            assert np.array_equal(b.tokens[1, 2], provider.vector("k", 8))
            assert np.array_equal(b.hashtag_mat[0, 1], provider.vector("k", 8))
            assert np.array_equal(b.f_hashtag[0, :3], provider.vector("k", 3))

    def test_each_key_drawn_once(self, provider, draw_log):
        words = [f"w{i}" for i in range(12)]
        posts = [make_post(post_id="a", caption=" ".join(words), image_ref="img"),
                 make_post(post_id="b", caption="w0 w1 w0", hashtags=("w0", "x", "x"),
                           image_ref="img")]
        for _ in range(2):  # and again by the next pass
            draw_log.drawn.clear()
            draw_log.per_key.clear()
            featurize(posts, provider, m=len(words), l=4, d=8, topic_dim=8, k=2, n=3)
            assert draw_log.drawn == [(w, 8) for w in words] + [("x", 8), ("img", 6)]
            # the shared image is its dim's one key: the only per-key draw
            assert draw_log.per_key == [("img", 6)]

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
    """`tables` draws a pass's keys at once; its rows must be `vector`'s."""

    def keys_by_dim(self, count: int, rng) -> dict[int, list[str]]:
        keys = ["", "é", "ünïcödé ☃ 🙂", "x" * 300, "#tag", "a b\tc"]
        keys += [f"tok{i}" for i in range(count)]
        dims = rng.choice([1, 2, 8, 33, 512], size=count, p=[0.3, 0.3, 0.25, 0.1, 0.05])
        out: dict[int, list[str]] = {}
        for dim in dims:
            out.setdefault(int(dim), []).append(keys[int(rng.integers(len(keys)))])
        return {dim: keys + keys[:10] for dim, keys in out.items()}  # repeated keys

    @staticmethod
    def stacked(provider, keys_by_dim) -> dict[int, np.ndarray]:
        """Reference: each dim's `vector` rows stacked, then a zero row."""
        return {dim: np.array([*(provider.vector(k, dim) for k in keys), np.zeros(dim)])
                for dim, keys in keys_by_dim.items()}

    def assert_tables_equal(self, got, want):
        assert list(got) == list(want)
        for dim in want:
            assert got[dim].dtype == want[dim].dtype == np.float64
            assert got[dim].shape == want[dim].shape, dim
            assert got[dim].tobytes() == want[dim].tobytes(), dim

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 31 - 1])
    def test_bitwise_equal_to_per_key_draws(self, seed):
        rng = np.random.default_rng(seed)
        provider = EmbeddingProvider(seed=seed)
        keys_by_dim = self.keys_by_dim(3400, rng)  # >= 10^4 keys over the three seeds
        self.assert_tables_equal(provider.tables(keys_by_dim),
                                 self.stacked(provider, keys_by_dim))

    @pytest.mark.parametrize("count", [0, 1, 2, 11, 12, 13])
    def test_both_sides_of_the_crossover(self, provider, draw_log, count):
        # The draw is chosen per dim: a dim of exactly one key is one
        # `vector` call, and a dim of none, two or many is one batch, whatever
        # the other dims hold. 11, 12 and 13 straddle the 12 keys per call at
        # which the path once switched; they batch like any count above one.
        keys = [f"k{i}" for i in range(count)]
        for keys_by_dim in ({3: keys},
                            {3: keys, 1: ["one"], 2: [], 5: ["a", "b"], 8: ["c"]}):
            draw_log.per_key.clear()
            got = provider.tables(keys_by_dim)
            assert draw_log.per_key == [(ks[0], dim) for dim, ks in keys_by_dim.items()
                                        if len(ks) == 1]
            self.assert_tables_equal(got, self.stacked(provider, keys_by_dim))

    def test_empty_dim_is_one_zero_row(self, provider):
        keys = [f"k{i}" for i in range(3)]
        for got in (provider.tables({4: []}), provider.tables({4: [], 2: keys})):
            assert got[4].shape == (1, 4) and not got[4].any()

    def test_every_digest_keys_its_stream(self):
        # a vector is 2u - 1 for the doubles u of the stream keyed by the
        # little-endian blake2b digest of seed:dim:key
        provider = EmbeddingProvider(seed=3)
        for key, dim in (("", 1), ("tok", 8), ("é", 5), ("img0", 600)):
            digest = hashlib.blake2b(f"3:{dim}:{key}".encode(), digest_size=8).digest()
            u = streams.floats(digest, dim)[0]
            assert provider.vector(key, dim).tobytes() == (2.0 * u - 1.0).tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40])
    def test_prefix_digests_equal_one_shot_digests(self, seed):
        keys = ["", ":", "a:b", "::x:", "é", "ünïcödé ☃ 🙂", "x" * 300, "tok1"]
        provider = EmbeddingProvider(seed=seed)
        for dim in (1, 8, 25088):
            want = b"".join(hashlib.blake2b(f"{seed}:{dim}:{key}".encode("utf-8"),
                                            digest_size=8).digest() for key in keys)
            assert streams.digests(provider._prefix(dim), keys) == want

    def test_bad_dim_raises_on_both_paths(self, provider):
        for keys in ([], ["k"], ["k", "j"]):
            with pytest.raises(ValueError, match="dim must be >= 1"):
                provider.tables({4: ["k", "j"], 0: keys})

    def test_precomputed_file(self, tmp_path, draw_log):
        for count in (1, 11, 24):  # per key at every count
            path = tmp_path / f"emb{count}.bin"
            stored = {f"k{i}": np.arange(4, dtype=np.float32) + i for i in range(count)}
            write_feature_file(path, stored)
            p = EmbeddingProvider(kind="precomputed_file", feature_path=str(path))
            keys_by_dim = {4: list(stored)[::-1] + list(stored)[:3]}
            draw_log.per_key.clear()
            got = p.tables(keys_by_dim)
            assert draw_log.per_key == [(k, 4) for k in keys_by_dim[4]]
            self.assert_tables_equal(got, self.stacked(p, keys_by_dim))
            got[4][:] = -1.0  # each result is its own copy
            assert np.array_equal(p.vector("k0", 4), np.arange(4.0))
            with pytest.raises(KeyError):
                p.tables({4: [*stored, "unknown"]})
