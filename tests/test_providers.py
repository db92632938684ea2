import re

import numpy as np
import pytest

from postpop.providers import (EmbeddingProvider, hashtag_embedding_matrix,
                               image_region_features, read_feature_file,
                               text_token_embeddings, tokenize,
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


class TestTextEmbeddings:
    def test_padding_and_mask(self, provider):
        mat, mask = text_token_embeddings("holi festival in madrid", 15, 8, provider)
        assert mat.shape == (15, 8) and mask.shape == (15,)
        assert np.all(mask[:4] == 1) and np.all(mask[4:] == 0)
        assert np.all(np.any(mat[:4] != 0, axis=1))
        assert np.all(mat[4:] == 0)

    def test_empty_caption(self, provider):
        mat, mask = text_token_embeddings("", 5, 4, provider)
        assert np.all(mat == 0) and np.all(mask == 0)

    def test_truncation_matches_token_slice(self, provider):
        words = [f"w{i}" for i in range(20)]
        mat, mask = text_token_embeddings(" ".join(words), 15, 6, provider)
        assert mat.shape == (15, 6) and np.all(mask == 1)
        expected = np.array([provider.vector(w, 6) for w in words[:15]])
        assert np.array_equal(mat, expected)

    def test_same_token_same_row(self, provider):
        mat, _ = text_token_embeddings("echo echo", 4, 8, provider)
        assert np.array_equal(mat[0], mat[1])


class TestImageFeatures:
    def test_determinism(self, provider):
        a = image_region_features("imgX", 7, 5, provider)
        b = image_region_features("imgX", 7, 5, provider)
        assert np.array_equal(a, b)

    def test_paper_default_shape(self, provider):
        mat = image_region_features("imgX", 49, 512, provider)
        assert mat.shape == (49, 512)

    def test_distinct_refs_differ(self, provider):
        a = image_region_features("imgA", 4, 4, provider)
        b = image_region_features("imgB", 4, 4, provider)
        assert np.any(a != b)


class TestHashtagMatrix:
    def test_padding(self, provider):
        mat, mask = hashtag_embedding_matrix(["a", "b", "c"], 60, 8, provider)
        assert mat.shape == (60, 8)
        assert mask.sum() == 3
        assert np.any(mat[:3] != 0) and np.all(mat[3:] == 0)

    def test_empty_list(self, provider):
        mat, mask = hashtag_embedding_matrix([], 10, 4, provider)
        assert np.all(mat == 0) and np.all(mask == 0)

    def test_truncation(self, provider):
        tags = [f"t{i}" for i in range(70)]
        mat, mask = hashtag_embedding_matrix(tags, 60, 4, provider)
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
        mat = image_region_features("img0", 3, 4, p)
        assert np.allclose(mat, np.arange(12).reshape(3, 4))

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
    def test_repeats_equal_fresh_draws(self, provider):
        p = provider.for_pass()
        for _ in range(2):
            assert np.array_equal(p.memo_vector("k", 8), provider.vector("k", 8))
            assert np.array_equal(p.memo_vector("k", 3), provider.vector("k", 3))

    def test_each_key_drawn_once(self, provider, monkeypatch):
        draws = []
        real = EmbeddingProvider.vector
        monkeypatch.setattr(EmbeddingProvider, "vector",
                            lambda self, key, dim: draws.append((key, dim))
                            or real(self, key, dim))
        p = provider.for_pass()
        text_token_embeddings("echo echo echo", 4, 8, p)
        hashtag_embedding_matrix(["echo", "x", "x"], 4, 8, p)
        assert draws == [("echo", 8), ("x", 8)]
        image_region_features("img", 2, 3, p)
        image_region_features("img", 2, 3, p)  # region matrices are not memoised
        assert draws[2:] == [("img", 6), ("img", 6)]
        provider.memo_vector("echo", 8)  # no memo outside a pass
        assert draws[-1] == ("echo", 8)

    def test_mutating_a_result_leaves_later_draws_unchanged(self, provider):
        p = provider.for_pass()
        first = p.memo_vector("k", 8)
        first[:] = 7.0
        assert np.array_equal(p.memo_vector("k", 8), provider.vector("k", 8))

    def test_precomputed_file_through_the_memo(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_feature_file(path, {"k": np.arange(4, dtype=np.float32)})
        stored = EmbeddingProvider(kind="precomputed_file", feature_path=str(path))
        p = stored.for_pass()
        p.memo_vector("k", 4)[:] = -1.0
        assert np.array_equal(p.memo_vector("k", 4), np.arange(4.0))
        assert np.array_equal(stored.vector("k", 4), np.arange(4.0))
        with pytest.raises(KeyError):
            p.memo_vector("unknown", 4)
