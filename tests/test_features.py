import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_post
from postpop import features
from postpop.data import FaceAnnotation
from postpop.features import (DEMOGRAPHIC_DIM, SentimentLexicon, SocialStats,
                              apply_pca, fit_pca,
                              sentiment_feature, sentiment_scores,
                              social_numerics, social_vector, time_segment)
from postpop.features import demographic_vector as batch_demographic_vector
from postpop.providers import tokenize


def demographic_vector(faces, mode="onehot"):
    """One post's row of the batched encoder."""
    return batch_demographic_vector([make_post(faces=faces)], mode)[0]


class TestDemographic:
    def test_single_face_offsets(self):
        # block layout 2/101/7/6: female=1, age 30 -> 2+30, happiness -> 103+2,
        # asian -> 110+2
        face = FaceAnnotation("female", 30, "happiness", "asian")
        v = demographic_vector([face])
        assert v.shape == (DEMOGRAPHIC_DIM,)
        on = set(np.nonzero(v)[0])
        assert on == {1, 32, 105, 112}
        assert np.all(v[list(on)] == 1.0)

    def test_no_faces_zero(self):
        assert np.array_equal(demographic_vector([]), np.zeros(116))

    def test_two_faces_shared_gender(self):
        faces = [FaceAnnotation("male", 20, "fear", "black"),
                 FaceAnnotation("male", 40, "neutral", "white")]
        v = demographic_vector(faces)
        assert v[0] == 1.0 and v[1] == 0.0
        assert v[2 + 20] == 0.5 and v[2 + 40] == 0.5

    def test_block_sums_per_face_average(self, rng):
        faces = [FaceAnnotation("female", int(rng.integers(0, 101)),
                                "surprise", "indian") for _ in range(3)]
        v = demographic_vector(faces)
        assert abs(v[:2].sum() - 1.0) < 1e-12
        assert abs(v[2:103].sum() - 1.0) < 1e-12
        assert abs(v[103:110].sum() - 1.0) < 1e-12
        assert abs(v[110:116].sum() - 1.0) < 1e-12
        assert np.all(v >= 0) and np.all(v <= 1)

    def test_permutation_invariance(self):
        faces = [FaceAnnotation("male", 10, "anger", "latino"),
                 FaceAnnotation("female", 60, "happiness", "asian"),
                 FaceAnnotation("female", 33, "disgust", "white")]
        assert np.allclose(demographic_vector(faces),
                           demographic_vector(faces[::-1]))

    def test_ordinal_mode(self):
        face = FaceAnnotation("female", 30, "happiness", "asian")
        v = demographic_vector([face], mode="ordinal")
        assert np.array_equal(v, [1.0, 30.0, 2.0, 2.0])
        assert demographic_vector([], mode="ordinal").shape == (4,)
        with pytest.raises(ValueError, match="unknown demographic mode 'binary'"):
            demographic_vector([face], mode="binary")

    @pytest.mark.parametrize("mode", ["onehot", "ordinal"])
    def test_batch_rows_equal_per_face_means(self, mode):
        # no faces, one face, two faces, and three faces sharing an index
        f = [FaceAnnotation("female", 30, "happiness", "asian"),
             FaceAnnotation("male", 77, "fear", "black"),
             FaceAnnotation("female", 30, "neutral", "asian")]
        face_lists = [(), (f[0],), (f[0], f[1]), tuple(f), ()]
        batch = batch_demographic_vector([make_post(faces=fs) for fs in face_lists], mode)
        assert batch.shape == (5, DEMOGRAPHIC_DIM if mode == "onehot" else 4)
        for row, faces in zip(batch, face_lists):
            one = [demographic_vector([face], mode) for face in faces]
            expected = np.mean(one, axis=0) if one else np.zeros(batch.shape[1])
            assert np.array_equal(row, expected)
        if mode == "ordinal":  # female 1, happiness 2, fear 0, neutral 6, asian 2, black 0
            assert np.array_equal(batch[3], [2 / 3, (30 + 77 + 30) / 3, 8 / 3, 4 / 3])
        else:
            assert batch[3, 2 + 30] == 2 / 3 and batch[3, 2 + 77] == 1 / 3


@pytest.fixture(scope="module")
def lexicon():
    return SentimentLexicon.bundled()


def scores(text, lexicon):
    return sentiment_scores([tokenize(text)], lexicon)[0]


def one_post_sentiment(post, lexicon):
    """(caption_dist, hashtag_dist) of one post, (5,) each."""
    caption, hashtags = sentiment_feature([post], [tokenize(post.caption)], lexicon)
    return caption[0], hashtags[0]


class TestSentiment:
    def test_no_hits_uniform(self, lexicon):
        assert np.allclose(scores("zxqv qqq", lexicon), 0.2)
        assert np.allclose(scores("", lexicon), 0.2)

    def test_bundled_instances_own_their_tables(self):
        # the file is parsed once per process; mutating one instance's
        # table must not reach a later `bundled()` or an earlier one
        first = SentimentLexicon.bundled()
        want = dict(first.table)
        changed = SentimentLexicon.bundled()
        assert changed.table is not first.table
        changed.table["amazing"] = 0
        changed.table["zxqv"] = 4
        del changed.table[next(iter(want))]
        assert first.table == want
        assert SentimentLexicon.bundled().table == want
        assert SentimentLexicon.bundled().table == SentimentLexicon.from_file(
            Path(features.__file__).parent / "assets" / "sentiment_lexicon.tsv").table

    def test_single_class4_hit_argmax(self, lexicon):
        out = scores("what an amazing day", lexicon)
        assert np.argmax(out) == 4

    def test_hand_tally_with_smoothing(self):
        lex = SentimentLexicon({"bleak": 0, "grim": 0, "stellar": 4})
        with pytest.raises(ValueError, match=r"^class 5 for 'nova' outside 0\.\.4$"):
            SentimentLexicon({"bleak": 0, "nova": 5})
        out = scores("bleak grim and stellar", lex)
        assert np.array_equal(out, np.array([3, 1, 1, 1, 2]) / 8.0)
        # a batch of token lists: each row is its own list's distribution
        batch = sentiment_scores([["bleak"], [], ["stellar", "stellar", "bleak"]], lex)
        assert np.array_equal(batch, np.array([[2, 1, 1, 1, 1], [1, 1, 1, 1, 1],
                                               [2, 1, 1, 1, 3]]) / [[6], [5], [8]])

    def test_bitwise_equal_to_counting_one_hit_at_a_time(self, lexicon, rng):
        words = list(lexicon.table)[:40] + ["zxqv", "qqq", ""]
        lists = [list(rng.choice(words, size=int(rng.integers(0, 30))))
                 for _ in range(25)] + [[]]
        want = []
        for tokens in lists:
            row = [1.0] * 5
            for token in tokens:
                if token in lexicon.table:
                    row[lexicon.table[token]] += 1.0
            want.append(np.array(row) / sum(row))
        got = sentiment_scores(lists, lexicon)
        assert got.tobytes() == np.array(want).tobytes()
        assert sentiment_scores([], lexicon).shape == (0, 5)

    def test_simplex(self, lexicon, rng):
        words = list(lexicon.table)
        for _ in range(10):
            text = " ".join(rng.choice(words, size=rng.integers(0, 8)))
            out = scores(text, lexicon)
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out >= 0)

    def test_feature_dims_and_blocks(self, lexicon):
        post = make_post(caption="wonderful sunset", hashtags=("awful", "grim"))
        caption, hashtags = one_post_sentiment(post, lexicon)
        assert caption.shape == hashtags.shape == (5,)

    def test_disjoint_hits_differ(self, lexicon):
        post = make_post(caption="wonderful amazing", hashtags=("awful",))
        caption, hashtags = one_post_sentiment(post, lexicon)
        assert not np.allclose(caption, hashtags)

    def test_empty_post_two_uniform_blocks(self, lexicon):
        post = make_post(caption="", hashtags=())
        caption, hashtags = one_post_sentiment(post, lexicon)
        assert np.allclose(caption, 0.2) and np.allclose(hashtags, 0.2)

    def test_bundled_lexicon_size(self, lexicon):
        assert len(lexicon) >= 150
        assert set(lexicon.table.values()) == {0, 1, 2, 3, 4}


class TestSocial:
    def test_time_segments(self):
        assert time_segment(14) == 2  # afternoon under 0-5/6-11/12-17/18-23
        assert time_segment(0) == 0
        assert time_segment(23) == 3
        with pytest.raises(ValueError):
            time_segment(24)

    def test_vector_layout(self):
        posts = [make_post(post_id=f"p{i}", comment_count=i,
                           post_duration_days=float(i)) for i in range(5)]
        stats = SocialStats.fit(social_numerics(posts))
        post = make_post(post_day=0, post_month=3, post_hour=14,
                         post_duration_days=12.5)
        v = social_vector([post], stats)[0]
        assert v.shape == (33,)
        day = v[9:16]
        month = v[16:28]
        seg = v[28:32]
        assert day[0] == 1.0 and day.sum() == 1.0
        assert month[3] == 1.0 and month.sum() == 1.0
        assert np.array_equal(seg, [0, 0, 1, 0])
        assert v[32] == (12.5 - stats.mean[9]) / stats.std[9]

    def test_determinism(self):
        posts = [make_post(post_id=f"p{i}", avg_views=10.0 * i) for i in range(4)]
        stats = SocialStats.fit(social_numerics(posts))
        a = social_vector(posts[1:2], stats)
        b = social_vector(posts[1:2], stats)
        assert np.array_equal(a, b)

    def test_zscoring_uses_training_stats(self):
        posts = [make_post(post_id=f"p{i}", comment_count=c)
                 for i, c in enumerate([0, 10, 20, 30])]
        stats = SocialStats.fit(social_numerics(posts))
        rows = social_vector(posts, stats)
        assert np.array_equal(rows, [social_vector([p], stats)[0] for p in posts])
        comment_col = rows[:, 8]
        assert abs(comment_col.mean()) < 1e-12
        assert abs(comment_col.std() - 1.0) < 1e-12

    def test_user_hash_in_unit_interval(self):
        for uid in ("alice", "bob", "u123"):
            v = social_numerics([make_post(user_id=uid)])
            assert v.shape == (1, 10) and 0.0 <= v[0, 0] < 1.0

    @pytest.mark.parametrize("overflowing", [1, 2])
    def test_overflowing_column_named(self, overflowing):
        # one value of 1e308 overflows the column's std; two overflow its mean
        posts = [make_post(post_id=f"p{i}", avg_views=1e308 if i < overflowing else 1.0)
                 for i in range(5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="'avg_views' overflows float64"):
                SocialStats.fit(social_numerics(posts))


def reconstruct(model, coords):
    """Inverse PCA map from component coordinates back to the data space."""
    return model.mean + coords @ model.components


class TestPCA:
    def test_rank1_line(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=40)
        rows = np.stack([t, 2 * t], axis=1)
        model = fit_pca(rows, k=2)
        direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
        first = model.components[0]
        assert min(np.linalg.norm(first - direction),
                   np.linalg.norm(first + direction)) < 1e-8
        assert model.explained_variance[1] < 1e-12

    def test_full_rank_variance_complete(self, rng):
        rows = rng.normal(size=(30, 5))
        model = fit_pca(rows, k=5)
        total = np.trace(np.cov(rows, rowvar=False, ddof=1))
        assert abs(model.explained_variance.sum() - total) < 1e-8

    def test_matches_eigendecomposition_oracle(self, rng):
        rows = rng.normal(size=(20, 8))
        cov = np.cov(rows, rowvar=False, ddof=1)
        evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        for k in (1, 3, 8):
            model = fit_pca(rows, k=k)
            assert np.allclose(model.explained_variance, evals[:k], atol=1e-6)

    def test_reconstruction_error_non_increasing(self, rng):
        rows = rng.normal(size=(20, 8))
        errs = []
        for k in range(1, 9):
            model = fit_pca(rows, k=k)
            rec = np.array([reconstruct(model, apply_pca(model, r)) for r in rows])
            errs.append(np.sum((rows - rec) ** 2))
        assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))

    def test_orthonormal_components(self, rng):
        model = fit_pca(rng.normal(size=(25, 6)), k=4)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_projected_variance_equals_explained(self, rng):
        rows = rng.normal(size=(40, 7))
        model = fit_pca(rows, k=4)
        proj = np.array([apply_pca(model, r) for r in rows])
        emp = proj.var(axis=0, ddof=1)
        assert np.allclose(emp, model.explained_variance, atol=1e-6)

    def test_mean_maps_to_zero(self, rng):
        rows = rng.normal(size=(10, 4))
        model = fit_pca(rows, k=2)
        assert np.allclose(apply_pca(model, model.mean), 0.0, atol=1e-12)

    def test_in_span_round_trip(self, rng):
        basis = rng.normal(size=(2, 6))
        coords = rng.normal(size=(15, 2))
        rows = coords @ basis + 3.0
        model = fit_pca(rows, k=2)
        v = rows[4]
        assert np.allclose(reconstruct(model, apply_pca(model, v)), v, atol=1e-8)

    def test_k_out_of_range(self, rng):
        rows = rng.normal(size=(5, 3))
        with pytest.raises(ValueError):
            fit_pca(rows, k=5)  # k > n-1
        with pytest.raises(ValueError):
            fit_pca(rows, k=0)

    def test_degenerate_identical_rows(self):
        rows = np.tile(np.array([1.0, 2.0, 3.0]), (6, 1))
        model = fit_pca(rows, k=2)
        assert np.allclose(model.explained_variance, 0.0, atol=1e-12)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(2), atol=1e-8)

    def test_dimension_mismatch(self, rng):
        model = fit_pca(rng.normal(size=(8, 4)), k=2)
        with pytest.raises(ValueError):
            apply_pca(model, np.zeros(5))
        with pytest.raises(ValueError, match=r"rows must be 2-D, got shape \(8,\)"):
            fit_pca(np.zeros(8), k=1)
