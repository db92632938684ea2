import dataclasses
import warnings

import numpy as np
import pytest
import scipy.stats

from conftest import make_post, pass_requests, tiny_config
import postpop.training as training_mod
from postpop.corpora import make_linear_social_corpus, make_sample_corpus
from postpop.data import Dataset, split_dataset
from postpop.model import (BRANCHES, ModelConfig, build_caches, extract_dataset,
                           init_model_params)
from postpop.numeric import uniform_param
from postpop.providers import tokenize
from postpop.training import (SCORE_BATCH, AdamState, Checkpoint, TrainConfig,
                              TrainingDivergedError, ablate,
                              adam_step, apply_variant, compute_metrics,
                              correlate_features, evaluate, pearson, spearman, train)


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self, rng):
        store = {"w": uniform_param(rng, (3, 2))}
        before = store["w"].copy()
        state = AdamState()
        adam_step(store, {"w": np.zeros((3, 2))}, state, lr=0.1)
        assert np.array_equal(store["w"], before)
        assert state.step == 1

    def test_first_step_scalar_oracle(self):
        # m1 = 0.1 g, v1 = 0.001 g^2; bias correction recovers g and g^2,
        # so the first update is -lr * g / (|g| + eps)
        store = {"w": np.array([2.0])}
        g = np.array([0.5])
        adam_step(store, {"w": g}, AdamState(), lr=0.01)
        expected = 2.0 - 0.01 * 0.5 / (0.5 + 1e-8)
        assert abs(store["w"][0] - expected) < 1e-12

    def test_trajectory_determinism(self, rng):
        def run():
            store = {"w": uniform_param(np.random.default_rng(0), (4,))}
            state = AdamState()
            for step in range(20):
                g = np.sin(np.arange(4.0) + step)
                adam_step(store, {"w": g}, state, lr=1e-3)
            return store["w"]
        assert np.array_equal(run(), run())

    def test_shape_mismatch(self, rng):
        store = {"w": uniform_param(rng, (3,)), "b": uniform_param(rng, (2,))}
        before = {name: arr.copy() for name, arr in store.items()}
        state = AdamState()
        with pytest.raises(ValueError, match="mismatch for b"):
            adam_step(store, {"w": np.ones(3), "b": np.zeros(4)}, state, lr=0.1)
        # nothing moved: the shapes are checked before any update
        assert state.step == 0 and state.m is None
        assert all(np.array_equal(store[n], before[n]) for n in store)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_flat_update_bitwise_equal_to_per_parameter_loop(self, dtype):
        def reference_step(params, grads, state, lr, b1=0.9, b2=0.999, eps=1e-8):
            # the per-parameter update, one array at a time
            state["t"] += 1
            t = state["t"]
            for name in params:
                g = grads[name]
                m = state.setdefault("m", {}).get(name, np.zeros_like(g))
                v = state.setdefault("v", {}).get(name, np.zeros_like(g))
                state["m"][name] = m = b1 * m + (1 - b1) * g
                state["v"][name] = v = b2 * v + (1 - b2) * g * g
                m_hat = m / (1 - b1 ** t)
                v_hat = v / (1 - b2 ** t)
                params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)

        shapes = {"w": (3, 2), "one": (1,), "cube": (2, 1, 3), "b": (5,), "zero": (40,)}
        init = np.random.default_rng(0)
        store = {name: uniform_param(init, shape, dtype=dtype)
                 for name, shape in shapes.items()}
        store["zero"][:] = 0  # its first step is the update itself, every bit of it
        reference = {name: store[name].copy() for name in shapes}
        state, ref_state = AdamState(), {"t": 0}
        draw = np.random.default_rng(1)
        for _ in range(3):
            grads = {name: draw.normal(size=shape).astype(dtype)
                     for name, shape in shapes.items()}
            adam_step(store, grads, state, lr=1e-2)
            reference_step(reference, grads, ref_state, lr=1e-2)
        assert state.step == 3
        for name in shapes:
            assert store[name].dtype == dtype
            assert store[name].tobytes() == reference[name].tobytes(), name
        assert state.m.tobytes() == np.concatenate(
            [ref_state["m"][n].ravel() for n in shapes]).tobytes()


class TestCorrelations:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, x) == pytest.approx(1.0)
        assert pearson(x, x) == pytest.approx(1.0)

    def test_negation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, -x) == pytest.approx(-1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_square_map_hand_covariance(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 4.0, 9.0, 16.0])
        assert spearman(x, y) == pytest.approx(1.0)
        # hand arithmetic: cov = 25, ss_x = 5, ss_y = 129
        assert pearson(x, y) == pytest.approx(25.0 / np.sqrt(5.0 * 129.0))

    def test_ties_use_average_ranks(self):
        x = np.array([1.0, 1.0, 2.0])
        y = np.array([3.0, 3.0, 5.0])
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected)

    @staticmethod
    def loop_rank_average(x):
        """Reference: walk the stably sorted values, extending each group of
        ties while the next value == the group's first."""
        order = np.argsort(x, kind="stable")
        ranks = np.empty(len(x), dtype=np.float64)
        i = 0
        while i < len(x):
            j = i
            while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
                j += 1
            ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return ranks

    @pytest.mark.parametrize("x", [
        [1.0, 1.0, 2.0], [3.0] * 7, [2.0, np.nan, 1.0, np.nan, 2.0], [np.nan] * 3,
        [0.0, -0.0, 0.0, 1.0, -0.0], [5.0], [2.0, 1.0], [1.0, 1.0], [np.inf, -np.inf, np.inf],
        [], list(np.random.default_rng(3).integers(0, 4, size=40) / 2.0),
    ])
    def test_rank_average_bitwise_equals_loop(self, x):
        x = np.array(x, dtype=np.float64)
        got = training_mod._rank_average(x)
        assert got.tobytes() == self.loop_rank_average(x).tobytes()

    def test_rank_average_on_random_ties(self, rng):
        for n in range(1, 60, 3):
            x = rng.integers(0, max(1, n // 3), size=n).astype(np.float64)
            x[rng.random(n) < 0.1] = np.nan
            assert (training_mod._rank_average(x).tobytes()
                    == self.loop_rank_average(x).tobytes())

    def test_matches_scipy_on_random_data(self, rng):
        for _ in range(20):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            assert spearman(x, y) == pytest.approx(
                scipy.stats.spearmanr(x, y).statistic, abs=1e-12)
            assert pearson(x, y) == pytest.approx(
                scipy.stats.pearsonr(x, y).statistic, abs=1e-12)

    def test_zero_variance_nan(self):
        assert np.isnan(pearson(np.ones(4), np.arange(4.0)))
        assert np.isnan(spearman(np.ones(4), np.arange(4.0)))

    def test_length_errors(self):
        for corr in (pearson, spearman):
            with pytest.raises(ValueError, match="needs length >= 2"):
                corr(np.ones(1), np.ones(1))
            with pytest.raises(ValueError, match="needs two equal-length vectors"):
                corr(np.ones(3), np.ones(4))

    def test_monotone_invariance(self, rng):
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x ** 3 + 2 * x, y) == pytest.approx(base, abs=1e-12)


class TestMetrics:
    def test_perfect_predictions(self):
        t = np.array([1.0, 2.0, 3.0])
        m = compute_metrics(t, t)
        assert m.mse == 0.0 and m.mae == 0.0
        assert m.srcc == pytest.approx(1.0) and m.pcc == pytest.approx(1.0)

    def test_eval_mse_uses_plain_mean(self):
        m = compute_metrics(np.array([1.0, 3.0]), np.array([2.0, 5.0]))
        assert m.mse == pytest.approx(2.5)
        assert m.mae == pytest.approx(1.5)

    def test_monotone_transform_srcc_one_pcc_below(self):
        t = np.array([0.5, 1.0, 2.0, 3.5, 5.0])
        preds = np.exp(t)  # strictly increasing, nonlinear
        m = compute_metrics(preds, t)
        assert m.srcc == pytest.approx(1.0)
        assert m.pcc < 1.0

    def test_empty_prediction_set_raises_value_error(self):
        with pytest.raises(ValueError, match="empty prediction set"):
            compute_metrics(np.array([]), np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        for preds, targets in (([1.0, bad, 2.0], [1.0, 2.0, 3.0]),
                               ([1.0, 2.0, 3.0], [bad, bad, 3.0])):
            with pytest.raises(ValueError, match="non-finite"):
                compute_metrics(np.array(preds), np.array(targets))

    @pytest.mark.parametrize("preds, targets", [
        ([1e308, -1e308], [0.0, 0.0]),  # the square overflows
        ([1e200, 0.0], [0.0, 0.0]),
        ([1e308, 0.0], [-1e308, 0.0]),  # the difference overflows
    ])
    def test_overflowing_error_raises_naming_the_metric(self, preds, targets):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning
            with pytest.raises(ValueError, match="MSE over 2 prediction"):
                compute_metrics(np.array(preds), np.array(targets))

    def test_large_equal_magnitude_errors(self):
        # |err| = 1e8 + 259 everywhere, so MAE**2 equals MSE up to rounding
        # of a 1e16-sized square, far above any fixed absolute slack
        c = 100000259.0
        m = compute_metrics(np.array([c, -c]), np.zeros(2))
        assert m.mae == c
        assert m.mse == pytest.approx(c * c, rel=1e-15)

    def test_jensen_bound(self, rng):
        for _ in range(10):
            preds = rng.normal(size=8)
            targets = rng.normal(size=8)
            m = compute_metrics(preds, targets)
            assert m.mae ** 2 <= m.mse + 1e-12


def small_social_config(**over):
    base = dict(pca_k=6, use_content=False, use_hashtags=False,
                use_demographics=False, use_sentiment_text=False,
                use_sentiment_hashtags=False,
                **{f"{n}_channels": (4, 4, 4) for n in BRANCHES},
                head_sizes=(16, 8, 1))
    base.update(over)
    return tiny_config(**base)


class TestTrainLoop:
    def test_linear_social_signal_halves_val_mse(self):
        # frozen during development: ratio ~0.14 for this seed combination
        ds = make_linear_social_corpus(n=200, seed=3)
        tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        tc = TrainConfig(learning_rate=1e-2, batch_size=20, max_epochs=30,
                         patience=30, dropout=0.0, seed=0, init_scale=0.3)
        result = train(tr, va, small_social_config(), tc)
        first = result.history[0][2]
        best = min(r[2] for r in result.history)
        assert best <= 0.5 * first

    def test_patience_exhaustion_stops_early(self, monkeypatch):
        # freeze parameters after epoch 1's updates: val MSE never improves
        # again, so training halts at epoch 1 + patience
        ds = make_sample_corpus(n=40, seed=2)
        tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        batches_per_epoch = -(-len(tr) // 10)
        real_step = training_mod.adam_step
        calls = {"n": 0}

        def frozen_after_first_epoch(params, grads, state, lr, **kw):
            calls["n"] += 1
            if calls["n"] <= batches_per_epoch:
                return real_step(params, grads, state, lr, **kw)
            state.step += 1
            return state

        monkeypatch.setattr(training_mod, "adam_step", frozen_after_first_epoch)
        tc = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=30,
                         patience=3, dropout=0.0, seed=1, init_scale=0.3)
        result = train(tr, va, small_social_config(), tc)
        assert len(result.history) == 1 + 3

    def test_history_bounded_by_max_epochs(self):
        ds = make_sample_corpus(n=30, seed=4)
        tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        tc = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=4,
                         patience=4, dropout=0.1, seed=0, init_scale=0.3)
        result = train(tr, va, small_social_config(), tc)
        assert len(result.history) <= 4

    def test_best_checkpoint_val_mse_not_worse_than_final(self):
        ds = make_linear_social_corpus(n=100, seed=5)
        tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        tc = TrainConfig(learning_rate=3e-2, batch_size=20, max_epochs=8,
                         patience=8, dropout=0.0, seed=0, init_scale=0.3)
        result = train(tr, va, small_social_config(), tc)
        best_val = evaluate(result.checkpoint, va).mse
        assert best_val <= result.history[-1][2] + 1e-12
        assert best_val == pytest.approx(min(r[2] for r in result.history))

    def test_bitwise_reproducibility(self):
        ds = make_sample_corpus(n=40, seed=6)
        tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        tc = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=3,
                         patience=3, dropout=0.2, seed=11, init_scale=0.3)
        r1 = train(tr, va, small_social_config(), tc)
        r2 = train(tr, va, small_social_config(), tc)
        assert r1.history == r2.history
        for name, arr in r1.checkpoint.params.items():
            assert np.array_equal(arr, r2.checkpoint.params[name]), name

    def test_non_finite_loss_raises(self):
        ds = make_sample_corpus(n=40, seed=13)
        tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        tc = TrainConfig(learning_rate=1e150, batch_size=10, max_epochs=2,
                         patience=2, dropout=0.0, seed=0, init_scale=0.3)
        with pytest.raises(TrainingDivergedError, match="batch loss nan"):
            train(tr, va, small_social_config(), tc)

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_overflowing_popularity_names_the_post(self, split):
        # its squared error overflows float64: a data error naming the post,
        # raised before any numpy arithmetic can warn
        ds = make_sample_corpus(n=40, seed=13)
        splits = dict(zip(("train", "val"), split_dataset(ds, (0.8, 0.1, 0.1), seed=0)))
        post = splits[split].posts[1]
        splits[split] = Dataset(tuple(dataclasses.replace(p, popularity=1e308)
                                      if p is post else p for p in splits[split].posts))
        tc = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=1,
                         patience=1, dropout=0.0, seed=0, init_scale=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"post {post.post_id}: popularity "
                                                 r"1e\+308 is too large") as info:
                train(splits["train"], splits["val"], small_social_config(), tc)
        assert not isinstance(info.value, TrainingDivergedError)

    def test_non_finite_val_mse_raises(self, monkeypatch):
        ds = make_sample_corpus(n=40, seed=13)
        tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        monkeypatch.setattr(training_mod, "_predictions",
                            lambda batch, params, config: np.full(len(batch.target), np.inf))
        tc = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=2,
                         patience=2, dropout=0.0, seed=0, init_scale=0.3)
        with pytest.raises(TrainingDivergedError, match="validation MSE inf"):
            train(tr, va, small_social_config(), tc)

    def test_each_key_drawn_once_across_splits(self, draw_log):
        # train and val are featurized in one pass: a token, or a hashtag the
        # graph lacks, that the two splits share is drawn once, and so is
        # each post's image
        cfg = tiny_config()
        ds = make_sample_corpus(n=40, seed=2)
        tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        words = lambda split: {w for p in split.posts for w in tokenize(p.caption)}
        assert words(tr) & words(va)
        caches = build_caches(tr.posts, cfg)
        draw_log.drawn.clear()
        tc = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=1,
                         patience=1, dropout=0.0, seed=0, init_scale=0.3)
        train(tr, va, cfg, tc, caches=caches)
        assert len(draw_log.drawn) == len(set(draw_log.drawn)) > 0
        assert set(draw_log.drawn) == set(pass_requests(tr.posts + va.posts, cfg, caches))

    def test_empty_split_rejected(self):
        ds = make_sample_corpus(n=10, seed=0)
        with pytest.raises(ValueError):
            train(Dataset(()), ds, small_social_config(), TrainConfig())

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=10, max_epochs=5)

    @pytest.mark.parametrize("bad", [
        {"batch_size": 0}, {"batch_size": -3}, {"max_epochs": 0, "patience": 0},
        {"patience": 0}, {"learning_rate": 0.0}, {"learning_rate": -1e-3},
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
        {"dropout": 1.0}, {"dropout": 1.5}, {"dropout": -0.1},
        {"dropout": float("nan")}, {"init_scale": 0.0}, {"init_scale": -0.3},
        {"init_scale": float("nan")}, {"init_scale": float("inf")},
        {"batch_size": 2.0}, {"seed": 1.5}, {"max_epochs": True}, {"dropout": True},
        {"learning_rate": "0.1"},
    ])
    def test_nonsense_hyperparameters_rejected(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


class TestEvaluate:
    def test_empty_dataset_rejected(self):
        ds = make_sample_corpus(n=30, seed=4)
        tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        tc = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=2,
                         patience=2, dropout=0.0, seed=0, init_scale=0.3)
        result = train(tr, va, small_social_config(), tc)
        with pytest.raises(ValueError):
            evaluate(result.checkpoint, Dataset(()))

    def test_non_finite_predictions_name_the_posts(self):
        ds = make_sample_corpus(n=30, seed=4)
        tr, va, te = split_dataset(ds, (0.6, 0.2, 0.2), seed=0)
        tc = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=1,
                         patience=1, dropout=0.0, seed=0, init_scale=0.3)
        checkpoint = train(tr, va, small_social_config(), tc).checkpoint
        checkpoint.params["head.dense2.b"][0] = np.nan  # every prediction is NaN
        with pytest.raises(ValueError) as err:
            evaluate(checkpoint, te)
        ids = [p.post_id for p in te.posts]
        message = str(err.value)
        assert f"{len(ids)} of {len(ids)} prediction(s) are not finite" in message
        assert all(i in message for i in ids[:5])
        assert not any(i in message for i in ids[5:]) and "..." in message
        one = Dataset(te.posts[:1])
        with pytest.raises(ValueError, match=f"1 of 1 .*posts {ids[0]}\\)"):
            evaluate(checkpoint, one)

    def test_overflowing_lstm_weights_raise_no_runtime_warning(self):
        # every LSTM pre-activation overflows: the saturated gates still give
        # finite predictions, scored without a numpy warning
        cfg = tiny_config()
        ds = make_sample_corpus(n=20, seed=6)
        params = init_model_params(cfg, seed=1, scale=0.3)
        params["lstm.Wx"][...] = 1e300
        checkpoint = Checkpoint(params=params, config=cfg,
                                caches=build_caches(ds.posts, cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            metrics = evaluate(checkpoint, ds)
        assert metrics.n == len(ds) and np.isfinite(metrics.mse)


    def chunked_checkpoint(self):
        cfg = tiny_config()
        ds = make_sample_corpus(n=2 * SCORE_BATCH + 7, seed=6)
        caches = build_caches(ds.posts, cfg)
        params = init_model_params(cfg, seed=1, scale=0.3)
        return Checkpoint(params=params, config=cfg, caches=caches), ds

    def test_scores_one_chunk_at_a_time(self, monkeypatch):
        checkpoint, ds = self.chunked_checkpoint()
        cfg, params = checkpoint.config, checkpoint.params
        whole = extract_dataset(ds, checkpoint.caches, cfg)
        expected = compute_metrics(training_mod._predictions(whole, params, cfg),
                                   ds.popularity())
        sizes = []
        real = training_mod.extract_features
        monkeypatch.setattr(training_mod, "extract_features",
                            lambda d, c, m: sizes.append(len(d)) or real(d, c, m))
        got = evaluate(checkpoint, ds)
        assert sizes == [SCORE_BATCH, SCORE_BATCH, 7]
        assert repr(got.to_dict()) == repr(expected.to_dict())  # bitwise

    def test_non_finite_posts_named_across_chunks(self, monkeypatch):
        checkpoint, ds = self.chunked_checkpoint()
        ids = [p.post_id for p in ds.posts]
        bad = {ids[i] for i in (3, 70, 71, 130, 131, 132)}  # in all three chunks
        real = training_mod.forward_bundle

        def forward(batch, *args):
            preds, cache = real(batch, *args)
            return np.where(np.isin(batch.post_id, list(bad)), np.nan, preds), cache

        monkeypatch.setattr(training_mod, "forward_bundle", forward)
        with pytest.raises(ValueError) as err:
            evaluate(checkpoint, ds)
        message = str(err.value)
        assert f"6 of {len(ds)} prediction(s) are not finite" in message
        shown = [ids[i] for i in (3, 70, 71, 130, 131)]
        assert f"(posts {', '.join(shown)}, ...)" in message


class TestCorrelateFeatures:
    def corpus_popularity_equals_tag_count(self):
        rng = np.random.default_rng(0)
        posts = []
        for i in range(40):
            tags = tuple(f"t{j}" for j in range(rng.integers(0, 6)))
            posts.append(make_post(
                post_id=f"p{i:03d}", caption="one two", hashtags=tags,
                popularity=float(len(tags)),
                comment_count=int(rng.integers(0, 50))))
        return Dataset(tuple(posts))

    def test_tag_count_srcc_one(self):
        ds = self.corpus_popularity_equals_tag_count()
        table = dict(correlate_features(ds, config=tiny_config()))
        assert table["tag_count"] == pytest.approx(1.0)

    def test_constant_feature_flagged_nan(self):
        ds = self.corpus_popularity_equals_tag_count()
        table = dict(correlate_features(ds, config=tiny_config()))
        assert np.isnan(table["tagged_people"])  # constant 0 in make_post default

    def test_independent_feature_small_correlation(self):
        rng = np.random.default_rng(1)
        posts = [make_post(post_id=f"p{i:03d}",
                           comment_count=int(rng.integers(0, 1000)),
                           popularity=float(rng.normal()))
                 for i in range(200)]
        table = dict(correlate_features(Dataset(tuple(posts)),
                                        config=tiny_config()))
        srcc = table["comment_count"]
        # permutation oracle: null distribution of |SRCC| at n=200
        y = np.array([p.popularity for p in posts])
        x = np.array([p.metadata.comment_count for p in posts], dtype=float)
        null = []
        for _ in range(200):
            null.append(abs(spearman(x, rng.permutation(y))))
        assert abs(srcc) < 0.3
        assert abs(srcc) <= np.quantile(null, 0.999) + 0.05

    def test_featurizes_one_chunk_at_a_time(self, monkeypatch):
        cfg = tiny_config()
        ds = make_sample_corpus(n=150, seed=6)
        caches = build_caches(ds.posts, cfg)
        monkeypatch.setattr(training_mod, "SCORE_BATCH", len(ds) + 1)
        whole = correlate_features(ds, caches, cfg)
        monkeypatch.undo()
        sizes = []
        real = training_mod.extract_features
        monkeypatch.setattr(training_mod, "extract_features",
                            lambda d, c, m: sizes.append(len(d)) or real(d, c, m))
        got = correlate_features(ds, caches, cfg)
        assert max(sizes) <= SCORE_BATCH and sum(sizes) == len(ds)
        assert repr(got) == repr(whole)  # bitwise, NaNs included


class TestAblate:
    def test_single_variant_one_row_per_seed(self):
        ds = make_linear_social_corpus(n=80, seed=9)
        tc = TrainConfig(learning_rate=1e-2, batch_size=20, max_epochs=2,
                         patience=2, dropout=0.0, seed=0, init_scale=0.3)
        report = ablate(ds, small_social_config(), tc, ["full"], seeds=[0])
        assert len(report.rows) == 1
        assert report.rows[0].variant == "full"

    def test_identical_variant_rows_identical(self):
        ds = make_linear_social_corpus(n=80, seed=9)
        tc = TrainConfig(learning_rate=1e-2, batch_size=20, max_epochs=2,
                         patience=2, dropout=0.0, seed=0, init_scale=0.3)
        report = ablate(ds, small_social_config(), tc, ["full", "full"], seeds=[3])
        a, b = report.rows
        assert (a.val_mse, a.val_mae, a.test_mse, a.test_mae) == \
               (b.val_mse, b.val_mae, b.test_mse, b.test_mae)

    def test_row_order_matches_variant_order(self):
        ds = make_linear_social_corpus(n=80, seed=9)
        tc = TrainConfig(learning_rate=1e-2, batch_size=20, max_epochs=1,
                         patience=1, dropout=0.0, seed=0, init_scale=0.3)
        cfg = small_social_config(use_content=True, m=4, d=4, a=4, n=4, k=3)
        report = ablate(ds, cfg, tc, ["na", "full"], seeds=[0])
        assert [r.variant for r in report.rows] == ["na", "full"]

    def test_one_cache_fit_per_seed(self, monkeypatch):
        ds = make_linear_social_corpus(n=80, seed=9)
        tc = TrainConfig(learning_rate=1e-2, batch_size=20, max_epochs=1,
                         patience=1, dropout=0.0, seed=0, init_scale=0.3)
        fits = []

        def spy(posts, config, **kwargs):
            fits.append(config)
            return build_caches(posts, config, **kwargs)

        monkeypatch.setattr(training_mod, "build_caches", spy)
        seeds = [0, 1, 2]
        variants = ["full", "no_demographics"]
        cfg = small_social_config(use_demographics=True)
        report = ablate(ds, cfg, tc, variants, seeds=seeds)
        assert len(fits) == len(seeds)
        assert [(r.variant, r.seed) for r in report.rows] == \
               [(v, s) for v in variants for s in seeds]

    def test_empty_split_rejected_before_any_fit(self, monkeypatch):
        # four posts at 20% leave the training split empty
        monkeypatch.setattr(training_mod, "build_caches", None)
        tc = TrainConfig(max_epochs=1, patience=1)
        with pytest.raises(ValueError, match="splits must be non-empty"):
            ablate(make_linear_social_corpus(n=4, seed=9), small_social_config(), tc,
                   ["full"], seeds=[0], fractions=(0.2, 0.4, 0.4))

    def test_no_variant_changes_what_build_caches_reads(self):
        # so one fit per seed serves every variant of `ablate`
        cfg = tiny_config()
        read = ("graph_base_dim", "structure_dim", "graph_hops", "pca_k", "embed_seed")
        for variant in training_mod.VARIANTS:
            changed = apply_variant(cfg, variant)
            assert [getattr(changed, n) for n in read] == [getattr(cfg, n) for n in read], \
                variant

    def test_apply_variant(self):
        # the attention variants, and one `no_<x>` per `use_<x>` flag that
        # switches that flag off and changes nothing else
        cfg = tiny_config()
        flags = [f.name for f in dataclasses.fields(ModelConfig) if f.name.startswith("use_")]
        assert len(flags) == 6
        assert sorted(training_mod.VARIANTS) == sorted(
            ["full", "hga", "sa", "na", *(f"no_{flag[4:]}" for flag in flags)])
        assert apply_variant(cfg, "full") == cfg
        for attention in ("hga", "sa", "na"):
            assert apply_variant(cfg, attention) == dataclasses.replace(cfg, attention=attention)
        for flag in flags:
            assert apply_variant(cfg, f"no_{flag[4:]}") == dataclasses.replace(cfg, **{flag: False})
        with pytest.raises(ValueError):
            apply_variant(cfg, "bogus")

    def test_report_serialization(self):
        ds = make_linear_social_corpus(n=80, seed=9)
        tc = TrainConfig(learning_rate=1e-2, batch_size=20, max_epochs=1,
                         patience=1, dropout=0.0, seed=0, init_scale=0.3)
        report = ablate(ds, small_social_config(), tc, ["full"], seeds=[0, 1])
        lines = report.to_csv_lines()
        assert lines[0].startswith("variant,seed")
        assert len(lines) == 3
        assert report.median("full") == pytest.approx(
            float(np.median([r.val_mse for r in report.rows])))
        assert "full" in report.to_table()
