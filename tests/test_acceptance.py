"""Acceptance suite: each test enforces one numbered criterion at its stated
tolerance and prints a PASS line when it holds. Run with `pytest -v` (or -s)
for the per-criterion report.
"""

import time

import numpy as np
import pytest

from conftest import batch_loss, make_post, random_bundle, stack, tiny_config
from postpop.attention import attention_param_shapes, hga_attention, sa_attention
from postpop.corpora import make_hashtag_signal_corpus, make_sample_corpus
from postpop.data import split_dataset
from postpop.features import fit_pca, social_vector
from postpop.hashtag_graph import build_cooccurrence_graph
from postpop.model import (ModelConfig, batch_loss_and_grads, branch_input_dim,
                           build_caches, extract_dataset, extract_features,
                           forward_bundle, init_model_params, merged_length,
                           save_checkpoint)
from postpop.numeric import finite_difference_grad, relative_error, uniform_params
from postpop.providers import EmbeddingProvider
from postpop.training import (AdamState, TrainConfig, ablate, adam_step,
                              compute_metrics, spearman, train)

PARAM_GROUPS = ("lstm.", "proj.", "att.", "branch.social.", "branch.demographic.",
                "branch.hashtag.", "branch.sentiment.", "head.")


def test_c1_gradient_fidelity():
    """Analytic full-model gradients match central differences at 1e-4."""
    start = time.monotonic()
    config = tiny_config()  # M=3, K=4, L=2, D=5, A=6, float64
    rng = np.random.default_rng(7)
    params = init_model_params(config, seed=3)
    bundle = random_bundle(rng, config, n_tokens=2, n_hashtags=1)
    bundles = stack([bundle])

    _, grads, _ = batch_loss_and_grads(bundles, params, config)
    numeric = finite_difference_grad(
        lambda store: batch_loss(bundles, store, config), params, eps=1e-5)

    checked = set()
    for name in params:
        err = relative_error(grads[name], numeric[name])
        assert err <= 1e-4, f"{name}: relative error {err:.2e}"
        for group in PARAM_GROUPS:
            if name.startswith(group) and np.max(np.abs(numeric[name])) > 0:
                checked.add(group)
    assert checked == set(PARAM_GROUPS), \
        f"vacuously-zero gradient groups: {set(PARAM_GROUPS) - checked}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\ncriterion 1 gradient fidelity: PASS ({elapsed:.1f}s)")


def test_c2_attention_invariants():
    """Simplex weights, exact masked zeros, hashtag-permutation invariance,
    no-hashtag HGA == SA, and exact content additivity on 1000 instances."""
    rng = np.random.default_rng(100)
    for trial in range(1000):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 5))
        d = int(rng.integers(2, 7))
        a = int(rng.integers(1, 7))
        store = uniform_params(rng, attention_param_shapes(d, a))
        n_tok = int(rng.integers(0, m + 1))
        mask = np.zeros(m)
        mask[:n_tok] = 1.0
        text = rng.uniform(-1, 1, (m, d)) * mask[:, None]
        image = rng.uniform(-1, 1, (k, d))
        n_tags = int(rng.integers(0, l + 1))
        hmask = np.zeros(l)
        hmask[:n_tags] = 1.0
        hmat = rng.uniform(-1, 1, (l, d)) * hmask[:, None]

        content, cache = hga_attention(text, mask, image, hmat, hmask, store)
        alpha_text, alpha_image = cache.alpha_text, cache.alpha_image
        if n_tok > 0:
            assert abs(alpha_text.sum() - 1.0) <= 1e-9
        else:
            assert np.all(alpha_text == 0.0)
        assert abs(alpha_image.sum() - 1.0) <= 1e-9
        assert np.all(alpha_text >= 0) and np.all(alpha_image >= 0)
        assert np.all(alpha_text[mask == 0] == 0.0)
        # the attended text plus the attended image, summed as the layer sums
        assert np.array_equal(content, (alpha_text[None] @ text)[0]
                              + (alpha_image[None] @ image)[0])

        perm = rng.permutation(l)
        content_p, _ = hga_attention(text, mask, image, hmat[perm], hmask[perm], store)
        assert np.max(np.abs(content - content_p)) <= 1e-12

        if n_tags == 0 and n_tok > 0:
            content_sa, _ = sa_attention(text, mask, image, store)
            assert np.max(np.abs(content - content_sa)) <= 1e-12
    print("\ncriterion 2 attention invariants: PASS (1000 instances)")


def test_c3_graph_oracle_equivalence():
    """Co-occurrence weights equal the brute-force pair-count oracle exactly."""
    rng = np.random.default_rng(42)
    provider = EmbeddingProvider(kind="deterministic_stub", seed=0)
    for trial in range(50):
        n_tags = int(rng.integers(2, 31))
        n_posts = int(rng.integers(1, 201))
        vocab = [f"t{i}" for i in range(n_tags)]
        tag_lists = []
        for _ in range(n_posts):
            size = int(rng.integers(0, min(8, n_tags) + 1))
            tag_lists.append(tuple(rng.choice(vocab, size=size, replace=True)))
        posts = [make_post(post_id=f"p{i}", hashtags=tags)
                 for i, tags in enumerate(tag_lists)]
        g = build_cooccurrence_graph(posts, provider, base_dim=4)

        oracle = {}
        ordered = sorted(vocab)  # nodes number the tags in sorted order
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                w = sum(1 for tags in tag_lists if a in set(tags) and b in set(tags))
                if w:
                    oracle[(a, b)] = w
        tags = list(g.nodes)  # node -> tag
        assert {(tags[i], tags[j]): w for (i, j), w in g.edges.items()} == oracle
    print("\ncriterion 3 graph oracle equivalence: PASS (50 corpora)")


def test_c4_pca_correctness():
    """Orthonormality at 1e-8, eigendecomposition-oracle variances at 1e-6,
    and the default social reduction to 6 dims."""
    rng = np.random.default_rng(4)
    for trial in range(10):
        rows = rng.normal(size=(50, 12)) * rng.uniform(0.5, 3.0, size=12)
        model = fit_pca(rows, k=6)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-8
        cov = np.cov(rows, rowvar=False, ddof=1)
        evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        assert np.max(np.abs(model.explained_variance - evals[:6])) <= 1e-6

    config = ModelConfig()  # paper defaults
    posts = make_sample_corpus(n=30, seed=9).posts
    caches = build_caches(posts, config)
    reduced = caches.pca.components @ (social_vector(posts[:1], caches.social_stats)[0]
                                       - caches.pca.mean)
    assert reduced.shape == (6,)
    print("\ncriterion 4 PCA correctness: PASS")


def test_c5_metric_correctness():
    """Hand-computed metric values and SRCC monotone-transform invariance."""
    m = compute_metrics(np.array([1.0, 3.0]), np.array([2.0, 5.0]))
    assert m.mse == pytest.approx(2.5, abs=1e-12)
    assert m.mae == pytest.approx(1.5, abs=1e-12)

    # fixed 5-element case, worked by hand:
    # errors (0.2, 0.4, 0.5, -1.3, -0.6) -> MSE 0.5, MAE 0.6
    # ranks p (3,1,5,4,2) vs t (2,1,4,5,3): sum d^2 = 4 -> SRCC 0.8
    # deviations give cov-sum 4.66, ss_p 4.392, ss_t 7.30
    preds = np.array([1.2, 0.4, 3.0, 2.2, 0.9])
    targets = np.array([1.0, 0.0, 2.5, 3.5, 1.5])
    m5 = compute_metrics(preds, targets)
    assert m5.mse == pytest.approx(0.5, abs=1e-12)
    assert m5.mae == pytest.approx(0.6, abs=1e-12)
    assert m5.srcc == pytest.approx(0.8, abs=1e-12)
    assert m5.pcc == pytest.approx(4.66 / np.sqrt(4.392 * 7.30), abs=1e-12)

    rng = np.random.default_rng(5)
    x = rng.random(20)
    y = rng.random(20)
    base = spearman(x, y)
    for _ in range(100):
        knots_x = np.concatenate([[-0.1], np.sort(rng.random(6)), [1.1]])
        knots_y = np.cumsum(rng.uniform(0.05, 2.0, size=8)) + rng.normal()
        fx = np.interp(x, knots_x, knots_y)
        assert spearman(fx, y) == pytest.approx(base, abs=1e-9)
    print("\ncriterion 5 metric correctness: PASS")


def test_c6_overfit_one_batch():
    """A 20-post corpus is memorized to train MSE <= 1e-3 within 500 steps."""
    start = time.monotonic()
    ds = make_sample_corpus(n=20, seed=21)
    config = tiny_config(m=6, k=4, l=4, d=8, a=8, n=8, topic_dim=8,
                         structure_dim=4, pca_k=6,
                         head_sizes=(16, 8, 1))  # all dims <= 16
    caches = build_caches(ds.posts, config)
    bundles = extract_dataset(ds, caches, config)
    targets = np.array([b.target for b in bundles])
    params = init_model_params(config, seed=0, scale=0.3)
    state = AdamState()
    mse = np.inf
    for step in range(500):
        _, grads, preds = batch_loss_and_grads(bundles, params, config)
        adam_step(params, grads, state, lr=1e-2)
        mse = float(np.mean((preds - targets) ** 2))
        if mse <= 1e-3:
            break
    elapsed = time.monotonic() - start
    assert mse <= 1e-3, f"train MSE {mse:.2e} after 500 steps"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\ncriterion 6 overfit-one-batch: PASS "
          f"(MSE {mse:.1e} at step {step + 1}, {elapsed:.1f}s)")


def test_c7_hashtag_signal_separation():
    """On the planted-signal corpus the hashtag-guided variant's median
    validation MSE is at most 0.7x the no-attention variant's (5 seeds)."""
    start = time.monotonic()
    ds = make_hashtag_signal_corpus(n=400, n_targets=24, caption_tokens=5,
                                    d=8, embed_seed=0, seed=0)
    config = tiny_config(m=5, k=4, l=2, d=8, a=8, n=8, topic_dim=8,
                         structure_dim=4, pca_k=4,
                         use_hashtags=False, use_social=False,
                         use_demographics=False, use_sentiment_text=False,
                         use_sentiment_hashtags=False, head_sizes=(16, 8, 1))
    tc = TrainConfig(learning_rate=1e-2, batch_size=20, max_epochs=40,
                     patience=40, dropout=0.0, seed=0, init_scale=0.3)
    seeds = [0, 1, 2, 3, 4]
    report = ablate(ds, config, tc, ["hga", "na"], seeds=seeds)
    hga_median = report.median("hga", "val_mse")
    na_median = report.median("na", "val_mse")
    elapsed = time.monotonic() - start
    assert hga_median <= 0.7 * na_median, \
        f"median val MSE: hga {hga_median:.4f} vs na {na_median:.4f}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    print(f"\ncriterion 7 hashtag-signal separation: PASS "
          f"(hga {hga_median:.4f} vs na {na_median:.4f}, {elapsed:.0f}s)")


def test_c8_reproducibility(tmp_path):
    """Two identically seeded runs give bitwise-equal histories/checkpoints."""
    ds = make_sample_corpus(n=40, seed=17)
    tr, va, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
    config = tiny_config(m=6, k=4, l=4, d=8, a=8, n=8, topic_dim=8,
                         structure_dim=4, pca_k=6,
                         head_sizes=(16, 8, 1))
    tc = TrainConfig(learning_rate=1e-3, batch_size=10, max_epochs=4,
                     patience=4, dropout=0.2, seed=23, init_scale=0.3)
    paths = []
    histories = []
    for run in range(2):
        result = train(tr, va, config, tc)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(result.checkpoint.params, result.checkpoint.config, path)
        paths.append(path)
        histories.append(result.history)
    assert histories[0] == histories[1]  # float64 exact equality
    assert paths[0].read_bytes() == paths[1].read_bytes()
    print("\ncriterion 8 reproducibility: PASS")


def test_c9_paper_scale_shape_fidelity():
    """Default configuration merges to 27104 dims with the published head
    ladder, and a full forward pass runs at that scale."""
    config = ModelConfig()
    assert config.m == 15 and config.d == 768 and config.k == 49
    assert config.n == 512 and config.l == 60 and config.a == 768
    assert config.demographic_dim == 116
    assert branch_input_dim(config, "sentiment") == 10
    assert config.hashtag_dim == 818
    assert config.pca_k == 6
    assert merged_length(config) == 27104
    assert config.head_sizes == (13552, 6776, 3388, 1694, 847, 424, 212, 106,
                                 53, 27, 13, 1)
    assert len(config.head_sizes) == 12

    ds = make_sample_corpus(n=12, seed=2)
    caches = build_caches(ds.posts, config)
    bundle = extract_features(ds.posts[0], caches, config)
    params = init_model_params(config, seed=0, dtype=np.float32)
    y_hat, fcache = forward_bundle(bundle, params, config)
    assert np.isfinite(y_hat)
    assert fcache.head_cache[0][0].dtype == np.float32  # the head never upcasts
    merged_dim = fcache.head_cache[0][0].shape[0]
    assert merged_dim == 27104
    print(f"\ncriterion 9 paper-scale shape fidelity: PASS (merged {merged_dim}, "
          f"forward -> {y_hat:.4f})")
