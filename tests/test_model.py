import hashlib
import json
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import postpop.features as features_mod
import postpop.model as model_mod

from conftest import make_post, pass_requests, random_bundle, stack, tiny_config
from postpop.cli import model_config_from, resolve_config
from postpop import streams
from postpop.corpora import make_sample_corpus
from postpop.data import Dataset, FaceAnnotation, load_dataset
from postpop.features import SentimentLexicon, apply_pca, social_vector
from postpop.model import (BRANCHES, BranchSpec, CheckpointError, ModelConfig,
                           PAPER_HEAD_SIZES, backward_bundle,
                           batch_loss_and_grads, branch_backward, branch_fields,
                           branch_forward, branch_input_dim,
                           build_caches, content_forward, extract_dataset,
                           extract_features, forward_bundle,
                           head_forward, init_model_params,
                           load_checkpoint, loss_mse, merged_length,
                           save_checkpoint)
from postpop.numeric import (_conv_columns, conv1d_backward, conv1d_forward,
                             finite_difference_grad, relative_error, relu,
                             relu_backward, uniform_param)
from postpop.providers import EmbeddingProvider, tokenize, write_feature_file
from postpop.training import apply_variant

REPO = Path(__file__).resolve().parents[1]


def zeroed(params: dict) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.items()}


class TestBranch:
    def test_identity_width1_filters_nonneg_input(self, rng):
        store = {}
        for i in range(3):
            store[f"branch.social.conv{i}.filters"] = np.ones((1, 1, 1))
            store[f"branch.social.conv{i}.bias"] = np.zeros(1)
        f = rng.uniform(0, 1, 6)
        out, _ = branch_forward(f, store, "social")
        assert np.allclose(out, f)

    def test_zero_filters_zero_output(self, rng):
        store = {}
        for i in range(3):
            store[f"branch.social.conv{i}.filters"] = np.zeros((2, 2, 1 if i == 0 else 2))
            store[f"branch.social.conv{i}.bias"] = np.zeros(2)
        out, _ = branch_forward(rng.uniform(-1, 1, 6), store, "social")
        assert np.allclose(out, 0.0)

    def test_matches_composed_naive_conv(self, rng):
        store = {}
        chans = [(2, 1), (3, 2), (2, 3)]
        widths = [2, 3, 2]
        for i, ((co, ci), w) in enumerate(zip(chans, widths)):
            store[f"branch.hashtag.conv{i}.filters"] = uniform_param(rng, (co, w, ci))
            store[f"branch.hashtag.conv{i}.bias"] = uniform_param(rng, (co,))
        f = rng.uniform(-1, 1, 12)
        out, _ = branch_forward(f, store, "hashtag")
        x = f.reshape(-1, 1)
        for i in range(3):
            x = relu(conv1d_forward(x, store[f"branch.hashtag.conv{i}.filters"],
                                    store[f"branch.hashtag.conv{i}.bias"])[0])
        assert np.allclose(out, x.reshape(-1), atol=1e-12)

    def test_backward_bitwise_equal_to_full_conv_chain(self, rng):
        # the first layer skips its input gradient; every parameter
        # gradient keeps the bits of a chain that computes it
        cfg = tiny_config()
        params = init_model_params(cfg, seed=3)
        f = rng.uniform(-1, 1, (5, cfg.hashtag_dim))
        out, cache = branch_forward(f, params, "hashtag")
        d_out = rng.normal(size=out.shape)
        grads = branch_backward(d_out, cache, params, "hashtag")
        d = d_out.reshape(cache[-1][1].shape)
        # each layer's cached columns are its input's, built once
        inputs = [f[..., None]] + [relu(pre) for _, pre in cache[:-1]]
        for i in reversed(range(len(cache))):
            cols, pre = cache[i]
            filters = params[f"branch.hashtag.conv{i}.filters"]
            rebuilt = _conv_columns(inputs[i], filters.shape[1])
            assert cols.tobytes() == rebuilt.tobytes()
            d, d_f, d_b = conv1d_backward(rebuilt, filters, relu_backward(pre, d))
            assert grads[f"branch.hashtag.conv{i}.filters"].tobytes() == d_f.tobytes()
            assert grads[f"branch.hashtag.conv{i}.bias"].tobytes() == d_b.tobytes()
        assert len(grads) == 2 * len(cache)

    def test_output_length_validation(self):
        spec = BranchSpec(widths=(3, 3, 3), channels=(1, 1, 2))
        assert spec.output_length(10) == 4 * 2
        with pytest.raises(Exception):
            spec.output_length(5)
        # the configuration checks each spec, naming its branch
        for widths, channels in (((3, 3), (1, 2)), ((1, 1, 1, 1), (1, 1, 1, 1))):
            bad = BranchSpec(widths=widths, channels=channels)
            with pytest.raises(ValueError, match="hashtag_widths .*3 conv layers"):
                tiny_config(branch_specs={**tiny_config().branch_specs, "hashtag": bad})


def reference_init_model_params(config, seed=0, dtype=np.float64, scale=1.0):
    """Reference: one `uniform_param` draw per parameter, in order."""
    rng = np.random.default_rng(seed)
    d, a = config.d, config.a
    shapes = []
    if config.use_content:
        shapes += [("lstm.Wx", (d, 4 * d)), ("lstm.Wh", (d, 4 * d)), ("lstm.b", (4 * d,)),
                   ("proj.W", (config.n, d)), ("proj.b", (d,))]
        if config.attention in ("hga", "sa"):
            shapes += [("att.Ut", (d, a)), ("att.Vt", (d, a)), ("att.wt", (a,)),
                       ("att.Ui", (d, a)), ("att.Vi", (d, a)), ("att.wi", (a,))]
    for name in branch_fields(config):
        spec = config.branch_specs[name]
        ch_in = 1
        for i, (w, ch_out) in enumerate(zip(spec.widths, spec.channels)):
            shapes += [(f"branch.{name}.conv{i}.filters", (ch_out, w, ch_in)),
                       (f"branch.{name}.conv{i}.bias", (ch_out,))]
            ch_in = ch_out
    in_dim = merged_length(config)
    for i, out_dim in enumerate(config.head_sizes):
        shapes += [(f"head.dense{i}.W", (in_dim, out_dim)), (f"head.dense{i}.b", (out_dim,))]
        in_dim = out_dim
    return {name: uniform_param(rng, shape, scale, dtype) for name, shape in shapes}


INIT_CONFIGS = {
    "desk": REPO / "configs" / "desk.cfg",
    "signal": REPO / "perfbench" / "configs" / "signal.cfg",
    "paper branches": None,
}


class TestInitModelParams:
    @pytest.mark.parametrize("seed", [0, 2 ** 32 + 7])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("variant", ["full", "sa", "na"])
    @pytest.mark.parametrize("config_name", sorted(INIT_CONFIGS))
    def test_equals_one_draw_per_parameter(self, config_name, variant, dtype, seed):
        path = INIT_CONFIGS[config_name]
        if path is None:  # the paper's branch specs at a tiny width
            cfg = ModelConfig(m=3, k=4, l=2, d=3, a=2, n=5, topic_dim=8,
                              structure_dim=5, head_sizes=(6, 3, 1))
        else:
            cfg = model_config_from(resolve_config(path))
        cfg = apply_variant(cfg, variant)
        got = init_model_params(cfg, seed=seed, dtype=dtype, scale=0.3)
        want = reference_init_model_params(cfg, seed=seed, dtype=dtype, scale=0.3)
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype == dtype
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes(), name


class TestMergeAndConfig:
    def test_concatenation_arithmetic(self, rng):
        # the head's input is each enabled branch's output, then the content
        # vector, end to end; the cache records each part's width
        cfg = tiny_config(use_demographics=False)
        bundle = stack([random_bundle(rng, cfg) for _ in range(3)])
        _, fcache = forward_bundle(bundle, init_model_params(cfg, seed=0), cfg)
        want = [cfg.branch_specs[name].output_length(branch_input_dim(cfg, name))
                for name in branch_fields(cfg)] + [cfg.d]
        # three width-2 layers take 3 off each input (4, 12 and 10 long), and
        # each branch ends in 2 channels
        assert fcache.widths == want == [1 * 2, 9 * 2, 7 * 2, cfg.d]
        assert fcache.head_cache[0][0].shape == (3, sum(want)) == (3, merged_length(cfg))

    def test_head_input_is_the_paper_layout(self):
        # the merge order is the head's input layout, which a checkpoint's
        # weights depend on; it is written out here, not read from BRANCHES
        cfg = model_config_from(resolve_config(REPO / "configs" / "desk.cfg"))
        ds, _ = load_dataset(REPO / "data" / "sample_corpus.jsonl")
        bundle = extract_features(ds.posts[:7], build_caches(ds.posts, cfg), cfg)
        params = init_model_params(cfg, seed=5, scale=0.3)
        _, fcache = forward_bundle(bundle, params, cfg)
        sentiment = np.concatenate([bundle.f_sentiment_text, bundle.f_sentiment_hashtags],
                                   axis=-1)
        want = np.concatenate([
            branch_forward(bundle.f_social, params, "social")[0],
            branch_forward(bundle.f_demographic, params, "demographic")[0],
            branch_forward(bundle.f_hashtag, params, "hashtag")[0],
            branch_forward(sentiment, params, "sentiment")[0],
            content_forward(bundle, params, cfg)[0]], axis=-1)
        assert fcache.head_cache[0][0].tobytes() == want.tobytes()

    def test_paper_scale_merged_length(self):
        assert merged_length(ModelConfig()) == 27104

    def test_merge_order_stable(self, rng):
        # whichever branches are on, they keep the paper order, and so do
        # the parameters and the forward cache
        for off in [(), ("use_social",), ("use_hashtags", "use_content"),
                    ("use_sentiment_text",), ("use_demographics", "use_sentiment_hashtags")]:
            cfg = tiny_config(**{flag: False for flag in off})
            order = [name for name in ("social", "demographic", "hashtag", "sentiment")
                     if name in branch_fields(cfg)]
            _, fcache = forward_bundle(random_bundle(rng, cfg), init_model_params(cfg), cfg)
            assert list(branch_fields(cfg)) == list(fcache.branch_caches) == order
            assert list(dict.fromkeys(name.split(".")[1] for name in model_mod.param_shapes(cfg)
                                      if name.startswith("branch."))) == order

    def test_branch_specs_must_name_the_branches(self):
        specs = tiny_config().branch_specs
        for bad in ({}, {**specs, "typo": specs["social"]},
                    {name: spec for name, spec in specs.items() if name != "hashtag"}):
            with pytest.raises(ValueError, match="one spec for each of"):
                tiny_config(branch_specs=bad)

    def test_toggle_changes_merged_length_exactly(self):
        cfg = tiny_config()
        off = tiny_config(use_demographics=False)
        demo_len = cfg.branch_specs["demographic"].output_length(cfg.demographic_dim)
        assert merged_length(cfg) - merged_length(off) == demo_len

    def test_sentiment_toggles_shrink_input(self):
        cfg_full = tiny_config()
        cfg_half = tiny_config(use_sentiment_hashtags=False)
        assert branch_input_dim(cfg_full, "sentiment") == 10
        assert branch_input_dim(cfg_half, "sentiment") == 5

    def test_all_features_off_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(use_content=False, use_hashtags=False, use_social=False,
                        use_demographics=False, use_sentiment_text=False,
                        use_sentiment_hashtags=False)

    def test_head_size_validation(self):
        with pytest.raises(ValueError):
            tiny_config(head_sizes=(4, 2))
        with pytest.raises(ValueError):
            tiny_config(head_sizes=(8, 4, 2))

    def test_paper_head_sizes_published_sequence(self):
        assert ModelConfig().head_sizes == PAPER_HEAD_SIZES
        assert PAPER_HEAD_SIZES == (13552, 6776, 3388, 1694, 847, 424, 212,
                                    106, 53, 27, 13, 1)

    def test_config_round_trip(self):
        cfg = tiny_config(attention="sa", use_social=False)
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back == cfg


class TestHead:
    def test_zero_weights_zero_output(self, rng):
        cfg = tiny_config()
        params = zeroed(init_model_params(cfg, seed=0))
        y, _ = head_forward(rng.normal(size=merged_length(cfg)), params, cfg)
        assert y == 0.0

    def test_inference_ignores_dropout(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=0)
        x = rng.normal(size=merged_length(cfg))
        draws = np.random.default_rng(1).random(sum(cfg.head_sizes[:-1]))
        y_train, _ = head_forward(x, params, cfg, 0.5, draws)
        y1, _ = head_forward(x, params, cfg)
        y2, _ = head_forward(x, params, cfg, draws=draws)
        assert y1 == y2 != y_train

    def test_matches_hand_composed_dense(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=3)
        x = rng.normal(size=merged_length(cfg))
        y, _ = head_forward(x, params, cfg)
        h = x
        for i in range(2):
            h = relu(h @ params[f"head.dense{i}.W"] + params[f"head.dense{i}.b"])
        expect = float((h @ params["head.dense2.W"] + params["head.dense2.b"])[0])
        assert abs(y - expect) < 1e-12

    def test_train_mode_rate_zero_equals_infer(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=0)
        x = rng.normal(size=merged_length(cfg))
        draws = np.random.default_rng(0).random(sum(cfg.head_sizes[:-1]))
        y_train, _ = head_forward(x, params, cfg, 0.0, draws)
        y_infer, _ = head_forward(x, params, cfg)
        assert y_train == y_infer


class TestLoss:
    def test_zero_on_equal(self):
        assert loss_mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_half_factor(self):
        assert loss_mse(np.array([1.0, 3.0]), np.array([2.0, 5.0])) == 1.25

    def test_gradient_is_residual_over_n(self, rng):
        preds = rng.normal(size=4)
        targets = rng.normal(size=4)
        num = finite_difference_grad(lambda st: loss_mse(st["p"], targets),
                                     {"p": preds.copy()})
        assert relative_error((preds - targets) / 4.0, num["p"]) < 1e-8

    def test_errors(self):
        with pytest.raises(ValueError):
            loss_mse(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            loss_mse(np.zeros(0), np.zeros(0))


class TestFullModel:
    def test_zero_params_zero_prediction(self, rng):
        cfg = tiny_config()
        params = zeroed(init_model_params(cfg, seed=0))
        y, _ = forward_bundle(random_bundle(rng, cfg), params, cfg)
        assert y == 0.0

    def test_inference_deterministic(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=0)
        bundle = random_bundle(rng, cfg)
        y1, _ = forward_bundle(bundle, params, cfg)
        y2, _ = forward_bundle(bundle, params, cfg)
        assert y1 == y2

    def test_zero_residual_zero_gradients(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=1)
        bundle = random_bundle(rng, cfg)
        y, _ = forward_bundle(bundle, params, cfg)
        bundle.target = y
        grads = batch_loss_and_grads(stack([bundle]), params, cfg)[1]
        for name, g in grads.items():
            assert np.allclose(g, 0.0, atol=1e-10), name

    def test_duplicated_post_leaves_gradients_unchanged(self, rng):
        cfg = tiny_config()
        params = init_model_params(cfg, seed=2)
        bundle = random_bundle(rng, cfg)
        g1 = batch_loss_and_grads(stack([bundle]), params, cfg)[1]
        g2 = batch_loss_and_grads(stack([bundle, bundle]), params, cfg)[1]
        for name in g1:
            assert np.allclose(g1[name], g2[name], atol=1e-12)

    def test_extract_features_shapes(self):
        cfg = tiny_config()
        ds = make_sample_corpus(n=20, seed=5)
        caches = build_caches(ds.posts, cfg)
        bundle = extract_features(ds.posts[0], caches, cfg)
        assert bundle.tokens.shape == (cfg.m, cfg.d)
        assert bundle.regions.shape == (cfg.k, cfg.n)
        assert bundle.hashtag_mat.shape == (cfg.l, cfg.d)
        assert bundle.f_social.shape == (cfg.pca_k,)
        assert bundle.f_demographic.shape == (cfg.demographic_dim,)
        assert bundle.f_hashtag.shape == (cfg.hashtag_dim,)
        # each branch's fields span its input
        for name, names in branch_fields(cfg).items():
            width = sum(getattr(bundle, f).shape[-1] for f in names)
            assert width == branch_input_dim(cfg, name), name
        assert branch_input_dim(cfg, "sentiment") == 10

    def test_unseen_tags_leave_the_graph_numbering_unchanged(self):
        # the graph's nodes are the node table's rows: one dict, which a
        # featurization pass reads and never extends
        cfg = tiny_config()
        ds = make_sample_corpus(n=20, seed=5)
        caches = build_caches(ds.posts, cfg)
        assert caches.node_emb.rows is caches.graph.nodes
        nodes = dict(caches.graph.nodes)
        posts = [replace(post, hashtags=(*post.hashtags, f"unseen{i}"))
                 for i, post in enumerate(ds.posts[:5])]
        batch = extract_features(posts, caches, cfg)
        extract_features(make_post(hashtags=("never", "seen")), caches, cfg)
        assert caches.graph.nodes == nodes and len(caches.node_emb.table) == len(nodes) + 1
        # an unseen tag adds nothing to a post's structure part
        known = extract_features(ds.posts[:5], caches, cfg)
        structure = slice(cfg.topic_dim, None)
        assert np.array_equal(batch.f_hashtag[:, structure], known.f_hashtag[:, structure])

    def test_empty_training_split_rejected(self):
        with pytest.raises(ValueError, match="empty training split"):
            build_caches([], tiny_config())

    def test_toggled_off_feature_not_in_inputs(self, rng):
        # a family whose flags are all off has no branch, no cache and no
        # parameters; the sentiment branch goes only with both of its blocks
        for name, flags in BRANCHES.items():
            cfg = tiny_config(**{flag: False for flag in flags.values()})
            _, fcache = forward_bundle(random_bundle(rng, cfg), init_model_params(cfg), cfg)
            assert name not in branch_fields(cfg) and name not in fcache.branch_caches
            assert not any(p.startswith(f"branch.{name}.") for p in model_mod.param_shapes(cfg))
        cfg = tiny_config(use_sentiment_text=False)
        assert branch_fields(cfg)["sentiment"] == ["f_sentiment_hashtags"]


def bundles_equal(a, b) -> bool:
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               and np.asarray(getattr(a, f.name)).dtype
               == np.asarray(getattr(b, f.name)).dtype
               for f in fields(a))


class TestExtractDataset:
    def stored_provider(self, tmp_path, ds, cfg):
        """A precomputed_file provider holding every key the corpus asks for."""
        dim = cfg.d
        assert dim == cfg.topic_dim == cfg.graph_base_dim == cfg.k * cfg.n
        keys = {tok for p in ds.posts for tok in tokenize(p.caption)}
        keys |= {t for p in ds.posts for t in p.hashtags}
        keys |= {p.image_ref for p in ds.posts}
        stub = EmbeddingProvider(seed=3)
        path = tmp_path / "emb.bin"
        write_feature_file(path, {k: stub.vector(k, dim).astype(np.float32)
                                  for k in sorted(keys)})
        return EmbeddingProvider(kind="precomputed_file", feature_path=str(path))

    @pytest.mark.parametrize("kind", ["deterministic_stub", "precomputed_file"])
    def test_bitwise_equal_to_one_post_calls(self, tmp_path, kind):
        cfg = tiny_config(d=8, topic_dim=8, graph_base_dim=8, k=2, n=4)
        ds = make_sample_corpus(n=30, seed=8)
        provider = (self.stored_provider(tmp_path, ds, cfg)
                    if kind == "precomputed_file" else None)
        caches = build_caches(ds.posts[:20], cfg, provider=provider)
        bundles = extract_dataset(ds, caches, cfg)
        assert len(bundles) == len(ds)
        for post, bundle in zip(ds.posts, bundles):
            assert bundles_equal(bundle, extract_features(post, caches, cfg)), post.post_id
        with pytest.raises(ValueError, match="empty batch"):
            extract_features([], caches, cfg)

    def test_memo_lives_for_one_call(self, draw_log):
        cfg = tiny_config()
        ds = make_sample_corpus(n=20, seed=5)
        caches = build_caches(ds.posts[:10], cfg)
        draw_log.drawn.clear()
        first = extract_dataset(ds, caches, cfg)
        first_draws = list(draw_log.drawn)
        draw_log.drawn.clear()
        second = extract_dataset(ds, caches, cfg)
        # every (key, dim), region matrices included, is drawn once per
        # call, and again by the next call; of the hashtags, only those the
        # graph lacks are drawn
        requests = set(pass_requests(ds.posts, cfg, caches))
        assert {dim for _, dim in requests} == {cfg.d, cfg.topic_dim, cfg.k * cfg.n}
        assert len(first_draws) == len(set(first_draws)) > 0
        assert set(first_draws) == requests
        assert draw_log.drawn == first_draws
        assert all(map(bundles_equal, first, second))

    @pytest.mark.parametrize("config_file", [None, "desk.cfg"])
    def test_pass_draws_only_through_the_batch(self, draw_log, config_file):
        cfg = (model_config_from(resolve_config(REPO / "configs" / config_file))
               if config_file else tiny_config())
        ds, _ = load_dataset(REPO / "data" / "sample_corpus.jsonl")
        caches = build_caches(ds.posts[:30], cfg)
        draw_log.drawn.clear()
        draw_log.per_key.clear()
        extract_dataset(ds, caches, cfg)
        requests = set(pass_requests(ds.posts, cfg, caches))
        assert {dim for _, dim in requests} == {cfg.d, cfg.topic_dim, cfg.k * cfg.n}
        dims = [dim for _, dim in requests]
        assert min(map(dims.count, dims)) > 1  # no dim of one key
        assert sorted(draw_log.drawn) == sorted(requests)
        assert draw_log.per_key == []

    def test_one_post_pass_draws_only_its_image_per_key(self, draw_log):
        # a one-post pass lists its keys in one `tables` call like any pass;
        # its image is the one key of its dim, k * n, so that is the one
        # `vector` call, and its tokens are drawn in a batch; its tags are
        # graph nodes, drawn when the caches were fitted
        cfg = tiny_config()
        ds = make_sample_corpus(n=20, seed=5)
        caches = build_caches(ds.posts, cfg)
        posts = [post for post in ds.posts
                 if len(set(post.hashtags)) > 1 and len(tokenize(post.caption)) > 1]
        assert len(posts) > 5 and cfg.k * cfg.n not in (cfg.d, cfg.topic_dim)
        for post in posts:
            draw_log.drawn.clear()
            draw_log.per_key.clear()
            extract_dataset(Dataset((post,)), caches, cfg)
            assert draw_log.per_key == [(post.image_ref, cfg.k * cfg.n)]
            assert sorted(draw_log.drawn) == sorted(set(pass_requests([post], cfg, caches)))

    @pytest.mark.parametrize("config_file", [None, "desk.cfg"])
    def test_pass_of_graph_tags_draws_no_tag(self, draw_log, config_file):
        # every tag of the pass is a graph node: its attention and topic rows
        # were drawn once, when the caches were fitted, and a pass draws only
        # the caption tokens and the images
        cfg = (model_config_from(resolve_config(REPO / "configs" / config_file))
               if config_file else tiny_config())
        ds = make_sample_corpus(n=30, seed=5)
        caches = build_caches(ds.posts, cfg)
        tags = {tag for post in ds.posts for tag in post.hashtags}
        assert tags and tags <= caches.graph.nodes.keys()
        for posts in (ds.posts, ds.posts[:1]):
            draw_log.drawn.clear()
            extract_features(posts, caches, cfg)
            # a tag is drawn only where it is also a caption token
            assert sorted(draw_log.drawn) == sorted(
                {(tok, cfg.d) for post in posts for tok in tokenize(post.caption)[:cfg.m]}
                | {(post.image_ref, cfg.k * cfg.n) for post in posts})

    def test_config_the_caches_were_not_fitted_for(self):
        cfg = tiny_config()
        caches = build_caches(make_sample_corpus(n=20, seed=5).posts, cfg)
        post = make_post(hashtags=("sun",))
        assert sorted(caches.tag_rows) == [cfg.d, cfg.topic_dim]
        for change in ({"d": 7}, {"topic_dim": 6}):
            other = tiny_config(**change)
            with pytest.raises(ValueError, match=r"dims \[5, 8\].*d=(5|7) and topic_dim=(6|8)"):
                extract_features([post], caches, other)

    @pytest.mark.parametrize("config_file", [None, "desk.cfg"])
    def test_tokenizes_each_caption_once(self, monkeypatch, config_file):
        # one call per caption, plus one per post for its hashtag sentence
        cfg = (model_config_from(resolve_config(REPO / "configs" / config_file))
               if config_file else tiny_config())
        ds = make_sample_corpus(n=30, seed=5)
        caches = build_caches(ds.posts, cfg)
        texts = []

        def spy(text):
            texts.append(text)
            return tokenize(text)

        monkeypatch.setattr(model_mod, "tokenize", spy)
        monkeypatch.setattr(features_mod, "tokenize", spy)
        extract_dataset(ds, caches, cfg)
        assert sorted(texts) == sorted([p.caption for p in ds.posts]
                                       + [" ".join(p.hashtags) for p in ds.posts])
        texts.clear()
        extract_features(ds.posts[0], caches, cfg)
        assert len(texts) == 2

    def test_hand_computed_cases(self):
        provider = EmbeddingProvider(seed=4)
        cfg = tiny_config(m=3, l=2, d=4, topic_dim=3, structure_dim=2, k=2, n=2)
        fit_posts = [make_post(post_id=f"t{i}", hashtags=("sun", "sea"),
                               comment_count=i) for i in range(6)]
        caches = build_caches(fit_posts, cfg, provider=provider)
        emb = caches.node_emb
        lexicon = SentimentLexicon({"good": 4, "bad": 0, "sun": 3})
        caches.lexicon = lexicon
        female = FaceAnnotation("female", 30, "happiness", "asian")
        male = FaceAnnotation("male", 70, "fear", "black")
        posts = [
            make_post(post_id="empty", caption="", hashtags=()),
            make_post(post_id="long", caption="Good, bad good. Echo x y",
                      hashtags=("sun", "sea", "sun"), faces=(female,)),
            make_post(post_id="unknown", caption="echo echo",
                      hashtags=("mystery", "sun"), faces=(female, male)),
        ]
        b = extract_features(posts, caches, cfg)
        vec = provider.vector
        zero = np.zeros(cfg.d)
        # captions: empty, longer than m (truncated), a repeated token
        assert np.array_equal(b.tokens, [[zero] * 3,
                                         [vec("good", 4), vec("bad", 4), vec("good", 4)],
                                         [vec("echo", 4), vec("echo", 4), zero]])
        assert np.array_equal(b.token_mask, [[0, 0, 0], [1, 1, 1], [1, 1, 0]])
        # hashtag rows: none, more tags than l, a tag unknown to the graph
        assert np.array_equal(b.hashtag_mat, [[zero] * 2, [vec("sun", 4), vec("sea", 4)],
                                              [vec("mystery", 4), vec("sun", 4)]])
        assert np.array_equal(b.hashtag_mask, [[0, 0], [1, 1], [1, 1]])
        # topic averages every tag; structure only the tags the graph knows
        topic = [np.zeros(3), (vec("sun", 3) + vec("sea", 3) + vec("sun", 3)) / 3,
                 (vec("mystery", 3) + vec("sun", 3)) / 2]
        structure = [np.zeros(2), (emb["sun"] + emb["sea"] + emb["sun"]) / 3, emb["sun"]]
        assert np.array_equal(b.f_hashtag, np.concatenate([topic, structure], axis=1))
        assert np.array_equal(b.regions[1], vec("img0", 4).reshape(2, 2))
        # sentiment: good good bad -> (2, 1, 1, 1, 3) / 8; hashtags: sun sun -> class 3
        assert np.array_equal(b.f_sentiment_text,
                              [[0.2] * 5, np.array([2, 1, 1, 1, 3]) / 8, [0.2] * 5])
        assert np.array_equal(b.f_sentiment_hashtags,
                              [[0.2] * 5, np.array([1, 1, 1, 3, 1]) / 7,
                               np.array([1, 1, 1, 2, 1]) / 6])
        # ordinal demographics: no faces, one face, the mean of two faces
        assert np.array_equal(b.f_demographic, [[0, 0, 0, 0], [1, 30, 2, 2],
                                                [0.5, 50, 1, 1]])
        assert np.array_equal(b.f_social, apply_pca(
            caches.pca, [social_vector([p], caches.social_stats)[0] for p in posts]))
        assert list(b.post_id) == ["empty", "long", "unknown"]
        onehot = extract_features(posts, caches, replace(cfg, demographic_mode="onehot"))
        assert np.array_equal(np.nonzero(onehot.f_demographic[2])[0],
                              [0, 1, 2 + 30, 2 + 70, 103, 105, 110, 112])
        assert np.array_equal(onehot.f_demographic[2, [0, 1, 32, 72]], [0.5] * 4)


class TestPinnedFeatureBits:
    """sha256 digests of every FeatureBundle field and of the node
    embeddings, recorded before the batch path was rebuilt on flat per-key
    index lists: any change to their bits fails here. The batch holds the
    edges those lists must keep: a repeated hashtag, hashtags the graph has
    never seen, a post with no hashtags among posts with some, captions with
    no tokens or only punctuation, more tokens than m and more tags than l,
    a hashtag that tokenizes to nothing, and posts with no faces and with
    several."""

    @staticmethod
    def sha(*arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.asarray(a).tobytes())
        return h.hexdigest()

    @pytest.fixture(scope="class")
    def edge_batch(self):
        cfg = tiny_config(m=3, l=2, demographic_mode="onehot")
        fit = [make_post(post_id=f"f{i}", user_id=f"u{i % 3}", hashtags=tags,
                         comment_count=7 * i, avg_views=10.0 + i * i, post_hour=4 * i)
               for i, tags in enumerate([("sun", "sea"), ("sun", "sky", "dog"),
                                         ("sea", "sky"), ("cat",), ("dog", "sun"),
                                         ("sea",)])]
        caches = build_caches(fit, cfg, provider=EmbeddingProvider(seed=6))
        caches.lexicon = SentimentLexicon({"good": 4, "bad": 0, "sun": 3, "grim": 1,
                                           "fine": 2, "sky": 2})
        female = FaceAnnotation("female", 30, "happiness", "asian")
        male = FaceAnnotation("male", 70, "fear", "black")
        elder = FaceAnnotation("female", 95, "sadness", "white")
        posts = [
            make_post(post_id="dup", caption="Good sun, good!",
                      hashtags=("sun", "sea", "sun"), faces=(female,)),
            make_post(post_id="absent", user_id="u9", caption="bad grim day",
                      hashtags=("mystery", "sun", "unseen"), faces=(female, male, elder)),
            make_post(post_id="none", caption="fine", hashtags=(), comment_count=3),
            make_post(post_id="empty", caption="", hashtags=("sky",), image_ref="img1"),
            make_post(post_id="punct", caption="!!! ... ,;", hashtags=("dog", "cat"),
                      faces=(male,), post_day=6, post_month=11, post_hour=23),
            make_post(post_id="long", caption="Good, bad good. Echo x y fine",
                      hashtags=("sun", "sea", "sky", "dog", "cat", "sun"), avg_views=50.0),
            make_post(post_id="bare", caption="sky sky", hashtags=("!!!", "sea"),
                      faces=(elder, elder), image_ref="img1"),
        ]
        return posts, caches, cfg

    NAMES = ("post_id", "tokens", "token_mask", "regions", "hashtag_mat", "hashtag_mask",
             "f_social", "f_demographic", "f_hashtag", "f_sentiment_text",
             "f_sentiment_hashtags", "target")
    BATCH = {
        "post_id":
            "b31c616a932c586415e8cf54d3a68f8827d83eb3ed796d3d1ad70d4742e8170f",
        "tokens":
            "9199aacd69875b923ce4367dc03c56353f6f8e1fcc95decbd9a4aaddf485f75b",
        "token_mask":
            "5fa3bf675b33e0a25f1b453ae99da1fffec5a84607da85f812ab861739acf2f7",
        "regions":
            "e676c7a0a804d9a86eabb47f566675a1148c27e9132e4a93a16860b47df13ebc",
        "hashtag_mat":
            "9353213dc8f0dafbec5a20235b80eb8d213f741dc13594b9da42ace8becfa087",
        "hashtag_mask":
            "0711fbfebc172458c8aaba66873ed9b80982feceda33e1fbee2d395ebf4e23c5",
        "f_social":
            "20adcf5280fbded4248106f886e7b94b99bea34de8a120d60482b32b6e855af3",
        "f_demographic":
            "f44aaa2088e80f389dde7f9a0576f7eb3d45ecc03e25052ad183d14c0ca6781a",
        "f_hashtag":
            "f0a5eb4e4006d9e3d74c405a41125c38d7f561fb481f5b8b3cc808764cc72eaf",
        "f_sentiment_text":
            "54116e811319588c0c3c43d3edd871b8f99b2e3955fe4cb9abb6e00939fc1466",
        "f_sentiment_hashtags":
            "bda3eb940a4bc92a850c6963cc3b0c4da29900f39eb90dc30d0e1285b40aea76",
        "target":
            "022451970ff25a1cf57eb1602f05e6ab8a2d0edb918d8efd1574f2ef1a77898f",
    }
    # A post alone gives the bytes of its row of the batch, so only the
    # post_id digest differs: a string array is as wide as its longest id.
    ALONE = {**BATCH,
             "post_id": "38b5b0f2b560494fc3c32684e228d254bacbf73a564dad70b230d5d1d81038b5"}

    def test_batch(self, edge_batch):
        posts, caches, cfg = edge_batch
        batch = extract_features(posts, caches, cfg)
        assert {name: self.sha(getattr(batch, name)) for name in self.NAMES} == self.BATCH

    def test_each_post_alone(self, edge_batch):
        posts, caches, cfg = edge_batch
        alone = [extract_features(post, caches, cfg) for post in posts]
        assert {name: self.sha(*(getattr(b, name) for b in alone))
                for name in self.NAMES} == self.ALONE

    def test_node_embeddings(self, edge_batch):
        _, caches, _ = edge_batch
        emb = caches.node_emb
        assert self.sha(*map(emb.__getitem__, sorted(emb))) == (
            "8fe682a69e7036463499c6225d2ec295ee5e8a873d3ac41535db7252b97a9cb7")


def two_array_params() -> dict:
    return {"w": np.arange(6, dtype=np.float64).reshape(2, 3) / 7,
            "b": np.linspace(-1, 1, 4, dtype=np.float32)}


def member_data(path, member: str) -> tuple[int, int]:
    """Offset and size of one archive member's stored bytes."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    raw = path.read_bytes()
    start = info.header_offset
    name_len = int.from_bytes(raw[start + 26:start + 28], "little")
    extra_len = int.from_bytes(raw[start + 28:start + 30], "little")
    return start + 30 + name_len + extra_len, info.compress_size


class TestCheckpoint:
    def make_parts(self):
        cfg = tiny_config()
        ds = make_sample_corpus(n=20, seed=5)
        caches = build_caches(ds.posts, cfg)
        params = init_model_params(cfg, seed=9)
        return cfg, ds, caches, params

    def test_round_trip_identical_prediction(self, tmp_path):
        cfg, ds, caches, params = self.make_parts()
        bundle = extract_features(ds.posts[3], caches, cfg)
        y_before, _ = forward_bundle(bundle, params, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        params2, cfg2 = load_checkpoint(path)
        y_after, _ = forward_bundle(bundle, params2, cfg2)
        assert y_before == y_after

    def test_round_trip_bit_exact_params(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        for dtype in (np.float64, np.float32):
            params = init_model_params(cfg, seed=9, dtype=dtype)
            save_checkpoint(params, cfg, path)
            params2, cfg2 = load_checkpoint(path)
            assert cfg2 == cfg
            assert list(params2) == list(params)
            for name, arr in params.items():
                assert params2[name].dtype == arr.dtype, name
                assert params2[name].tobytes() == arr.tobytes(), name

    def test_tampered_magic_rejected(self, tmp_path):
        cfg, _, caches, params = self.make_parts()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_old_version_rejected(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        monkeypatch.setattr(model_mod, "_CKPT_VERSION", 2)
        save_checkpoint(two_array_params(), cfg, path)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    def test_old_binary_format_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"PPCKPT1\n" + (2).to_bytes(4, "little") + bytes(64))
        with pytest.raises(CheckpointError, match="re-train"):
            load_checkpoint(path)

    def test_corrupt_config_blob_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(two_array_params(), cfg, path)
        start, size = member_data(path, "config.npy")
        raw = bytearray(path.read_bytes())
        raw[start + size // 2] ^= 0x01  # inside the config JSON
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("members", [
        {"extra": np.zeros(2)},  # a member `names` does not list
        {"param/b": None},  # a listed parameter missing
    ])
    def test_members_must_match_names(self, tmp_path, members):
        cfg = tiny_config()
        arrays = {"version": np.array(model_mod._CKPT_VERSION),
                  "config": np.array(json.dumps(cfg.to_dict(), sort_keys=True)),
                  "names": np.array(["w", "b"]),
                  "param/w": np.zeros((2, 3)), "param/b": np.zeros(4)}
        arrays.update(members)
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as fh:
            np.savez(fh, **{k: v for k, v in arrays.items() if v is not None})
        with pytest.raises(CheckpointError, match="members"):
            load_checkpoint(path)

    def test_invalid_stored_configuration_rejected(self, tmp_path):
        # the JSON decodes, but ModelConfig rejects what it holds
        stored = {**tiny_config().to_dict(), "attention": "xyz"}
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as fh:
            np.savez(fh, version=np.array(model_mod._CKPT_VERSION),
                     config=np.array(json.dumps(stored, sort_keys=True)),
                     names=np.array(["w"]), **{"param/w": np.zeros(2)})
        with pytest.raises(CheckpointError, match="unreadable checkpoint configuration"):
            load_checkpoint(path)

    def test_truncation_anywhere_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(two_array_params(), tiny_config(), path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    def test_every_byte_flip_rejected_or_harmless(self, tmp_path):
        cfg = tiny_config()
        params = two_array_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        raw = path.read_bytes()
        flipped = tmp_path / "flipped.ckpt"
        harmless = 0
        for offset in range(len(raw)):
            bad = bytearray(raw)
            bad[offset] ^= 0xFF
            flipped.write_bytes(bytes(bad))
            try:
                params2, cfg2 = load_checkpoint(flipped)
            except CheckpointError:
                continue
            harmless += 1  # zip metadata that no reader checks
            assert cfg2 == cfg, offset
            assert list(params2) == list(params), offset
            for name, arr in params.items():
                assert params2[name].dtype == arr.dtype, (offset, name)
                assert params2[name].tobytes() == arr.tobytes(), (offset, name)
        assert harmless < len(raw) // 2

    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg, _, caches, params = self.make_parts()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        before = path.read_bytes()
        real_write = np.lib.format.write_array
        calls = {"n": 0}

        def failing_write(fp, arr, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 5:
                raise OSError("disk full")
            real_write(fp, arr, *args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(zeroed(params), cfg, path)
        assert calls["n"] == 5
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_different_config_rejected(self, tmp_path):
        cfg, _, caches, params = self.make_parts()
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        other = tiny_config(attention="na")
        with pytest.raises(CheckpointError, match="different configuration"):
            load_checkpoint(path, expected_config=other)
        loaded_params, _ = load_checkpoint(path, expected_config=cfg)
        assert len(loaded_params) == len(params)


def mixed_bundles(rng, cfg):
    """Posts covering an empty caption, zero hashtags, and full inputs."""
    shapes = [(cfg.m, cfg.l), (0, 1), (2, 0), (0, 0), (1, cfg.l)]
    return [random_bundle(rng, cfg, n_tokens=t, n_hashtags=h) for t, h in shapes]


def post_draws(n, cfg, step=3):
    """(n, H) dropout uniforms as `train()` draws them at seed 5: row i from
    post i's own stream."""
    return streams.uniform_rows((5, step), n, sum(cfg.head_sizes[:-1]))


class TestBatchedModel:
    """A stacked (B, ...) batch runs the same code as B one-post calls."""

    @pytest.mark.parametrize("variant", ["hga", "sa", "na"])
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_batch_equals_one_post_calls(self, rng, variant, rate):
        cfg = tiny_config(attention=variant)
        params = init_model_params(cfg, seed=6)
        bundles = mixed_bundles(rng, cfg)
        n = len(bundles)
        draws = post_draws(n, cfg)
        loss, grads, preds = batch_loss_and_grads(stack(bundles), params, cfg, rate, draws)
        summed = {name: np.zeros_like(arr) for name, arr in params.items()}
        for i, bundle in enumerate(bundles):
            y, fcache = forward_bundle(bundle, params, cfg, rate, draws[i])
            assert abs(preds[i] - y) <= 1e-12
            d_y = (y - bundle.target) / n
            for name, g in backward_bundle(d_y, fcache, params, cfg).items():
                summed[name] += g
        for name in params:
            assert np.allclose(grads[name], summed[name], rtol=0, atol=1e-12), name
        assert loss == pytest.approx(
            np.sum((preds - [b.target for b in bundles]) ** 2) / (2 * n), abs=0)

    def test_dropout_masks_drawn_per_post(self, rng):
        # post i's masks are its own row of draws, and hidden layer j reads
        # the next head_sizes[j] columns
        cfg = tiny_config(head_sizes=(8, 5, 3, 1))
        params = init_model_params(cfg, seed=6)
        bundles = mixed_bundles(rng, cfg)[:3]
        batch = stack(bundles)
        draws = post_draws(3, cfg)
        _, fcache = forward_bundle(batch, params, cfg, 0.5, draws)
        for i, bundle in enumerate(bundles):
            _, one = forward_bundle(bundle, params, cfg, 0.5, draws[i])
            start = 0
            for layer, one_layer in zip(fcache.head_cache[:-1], one.head_cache[:-1]):
                assert np.array_equal(layer[2][i], one_layer[2])
                width = one_layer[2].shape[-1]
                assert np.array_equal(one_layer[2], draws[i, start:start + width] >= 0.5)
                start += width

    def test_stack_and_take(self, rng):
        # a stacked bundle has a length, and indexes and iterates by post
        cfg = tiny_config()
        bundles = mixed_bundles(rng, cfg)
        batch = stack(bundles)
        assert len(batch) == len(bundles)
        assert batch.tokens.shape == (len(bundles), cfg.m, cfg.d)
        assert batch.target.shape == (len(bundles),)
        part = batch[np.array([3, 1])]
        assert list(part.post_id) == [bundles[3].post_id, bundles[1].post_id]
        assert np.array_equal(part.regions[0], bundles[3].regions)
        assert len(batch[1:3]) == 2
        assert all(bundles_equal(one, b) for one, b in zip(batch, bundles))
        assert len(list(batch)) == len(bundles)
        assert bundles_equal(batch[-1], bundles[-1])

    def test_one_post_float64_bundle_computes_in_parameter_dtype(self, rng):
        # extract_features gives float64 inputs; forward_bundle casts them to
        # the parameters' dtype, so the head never runs in float64
        cfg = tiny_config()
        params32 = init_model_params(cfg, seed=4, dtype=np.float32)
        bundle = random_bundle(rng, cfg, n_tokens=2, n_hashtags=1)
        assert bundle.tokens.dtype == np.float64
        y_hat, fcache = forward_bundle(bundle, params32, cfg)
        assert fcache.head_cache[0][0].dtype == np.float32
        assert np.asarray(y_hat).dtype == np.float32
        as32 = replace(bundle, **{f.name: getattr(bundle, f.name).astype(np.float32)
                                  for f in fields(bundle)
                                  if f.name not in ("post_id", "target")})
        assert np.asarray(y_hat).tobytes() == np.asarray(
            forward_bundle(as32, params32, cfg)[0]).tobytes()
        stacked, _ = forward_bundle(stack([as32]), params32, cfg)
        assert stacked.dtype == np.float32
        assert abs(float(stacked[0]) - float(y_hat)) <= 1e-5 * max(1.0, abs(float(y_hat)))
