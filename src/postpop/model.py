"""Model configuration, per-modality conv branches, regression head, and the
full forward/backward pass.

`BRANCHES` is the one table of the conv branches: each branch's bundle
fields and the config flag that enables each field. Its conv widths and
channels are the `<branch>_widths` and `<branch>_channels` keys of
`ModelConfig`. A branch whose fields are all off is disabled and
contributes nothing. The table's order is the merge order: the enabled
branches' outputs, then the attended content vector, make the head's input,
so reordering the table changes the layout a checkpoint's head weights were
trained on and needs a `_CKPT_VERSION` bump.
At the default (paper-scale) configuration the merged vector is 27104 long
and the head follows the published halving size ladder.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field, fields, asdict
from itertools import accumulate, zip_longest
from pathlib import Path
from tokenize import TokenError

import numpy as np

from . import attention as att
from . import encoders
from .data import Dataset, Post
from .features import (DEMOGRAPHIC_DIM, SENTIMENT_CLASSES, SOCIAL_RAW_DIM, PCAModel,
                       SentimentLexicon, SocialStats, apply_pca, demographic_vector,
                       fit_social_pca, sentiment_feature, social_numerics, social_vector)
from .hashtag_graph import (HashtagGraph, NodeEmbeddings, build_cooccurrence_graph,
                            hashtag_feature, node_embeddings)
from .numeric import (conv1d_backward, conv1d_forward, dense_backward,
                      dense_forward, dropout, dropout_backward, padded_index, relu,
                      relu_backward, uniform_params)
from .providers import EmbeddingProvider, tokenize

# branch -> {bundle field it reads: the config flag that enables the field},
# in merge order. A branch reads its enabled fields end to end.
BRANCHES = {
    "social": {"f_social": "use_social"},
    "demographic": {"f_demographic": "use_demographics"},
    "hashtag": {"f_hashtag": "use_hashtags"},
    "sentiment": {"f_sentiment_text": "use_sentiment_text",
                  "f_sentiment_hashtags": "use_sentiment_hashtags"},
}
BRANCH_LAYERS = 3  # conv-relu layers per branch

# Published head ladder; the 27104 -> 13552 first layer halves the merged
# vector and subsequent sizes follow the reported sequence down to the
# single output unit.
PAPER_HEAD_SIZES = (13552, 6776, 3388, 1694, 847, 424, 212, 106, 53, 27, 13, 1)


def config_key(default, help: str):
    """A config field that is the configuration key of its name, with its --help text."""
    return field(default=default, metadata={"help": help})


def typed_fields(config) -> None:
    """Store each field of a config dataclass as its default's type, or raise."""
    for f in fields(config):  # an integer may be numpy's; a bool is never a number
        kind, value = type(f.default), getattr(config, f.name)
        vals = tuple(value) if kind is tuple else (value,)
        takes = {float: (int, np.integer, float), str: str}.get(kind, (int, np.integer))
        if any(isinstance(v, bool) != (kind is bool) or not isinstance(v, takes) for v in vals):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        object.__setattr__(config, f.name, tuple(map(int, vals)) if kind is tuple else kind(value))


ATTENTIONS = ("hga", "sa", "na")


@dataclass(frozen=True)
class ModelConfig:
    """Every field is the configuration key of its name."""

    m: int = config_key(15, "max caption tokens")
    k: int = config_key(49, "image regions")
    l: int = config_key(60, "max hashtags in attention")
    d: int = config_key(768, "embedding/hidden dimension")
    a: int = config_key(768, "attention units")
    n: int = config_key(512, "raw region feature dimension")
    topic_dim: int = config_key(768, "hashtag topic embedding dimension")
    structure_dim: int = config_key(50, "hashtag graph embedding dimension")
    pca_k: int = config_key(6, "social vector dimension after PCA")
    demographic_mode: str = config_key("onehot", "demographic encoding: onehot|ordinal")
    attention: str = config_key("hga", f"attention variant: {'|'.join(ATTENTIONS)}")
    embed_seed: int = config_key(0, "embedding provider seed")
    graph_base_dim: int = config_key(64, "hashtag node base feature dimension")
    graph_hops: int = config_key(2, "graph aggregation rounds")
    use_content: bool = config_key(True, "include attended content vector")
    use_hashtags: bool = config_key(True, "include hashtag branch")
    use_social: bool = config_key(True, "include social branch")
    use_demographics: bool = config_key(True, "include demographic branch")
    use_sentiment_text: bool = config_key(True, "include caption sentiment block")
    use_sentiment_hashtags: bool = config_key(True, "include hashtag sentiment block")
    # each branch's conv layers: chosen so the default merged vector is 27104 long
    social_widths: tuple[int, ...] = config_key((1, 3, 3), "social branch conv widths")
    social_channels: tuple[int, ...] = config_key((1, 2, 4), "social branch conv channels")
    demographic_widths: tuple[int, ...] = config_key((3, 3, 3), "demographic branch conv widths")
    demographic_channels: tuple[int, ...] = config_key((1, 2, 4),
                                                       "demographic branch conv channels")
    hashtag_widths: tuple[int, ...] = config_key((3, 5, 5), "hashtag branch conv widths")
    hashtag_channels: tuple[int, ...] = config_key((8, 16, 32), "hashtag branch conv channels")
    sentiment_widths: tuple[int, ...] = config_key((1, 1, 3), "sentiment branch conv widths")
    sentiment_channels: tuple[int, ...] = config_key((1, 2, 4), "sentiment branch conv channels")
    head_sizes: tuple[int, ...] = config_key(PAPER_HEAD_SIZES,
                                             "comma-separated head sizes or 'paper'")

    def __post_init__(self):
        typed_fields(self)
        for name in ("m", "k", "l", "d", "a", "n", "topic_dim", "structure_dim",
                     "graph_base_dim", "graph_hops"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.pca_k <= SOCIAL_RAW_DIM:
            raise ValueError(f"pca_k must be in [1, {SOCIAL_RAW_DIM}], got {self.pca_k}")
        if self.attention not in ATTENTIONS:
            raise ValueError(f"attention must be {'|'.join(ATTENTIONS)}, got {self.attention!r}")
        if self.demographic_mode not in ("onehot", "ordinal"):
            raise ValueError(
                f"demographic_mode must be onehot|ordinal, got {self.demographic_mode!r}")
        if not self.use_content and not branch_fields(self):
            raise ValueError("at least one feature must be enabled")
        if len(self.head_sizes) < 3 or min(self.head_sizes) < 1 or self.head_sizes[-1] != 1:
            raise ValueError("head_sizes must be >= 3 sizes, each >= 1, ending in 1, "
                             f"got {self.head_sizes}")
        for name in BRANCHES:
            for part, values in zip(("widths", "channels"), branch_layers(self, name)):
                if len(values) != BRANCH_LAYERS or min(values) < 1:
                    raise ValueError(f"{name}_{part} must be one value >= 1 for each of the "
                                     f"{BRANCH_LAYERS} conv layers, got {values}")
        for name in branch_fields(self):
            widths, length = branch_layers(self, name)[0], branch_input_dim(self, name)
            if length - sum(w - 1 for w in widths) < 1:
                raise ValueError(f"{name}_widths must fit the {name} branch input of "
                                 f"length {length}, got {widths}")

    @property
    def demographic_dim(self) -> int:
        return DEMOGRAPHIC_DIM if self.demographic_mode == "onehot" else 4

    @property
    def hashtag_dim(self) -> int:
        return self.topic_dim + self.structure_dim


def branch_fields(config: ModelConfig) -> dict[str, list[str]]:
    """The enabled branches in merge order, each with the bundle fields it
    reads: those of its `BRANCHES` fields whose flag is on."""
    out = {}
    for name, flags in BRANCHES.items():
        for f, flag in flags.items():
            if getattr(config, flag):
                out.setdefault(name, []).append(f)
    return out


def branch_layers(config: ModelConfig, name: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The conv widths and output channels of branch `name`: its
    `<name>_widths` and `<name>_channels` keys."""
    return getattr(config, f"{name}_widths"), getattr(config, f"{name}_channels")


def branch_input_dim(config: ModelConfig, name: str) -> int:
    """Length of one post's input to the enabled branch `name`."""
    dims = {"f_social": config.pca_k, "f_demographic": config.demographic_dim,
            "f_hashtag": config.hashtag_dim, "f_sentiment_text": SENTIMENT_CLASSES,
            "f_sentiment_hashtags": SENTIMENT_CLASSES}
    return sum(dims[f] for f in branch_fields(config)[name])


def merged_length(config: ModelConfig) -> int:
    """Length of the merged feature vector; a pure function of the config."""
    length = config.d if config.use_content else 0
    for name in branch_fields(config):
        widths, channels = branch_layers(config, name)
        length += (branch_input_dim(config, name) - sum(w - 1 for w in widths)) * channels[-1]
    return length


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every trainable parameter's shape, by name, in the order of the draws,
    of a checkpoint's arrays and of Adam's flat buffers."""
    shapes = {}
    if config.use_content:
        shapes.update(encoders.lstm_param_shapes(config.d, config.d))
        shapes.update(encoders.projection_param_shapes(config.n, config.d))
        if config.attention in ("hga", "sa"):
            shapes.update(att.attention_param_shapes(config.d, config.a))
    for name in branch_fields(config):
        ch_in = 1
        for i, (w, ch_out) in enumerate(zip(*branch_layers(config, name))):
            shapes[f"branch.{name}.conv{i}.filters"] = (ch_out, w, ch_in)
            shapes[f"branch.{name}.conv{i}.bias"] = (ch_out,)
            ch_in = ch_out
    in_dim = merged_length(config)
    for i, out_dim in enumerate(config.head_sizes):
        shapes[f"head.dense{i}.W"] = (in_dim, out_dim)
        shapes[f"head.dense{i}.b"] = (out_dim,)
        in_dim = out_dim
    return shapes


def init_model_params(config: ModelConfig, seed: int = 0, dtype=np.float64,
                      scale: float = 1.0) -> dict[str, np.ndarray]:
    """All trainable parameters, uniform in [-scale, scale], by name, in
    `param_shapes` order: views of one draw."""
    return uniform_params(np.random.default_rng(seed), param_shapes(config), scale, dtype)


# ---------------------------------------------------------------------------
# feature caches and feature bundles

@dataclass
class FeatureCaches:
    """Training-split-derived state needed to featurize any post."""

    provider: EmbeddingProvider
    lexicon: SentimentLexicon
    graph: HashtagGraph
    node_emb: NodeEmbeddings  # by tag, and the node table each pass gathers from
    tag_rows: dict[int, np.ndarray]  # by dim (d, topic_dim): graph tags' rows, in node order
    social_stats: SocialStats
    pca: PCAModel


def build_caches(train_posts, config: ModelConfig,
                 lexicon: SentimentLexicon | None = None,
                 provider: EmbeddingProvider | None = None) -> FeatureCaches:
    """Fit all frozen feature state (graph, embeddings, stats, PCA) on the
    training split only."""
    if len(train_posts) == 0:
        raise ValueError("cannot fit the feature caches on an empty training split")
    provider = provider or EmbeddingProvider(kind="deterministic_stub",
                                             seed=config.embed_seed)
    lexicon = lexicon or SentimentLexicon.bundled()
    graph = build_cooccurrence_graph(train_posts, provider, base_dim=config.graph_base_dim,
                                     tag_dims=(config.d, config.topic_dim))
    emb = node_embeddings(graph, dim=config.structure_dim, hops=config.graph_hops)
    numerics = social_numerics(train_posts)
    stats = SocialStats.fit(numerics)
    pca = fit_social_pca(train_posts, stats, numerics, k=config.pca_k)
    return FeatureCaches(provider=provider, lexicon=lexicon, graph=graph, node_emb=emb,
                         tag_rows=graph.tag_rows, social_stats=stats, pca=pca)


@dataclass
class FeatureBundle:
    """The tensors the model forward pass consumes.

    One post's bundle has unbatched arrays (tokens (M, D), f_social (P,),
    a float target); a stacked bundle of B posts gives every array a leading
    (B, ...) axis, post_id a (B,) string array and target a (B,) array.
    Every layer runs the same code on both. A stacked bundle has a length,
    and iterates and indexes like a sequence of its posts.
    """

    post_id: str
    tokens: np.ndarray
    token_mask: np.ndarray
    regions: np.ndarray
    hashtag_mat: np.ndarray
    hashtag_mask: np.ndarray
    f_social: np.ndarray
    f_demographic: np.ndarray
    f_hashtag: np.ndarray
    f_sentiment_text: np.ndarray
    f_sentiment_hashtags: np.ndarray
    target: float

    def __len__(self) -> int:
        return len(self.target)

    def __getitem__(self, index) -> "FeatureBundle":
        """The posts at `index` (any numpy index) of a stacked bundle; an
        integer gives that post's unbatched bundle."""
        return FeatureBundle(**{name: getattr(self, name)[index]
                                for name in _BUNDLE_FIELDS})

    def __iter__(self):
        return (self[i] for i in range(len(self)))


_BUNDLE_FIELDS = tuple(f.name for f in fields(FeatureBundle))
_INPUT_FIELDS = ("tokens", "token_mask", "regions", "hashtag_mat", "hashtag_mask",
                 "f_social", "f_demographic", "f_hashtag", "f_sentiment_text",
                 "f_sentiment_hashtags")


def extract_features(posts, caches: FeatureCaches, config: ModelConfig) -> FeatureBundle:
    """The stacked (B, ...) bundle of a batch of posts. One Post gives its
    unbatched bundle: row 0 of the batch [post].

    Each caption is tokenized once. Caption tokens (at d) and images (at
    k * n) each get a (B, width) index in their dim's slots. The hashtags
    get one (B, width) index of graph nodes: its first l columns gather the
    attention rows, and all of it the topic rows and node embeddings, from
    tables prepare built at the dims it was fitted for (another d or
    topic_dim is a ValueError). The one `tables` call draws only the tags
    the graph lacks (at d in the first l, at topic_dim all), whose rows then
    fill their positions. Every family is computed whatever the config.
    """
    if isinstance(posts, Post):
        return extract_features([posts], caches, config)[0]
    if not posts:
        raise ValueError("cannot featurize an empty batch")
    m, l, d, k, n, topic_dim = config.m, config.l, config.d, config.k, config.n, config.topic_dim
    if not {d, topic_dim} <= caches.tag_rows.keys():
        raise ValueError(f"the caches hold hashtag rows at dims {sorted(caches.tag_rows)}, not at "
                         f"d={d} and topic_dim={topic_dim}: fit them under this config")
    rows: dict[int, dict[str, int]] = {}  # dim -> key -> row in that dim's table
    tags = [post.hashtags for post in posts]
    captions = [tokenize(post.caption) for post in posts]
    token_index, _ = padded_index(rows.setdefault(d, {}), captions, m)
    node_index, topic_counts, lacking = caches.node_emb.index(tags, l)
    counts, fill = [*topic_counts], []
    for b, j in lacking:  # the graph lacks tags[b][j]: drawn, and the structure mean skips it
        counts[b] -= 1
        topics, key = rows.setdefault(topic_dim, {}), tags[b][j]
        fill.append((b, j, topics.setdefault(key, len(topics)),
                     rows[d].setdefault(key, len(rows[d])) if j < l else None))
    images = rows.setdefault(k * n, {})
    image_index = [images.setdefault(post.image_ref, len(images)) for post in posts]
    # each dim's draws in row order, then the zero row that index -1 gathers
    tables = caches.provider.tables(rows)
    tag_index, node_index = node_index[:, :l], node_index[:, :max(topic_counts)]
    hashtag_mat, topic_rows = caches.tag_rows[d][tag_index], caches.tag_rows[topic_dim][node_index]
    for b, j, topic_slot, tag_slot in fill:  # their rows fill their positions
        topic_rows[b, j] = tables[topic_dim][topic_slot]
        if j < l:
            hashtag_mat[b, j] = tables[d][tag_slot]
    sent_caption, sent_hashtags = sentiment_feature(posts, captions, caches.lexicon)
    return FeatureBundle(
        post_id=np.array([post.post_id for post in posts]),
        tokens=tables[d][token_index],
        token_mask=(token_index >= 0).astype(np.float64),
        regions=tables[k * n][image_index].reshape(-1, k, n),
        hashtag_mat=hashtag_mat,
        hashtag_mask=(tag_index >= 0).astype(np.float64),
        f_social=apply_pca(caches.pca, social_vector(posts, caches.social_stats)),
        f_demographic=demographic_vector(posts, mode=config.demographic_mode),
        f_hashtag=hashtag_feature(caches.node_emb, node_index, counts, topic_rows,
                                  topic_counts),
        f_sentiment_text=sent_caption,
        f_sentiment_hashtags=sent_hashtags,
        target=np.array([post.popularity for post in posts], dtype=np.float64),
    )


def extract_dataset(ds: Dataset, caches: FeatureCaches,
                    config: ModelConfig) -> FeatureBundle:
    """The stacked bundle of every post of `ds`: `extract_features(ds.posts)`."""
    return extract_features(ds.posts, caches, config)


# ---------------------------------------------------------------------------
# branch / head forward-backward
#
# Every layer below runs over any leading batch axes: a (B, n) input is B
# posts at once, an (n,) input one post. Parameter gradients are summed over
# the batch.

def branch_forward(f: np.ndarray, params: dict,
                   name: str) -> tuple[np.ndarray, list]:
    """Run (..., n) feature vectors through the conv-relu layers and flatten."""
    x = f[..., None]
    layer_cache = []
    for i in range(BRANCH_LAYERS):
        filters = params[f"branch.{name}.conv{i}.filters"]
        bias = params[f"branch.{name}.conv{i}.bias"]
        pre, cols = conv1d_forward(x, filters, bias)
        # relu in place: the backward's mask act > 0 is pre > 0
        x = np.maximum(pre, 0.0, out=pre)
        layer_cache.append((cols, x))
    return x.reshape(*x.shape[:-2], -1), layer_cache


def branch_backward(d_flat: np.ndarray, layer_cache: list, params: dict,
                    name: str) -> dict[str, np.ndarray]:
    grads = {}
    d = d_flat.reshape(layer_cache[-1][1].shape)
    for i in reversed(range(len(layer_cache))):
        cols, act = layer_cache[i]
        d = relu_backward(act, d)
        # the first layer's input is a feature vector, not a parameter
        d, d_f, d_b = conv1d_backward(cols, params[f"branch.{name}.conv{i}.filters"], d,
                                      input_grad=i > 0)
        grads[f"branch.{name}.conv{i}.filters"] = d_f
        grads[f"branch.{name}.conv{i}.bias"] = d_b
    return grads


def head_forward(x: np.ndarray, params: dict, config: ModelConfig,
                 rate: float = 0.0, draws: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """Dense-relu-dropout stack with a final linear unit.

    Returns one prediction per row of x: an (B,) array for a (B, n) batch,
    a scalar for one (n,) post. `rate` is the dropout rate (0 when scoring);
    `draws` (..., H) holds its uniform draws in [0, 1), H being the summed
    width of the hidden layers, and each hidden layer reads its own columns
    in order. Each layer's cache keeps the rate for the backward.
    """
    cache = []
    n = len(config.head_sizes)
    start = 0
    for i in range(n):
        w, b = params[f"head.dense{i}.W"], params[f"head.dense{i}.b"]
        pre = dense_forward(x, w, b)
        if i < n - 1:
            act = relu(pre)
            width = pre.shape[-1]
            out, keep = dropout(act, rate, None if draws is None
                                else draws[..., start:start + width])
            start += width
        else:
            out, keep = pre, None
        cache.append((x, pre, keep, rate))
        x = out
    return x[..., 0][()], cache  # [()] turns a one-post 0-d result into a scalar


def head_backward(d_y, cache: list,
                  params: dict) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    grads = {}
    n = len(cache)
    # in the compute dtype: that of the last layer's pre-activation
    d = np.asarray(d_y, dtype=cache[-1][1].dtype)[..., None]
    for i in reversed(range(n)):
        x_in, pre, keep, rate = cache[i]
        if i < n - 1:
            d = dropout_backward(d, keep, rate)
            d = relu_backward(pre, d)
        d_x, d_w, d_b = dense_backward(x_in, params[f"head.dense{i}.W"], d)
        grads[f"head.dense{i}.W"] = d_w
        grads[f"head.dense{i}.b"] = d_b
        d = d_x
    return d, grads


# ---------------------------------------------------------------------------
# full model

@dataclass
class ForwardCache:
    bundle: FeatureBundle
    lstm_cache: object | None
    att_cache: object | None
    branch_caches: dict  # by enabled branch, in merge order
    head_cache: list
    widths: list[int]  # of each part of the head's input: the branches, then content


def content_forward(bundle: FeatureBundle, params: dict, config: ModelConfig):
    """The content stage: caption LSTM, region projection, then attention.

    Returns (content, lstm_cache, att_cache). For hga/sa the attention cache
    carries the token and region weights; for na it is None.
    """
    text, lstm_cache = encoders.lstm_encode(bundle.tokens, bundle.token_mask, params)
    image = encoders.project_regions(bundle.regions, params)
    if config.attention == "na":
        return att.na_content(text, bundle.token_mask, image), lstm_cache, None
    if config.attention == "hga":
        content, att_cache = att.hga_attention(text, bundle.token_mask, image,
                                               bundle.hashtag_mat, bundle.hashtag_mask,
                                               params)
    else:
        content, att_cache = att.sa_attention(text, bundle.token_mask, image, params)
    return content, lstm_cache, att_cache


def forward_bundle(bundle: FeatureBundle, params: dict, config: ModelConfig,
                   rate: float = 0.0,
                   draws: np.ndarray | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Predictions for a stacked (B, ...) bundle, or one post's bundle.

    This is the one place the inputs are cast: each goes to the parameters'
    dtype, read from the first parameter (no copy when it is in it already),
    so the whole forward and backward pass computes in that dtype. `rate` is
    the head's dropout rate, 0 when scoring; `draws` are its uniforms, (B, H)
    for a stacked bundle or (H,) for one post (see `head_forward`).
    """
    dtype = next(iter(params.values())).dtype
    bundle = FeatureBundle(
        post_id=bundle.post_id, target=bundle.target,
        **{name: np.asarray(getattr(bundle, name), dtype=dtype)
           for name in _INPUT_FIELDS})
    lstm_cache = att_cache = None
    parts, branch_caches = [], {}
    for name, names in branch_fields(config).items():
        f = (getattr(bundle, names[0]) if len(names) == 1 else
             np.concatenate([getattr(bundle, n) for n in names], axis=-1))
        out, branch_caches[name] = branch_forward(f, params, name)
        parts.append(out)
    if config.use_content:
        content, lstm_cache, att_cache = content_forward(bundle, params, config)
        parts.append(content)
    y_hat, head_cache = head_forward(np.concatenate(parts, axis=-1), params, config,
                                     rate, draws)
    return y_hat, ForwardCache(bundle=bundle, lstm_cache=lstm_cache,
                               att_cache=att_cache, branch_caches=branch_caches,
                               head_cache=head_cache,
                               widths=[part.shape[-1] for part in parts])


def backward_bundle(d_y, fcache: ForwardCache, params: dict,
                    config: ModelConfig) -> dict[str, np.ndarray]:
    """Gradient of sum(d_y * y_hat) w.r.t. every parameter, over the batch."""
    d_merged, grads = head_backward(d_y, fcache.head_cache, params)
    d_parts = [d_merged[..., end - width:end]
               for width, end in zip(fcache.widths, accumulate(fcache.widths))]
    for (name, layer_cache), d_out in zip(fcache.branch_caches.items(), d_parts):
        grads.update(branch_backward(d_out, layer_cache, params, name))
    if config.use_content:
        bundle = fcache.bundle
        d_content = d_parts[-1]
        if config.attention in ("hga", "sa"):
            att_grads, d_text, d_image = att.hga_backward(d_content,
                                                          fcache.att_cache, params)
            grads.update(att_grads)
        else:
            d_text, d_image = att.na_backward(d_content, bundle.token_mask,
                                              bundle.tokens.shape[-2],
                                              bundle.regions.shape[-2])
        grads.update(encoders.lstm_backward(d_text, fcache.lstm_cache, params))
        grads.update(encoders.project_regions_backward(bundle.regions, d_image))
    return grads


def loss_mse(preds: np.ndarray, targets: np.ndarray) -> float:
    """Training objective: squared residuals scaled by 1/(2n)."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {targets.shape}")
    if preds.size == 0:
        raise ValueError("loss over an empty batch")
    return float(np.sum((preds - targets) ** 2) / (2.0 * preds.size))


def batch_loss_and_grads(batch: FeatureBundle, params: dict, config: ModelConfig,
                         rate: float = 0.0, draws: np.ndarray | None = None):
    """Loss over a stacked batch plus the summed parameter gradients.

    `rate` and `draws` are the dropout rate and uniforms of
    `forward_bundle`. The gradient of the 1/(2n) objective w.r.t. each
    prediction is (pred - target) / n; one backward pass over the batch
    scales each post's gradient by that and sums them.
    """
    preds, fcache = forward_bundle(batch, params, config, rate, draws)
    d_y = (preds - batch.target) / len(batch.target)
    grads = backward_bundle(d_y, fcache, params, config)
    return loss_mse(preds, batch.target), grads, preds


# ---------------------------------------------------------------------------
# checkpoint serialization
#
# A checkpoint is an uncompressed numpy .npz archive (a zip file) with the
# members `version`, `config` (the JSON of `asdict(config)`), `names` (the
# parameter names in order) and one `param/<name>` per parameter array, each
# as `param_shapes(config)` gives it. Zip's CRC-32 on each member catches corrupt bytes.

_CKPT_VERSION = 5
# What numpy and zipfile raise on an archive they cannot decode.
_DECODE_ERRORS = (zipfile.BadZipFile, EOFError, KeyError, OSError, ValueError,
                  TypeError, RuntimeError, NotImplementedError, TokenError)


class CheckpointError(ValueError):
    """Corrupt, wrong-version, or incompatible checkpoint file."""


def save_checkpoint(params: dict, config: ModelConfig, path) -> None:
    """Write the checkpoint atomically.

    The bytes go to a temporary file in the same directory, which replaces
    `path` only once complete and synced, so an interrupted write leaves any
    previous checkpoint at `path` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    names = list(params)
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, version=np.array(_CKPT_VERSION),
                     config=np.array(json.dumps(asdict(config), sort_keys=True)),
                     names=np.array(names),
                     **{f"param/{name}": params[name] for name in names})
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, expected_config: ModelConfig | None = None):
    """Read (params, config); optionally verify config compatibility.

    A file that cannot be decoded, truncated anywhere included, raises
    CheckpointError.
    """
    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):
            raise CheckpointError(
                f"{path} is not a format-{_CKPT_VERSION} checkpoint: it is truncated, "
                "corrupt or from an older version; re-train it")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                members = {name: archive[name] for name in archive.files}
            version = int(members["version"])
            blob = str(members["config"])
            names = [str(name) for name in members["names"]]
        except _DECODE_ERRORS as e:
            raise CheckpointError(f"corrupt checkpoint {path}: {e!r}") from e
    if version != _CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}; re-train it")
    if set(members) != {"version", "config", "names", *(f"param/{name}" for name in names)}:
        raise CheckpointError(f"checkpoint members do not match its parameter names: {path}")
    try:
        config = ModelConfig(**json.loads(blob))
    except (ValueError, TypeError, KeyError, AttributeError) as e:
        raise CheckpointError(f"unreadable checkpoint configuration: {e!r}") from e
    for i, (got, want) in enumerate(zip_longest(  # each parameter as its config gives it
            ((name, members[f"param/{name}"].shape) for name in names),
            param_shapes(config).items())):
        if got != want:
            raise CheckpointError(f"checkpoint parameter {i} is {got or 'missing'}, but its "
                                  f"configuration's is {want or 'none'}: {path} is corrupt")
    if expected_config is not None and config != expected_config:
        raise CheckpointError("checkpoint was trained under a different configuration; "
                              "re-train or pass the matching config")
    return {name: members[f"param/{name}"] for name in names}, config
