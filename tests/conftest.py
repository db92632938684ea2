import numpy as np
import pytest

from postpop.data import Post, PostMetadata
from postpop.model import (_INPUT_FIELDS, BRANCHES, BranchSpec, FeatureBundle,
                           ModelConfig, forward_bundle, loss_mse)
from postpop.providers import EmbeddingProvider, tokenize


def tiny_config(**overrides) -> ModelConfig:
    """Small configuration used across the unit tests."""
    base = dict(
        m=3, k=4, l=2, d=5, a=6, n=6,
        topic_dim=8, structure_dim=4, pca_k=4,
        demographic_mode="ordinal",
        attention="hga",
        branch_specs={name: BranchSpec(widths=(2, 2, 2), channels=(2, 2, 2))
                      for name in BRANCHES},
        head_sizes=(8, 4, 1),
    )
    base.update(overrides)
    return ModelConfig(**base)


def batch_loss(batch: FeatureBundle, params: dict, config: ModelConfig) -> float:
    """Dropout-free batch objective: what the finite-difference oracle
    differentiates."""
    preds, _ = forward_bundle(batch, params, config)
    return loss_mse(preds, batch.target)


def random_bundle(rng, config: ModelConfig, n_tokens=None, n_hashtags=None,
                  target=None) -> FeatureBundle:
    """Random feature bundle with the given number of live tokens/hashtags."""
    if n_tokens is None:
        n_tokens = int(rng.integers(0, config.m + 1))
    if n_hashtags is None:
        n_hashtags = int(rng.integers(0, config.l + 1))
    mask = np.zeros(config.m)
    mask[:n_tokens] = 1.0
    hmask = np.zeros(config.l)
    hmask[:n_hashtags] = 1.0
    return FeatureBundle(
        post_id="synthetic",
        tokens=rng.uniform(-1, 1, (config.m, config.d)) * mask[:, None],
        token_mask=mask,
        regions=rng.uniform(-1, 1, (config.k, config.n)),
        hashtag_mat=rng.uniform(-1, 1, (config.l, config.d)) * hmask[:, None],
        hashtag_mask=hmask,
        f_social=rng.uniform(-1, 1, config.pca_k),
        f_demographic=rng.uniform(0, 1, config.demographic_dim),
        f_hashtag=rng.uniform(-1, 1, config.hashtag_dim),
        f_sentiment_text=rng.dirichlet(np.ones(5)),
        f_sentiment_hashtags=rng.dirichlet(np.ones(5)),
        target=float(rng.normal()) if target is None else target,
    )


def stack(bundles) -> FeatureBundle:
    """One (B, ...) bundle from B one-post bundles."""
    return FeatureBundle(
        post_id=np.array([b.post_id for b in bundles]),
        target=np.array([b.target for b in bundles], dtype=np.float64),
        **{name: np.array([getattr(b, name) for b in bundles]) for name in _INPUT_FIELDS})


def pass_requests(posts, cfg, caches) -> list[tuple[str, int]]:
    """Every (key, dim) draw a featurization pass needs: caption tokens at
    d, the image at k * n, and the hashtags that the caches' graph lacks, at
    d within the first l and at topic_dim all. A graph tag's rows were drawn
    when the caches were fitted."""
    nodes = caches.graph.nodes
    out = []
    for post in posts:
        out += [(tok, cfg.d) for tok in tokenize(post.caption)[:cfg.m]]
        out += [(tag, cfg.d) for tag in post.hashtags[:cfg.l] if tag not in nodes]
        out += [(tag, cfg.topic_dim) for tag in post.hashtags if tag not in nodes]
        out.append((post.image_ref, cfg.k * cfg.n))
    return out


def make_post(post_id="p0", user_id="u0", caption="hello world", hashtags=(),
              image_ref="img0", faces=(), popularity=1.0, **meta) -> Post:
    meta.setdefault("tag_count", len(hashtags))
    return Post(
        post_id=post_id, user_id=user_id, caption=caption,
        hashtags=tuple(hashtags), image_ref=image_ref,
        faces=tuple(faces), metadata=PostMetadata(**meta),
        popularity=popularity,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class DrawLog:
    """The provider draws seen by the `draw_log` fixture.

    `drawn` lists each (key, dim) drawn, whichever way: every key of a
    `tables` call, and every `vector` call made outside one. `per_key`
    lists every `vector` call, inside `tables` (a dim of one key, or any key
    of a `precomputed_file` provider) or not.
    """

    def __init__(self):
        self.drawn: list[tuple[str, int]] = []
        self.per_key: list[tuple[str, int]] = []
        self.depth = 0


@pytest.fixture
def draw_log(monkeypatch) -> DrawLog:
    log = DrawLog()
    vector, tables = EmbeddingProvider.vector, EmbeddingProvider.tables

    def spy_vector(self, key, dim):
        log.per_key.append((key, dim))
        if not log.depth:
            log.drawn.append((key, dim))
        return vector(self, key, dim)

    def spy_tables(self, keys_by_dim):
        keys_by_dim = {dim: list(keys) for dim, keys in keys_by_dim.items()}
        log.drawn += [(key, dim) for dim, keys in keys_by_dim.items() for key in keys]
        log.depth += 1
        try:
            return tables(self, keys_by_dim)
        finally:
            log.depth -= 1

    monkeypatch.setattr(EmbeddingProvider, "vector", spy_vector)
    monkeypatch.setattr(EmbeddingProvider, "tables", spy_tables)
    return log
