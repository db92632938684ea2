import numpy as np
import pytest

from postpop.data import Post, PostMetadata
from postpop.model import FeatureBundle, ModelConfig, TINY_BRANCH_SPEC


def tiny_config(**overrides) -> ModelConfig:
    """Small configuration used across the unit tests."""
    base = dict(
        m=3, k=4, l=2, d=5, a=6, n=6,
        topic_dim=8, structure_dim=4, pca_k=4,
        demographic_mode="ordinal",
        attention="hga",
        branch_specs={name: TINY_BRANCH_SPEC
                      for name in ("social", "demographic", "hashtag", "sentiment")},
        head_sizes=(8, 4, 1),
    )
    base.update(overrides)
    return ModelConfig(**base)


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
