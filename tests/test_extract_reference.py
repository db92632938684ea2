"""Differential oracle for featurization's hashtag path.

`reference_extract_features` is the featurizer as it was before the hashtags
were numbered through the graph: it numbers a pass's hashtags three times
(attention rows at d, topic rows at topic_dim, graph nodes for the
structure part) and draws every key of every pass, graph tags included.
`extract_features` must give every field byte for byte as it does.
"""

import random
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import make_post, tiny_config
from postpop.cli import model_config_from, resolve_config
from postpop.features import apply_pca, demographic_vector, sentiment_feature, social_vector
from postpop.model import FeatureBundle, build_caches, extract_features
from postpop.numeric import padded_index, pooled_mean
from postpop.providers import tokenize

REPO = Path(__file__).resolve().parents[1]


def reference_extract_features(posts, caches, config) -> FeatureBundle:
    m, l, d, k, n = config.m, config.l, config.d, config.k, config.n
    rows: dict[int, dict[str, int]] = {}
    tags = [post.hashtags for post in posts]
    captions = [tokenize(post.caption) for post in posts]
    token_index, _ = padded_index(rows.setdefault(d, {}), captions, m)
    tag_index, _ = padded_index(rows[d], tags, l)
    topic_index, topic_counts = padded_index(rows.setdefault(config.topic_dim, {}), tags)
    images = rows.setdefault(k * n, {})
    image_index = [images.setdefault(post.image_ref, len(images)) for post in posts]
    tables = caches.provider.tables(rows)
    sent_caption, sent_hashtags = sentiment_feature(posts, captions, caches.lexicon)
    emb = caches.node_emb
    node_index, counts = padded_index(emb.rows, [[t for t in post.hashtags if t in emb.rows]
                                                 for post in posts])
    f_hashtag = np.concatenate([pooled_mean(tables[config.topic_dim][topic_index], topic_counts),
                                pooled_mean(emb.table[node_index], counts)], axis=-1)
    return FeatureBundle(
        post_id=np.array([post.post_id for post in posts]),
        tokens=tables[d][token_index],
        token_mask=(token_index >= 0).astype(np.float64),
        regions=tables[k * n][image_index].reshape(-1, k, n),
        hashtag_mat=tables[d][tag_index],
        hashtag_mask=(tag_index >= 0).astype(np.float64),
        f_social=apply_pca(caches.pca, social_vector(posts, caches.social_stats)),
        f_demographic=demographic_vector(posts, mode=config.demographic_mode),
        f_hashtag=f_hashtag,
        f_sentiment_text=sent_caption,
        f_sentiment_hashtags=sent_hashtags,
        target=np.array([post.popularity for post in posts], dtype=np.float64),
    )


GRAPH_TAGS = [f"g{i}" for i in range(12)]
WORDS = ["sun", "sea", "good", "bad", "city", "g3", "x2", "calm"]


def corpus(seed: int):
    """(training posts, posts to featurize). Every graph tag is on some
    training post; no x-tag is. The posts mix graph tags and tags the graph
    lacks, inside and past the first l, up to 17 tags (so the one-wide sums
    go pairwise), repeated tags, tags that are also caption tokens (g3, x2),
    a tag that tokenizes to nothing, and tagless posts."""
    draw = random.Random(seed)
    train = [make_post(post_id=f"t{i}", caption=" ".join(draw.choices(WORDS, k=3)),
                       hashtags=(GRAPH_TAGS[i % 12], *draw.sample(GRAPH_TAGS, 2)),
                       image_ref=f"ti{i}", comment_count=i)
             for i in range(24)]
    pool = GRAPH_TAGS + ["x0", "x1", "x2", "x3", "!!!"]
    posts = []
    for i in range(50):
        size = draw.choice([0, 0, 1, 2, 3, 5, 9, 12, 14, 16])
        tags = draw.choices(pool, k=size)
        if size and i % 3 == 0:
            tags.append(tags[0])  # a repeated tag
        posts.append(make_post(post_id=f"p{i}", caption=" ".join(draw.choices(WORDS, k=i % 5)),
                               hashtags=tags, image_ref=f"img{i % 17}",
                               comment_count=draw.randint(0, 40), popularity=draw.random()))
    return train, posts


CONFIGS = {
    "tiny": tiny_config(),
    "tiny structure_dim=1": tiny_config(structure_dim=1),
    "desk": model_config_from(resolve_config(REPO / "configs" / "desk.cfg")),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_field_equals_the_reference(name):
    cfg = CONFIGS[name]
    train, posts = corpus(7)
    caches = build_caches(train, cfg)
    lacking = {t for post in posts for t in post.hashtags} - caches.graph.nodes.keys()
    assert lacking == {"x0", "x1", "x2", "x3", "!!!"}
    assert any(t in lacking for post in posts for t in post.hashtags[:cfg.l])
    assert any(t in lacking for post in posts for t in post.hashtags[cfg.l:])
    assert any(not post.hashtags for post in posts)
    assert any(len(set(post.hashtags)) < len(post.hashtags) for post in posts)
    assert any({"g3", "x2"} & set(post.hashtags) & set(tokenize(post.caption)) for post in posts)
    for size in (1, 7, 50):
        for start in range(0, len(posts), size):
            batch = posts[start:start + size]
            got = extract_features(batch, caches, cfg)
            want = reference_extract_features(batch, caches, cfg)
            for f in fields(FeatureBundle):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert a.dtype == b.dtype and a.shape == b.shape, (name, size, start, f.name)
                assert a.tobytes() == b.tobytes(), (name, size, start, f.name)


def test_desk_config_shares_one_tag_table():
    cfg = CONFIGS["desk"]
    assert cfg.d == cfg.topic_dim != tiny_config().d
    caches = build_caches(corpus(7)[0], cfg)
    assert list(caches.tag_rows) == [cfg.d]
    table = caches.tag_rows[cfg.d]
    assert table.shape == (len(caches.graph.nodes) + 1, cfg.d)
    assert table[-1].tobytes() == bytes(8 * cfg.d)
    for tag, node in caches.node_emb.rows.items():
        assert table[node].tobytes() == caches.provider.vector(tag, cfg.d).tobytes()


def test_structure_dim_one_with_tagless_caches():
    # no training post has a tag: every tag of a pass is one the graph lacks
    cfg = CONFIGS["tiny structure_dim=1"]
    train = [make_post(post_id=f"t{i}", hashtags=(), comment_count=i) for i in range(5)]
    caches = build_caches(train, cfg)
    posts = corpus(8)[1]
    got = extract_features(posts, caches, cfg)
    want = reference_extract_features(posts, caches, cfg)
    for f in fields(FeatureBundle):
        assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name
