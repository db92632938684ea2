"""Demographic, sentiment, and social/temporal feature encoders, plus PCA.

Block layout of the demographic one-hot vector (116 dims):
gender [0:2) + age [2:103) + emotion [103:110) + race [110:116).
The social vector is 9 z-scored numerics + day(7) + month(12) + time
segment(4) one-hots + raw duration = 33 dims, reduced to 6 by PCA.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .data import EMOTIONS, GENDERS, RACES
from .providers import tokenize

DEMOGRAPHIC_DIM = 2 + 101 + 7 + 6  # 116
SOCIAL_RAW_DIM = 9 + 7 + 12 + 4 + 1  # 33
SENTIMENT_CLASSES = 5
SOCIAL_NUMERICS = ("user_id_hash", "avg_views", "group_count", "avg_member_count",
                   "tag_count", "title_length", "description_length",
                   "tagged_people", "comment_count", "post_duration_days")


_GENDER = {g: i for i, g in enumerate(GENDERS)}
_EMOTION = {e: i for i, e in enumerate(EMOTIONS)}
_RACE = {r: i for i, r in enumerate(RACES)}


def demographic_vector(posts, mode: str = "onehot") -> np.ndarray:
    """(B, dim) face encodings of a batch of posts: each post's faces are
    averaged, and a post with none gives zeros.

    mode 'onehot' averages the 116-dim concatenation of one-hot blocks;
    mode 'ordinal' averages the 4-dim (gender, age, emotion, race) indices.
    A post's sum is a sum of small integers, exact in float64, so dividing
    it by the face count equals the mean of the per-face rows bit for bit.
    """
    if mode not in ("onehot", "ordinal"):
        raise ValueError(f"unknown demographic mode {mode!r}")
    onehot = mode == "onehot"
    dim = DEMOGRAPHIC_DIM if onehot else 4
    flat, weights, faces = [], [], []
    for b, post in enumerate(posts):
        faces.append(len(post.faces) or 1)
        for face in post.faces:
            codes = (_GENDER[face.gender], face.age, _EMOTION[face.emotion],
                     _RACE[face.race])
            if onehot:
                g, age, emotion, race = codes
                flat += (b * dim + g, b * dim + 2 + age, b * dim + 103 + emotion,
                         b * dim + 110 + race)
                weights += (1.0, 1.0, 1.0, 1.0)
            else:
                flat += range(b * dim, b * dim + 4)
                weights += codes
    sums = np.bincount(np.array(flat, dtype=np.intp), np.array(weights, dtype=np.float64),
                       minlength=len(faces) * dim)
    return sums.reshape(-1, dim) / np.array(faces, dtype=np.float64)[:, None]


class SentimentLexicon:
    """Word -> class (0..4) lookup, loaded from `word<TAB>class` lines."""

    def __init__(self, table: dict[str, int]):
        for word, cls in table.items():
            if not 0 <= cls <= 4:
                raise ValueError(f"class {cls} for {word!r} outside 0..4")
        self.table = dict(table)

    @classmethod
    def from_file(cls, path) -> "SentimentLexicon":
        table = {}
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    word, c = line.split("\t")
                    table[word] = int(c)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected word<TAB>class, "
                                     f"got {line!r}") from None
                if not 0 <= table[word] <= 4:
                    raise ValueError(f"{path}:{lineno}: class {int(c)} for {word!r} outside 0..4")
        return cls(table)

    @classmethod
    def bundled(cls) -> "SentimentLexicon":
        """The lexicon in `assets/`, read once per process: each call gives
        a new instance that owns a copy of the table."""
        return cls(_bundled_table())

    def __len__(self):
        return len(self.table)


@functools.cache
def _bundled_table() -> MappingProxyType:
    """The parsed `assets/sentiment_lexicon.tsv`, read-only."""
    ref = resources.files("postpop").joinpath("assets/sentiment_lexicon.tsv")
    with resources.as_file(ref) as path:
        return MappingProxyType(SentimentLexicon.from_file(path).table)


def sentiment_scores(token_lists, lexicon: SentimentLexicon) -> np.ndarray:
    """(n, 5): each token list's class distribution of lexicon hits, with
    add-one smoothing. No hits (or no tokens) gives the uniform distribution.

    A hit of list r in class c is bin r * 5 + c of one `bincount`; `1.0 +
    counts` holds small integers, exact in float64, so every bit equals
    counting one hit at a time."""
    get = lexicon.table.get
    hits = [r * SENTIMENT_CLASSES + c for r, tokens in enumerate(token_lists)
            for c in map(get, tokens) if c is not None]
    counts = 1.0 + np.bincount(hits, minlength=len(token_lists) * SENTIMENT_CLASSES)
    counts = counts.reshape(-1, SENTIMENT_CLASSES)
    return counts / counts.sum(axis=1, keepdims=True)


def sentiment_feature(posts, caption_tokens,
                      lexicon: SentimentLexicon) -> tuple[np.ndarray, np.ndarray]:
    """(caption_dist, hashtag_dist): the caption and hashtags-as-a-sentence
    distributions, (B, 5) each, of a batch of posts; `caption_tokens[b]` is
    `tokenize(posts[b].caption)`. Both are one `sentiment_scores` count over
    every token of the batch."""
    hashtag_tokens = [tokenize(" ".join(post.hashtags)) for post in posts]
    dist = sentiment_scores([*caption_tokens, *hashtag_tokens], lexicon)
    n = len(hashtag_tokens)
    return dist[:n], dist[n:]


def _hash_unit(s: str) -> float:
    digest = hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


def social_numerics(posts) -> np.ndarray:
    """(B, 10): the 9 raw numeric social features in fixed order, then the
    post duration in days; the columns are named by SOCIAL_NUMERICS.

    Each distinct user id is hashed once per call.
    """
    unit = {user: _hash_unit(user) for user in {post.user_id for post in posts}}
    return np.array([
        (unit[post.user_id], m.avg_views, m.group_count, m.avg_member_count,
         m.tag_count, m.title_length, m.description_length, m.tagged_people,
         m.comment_count, m.post_duration_days)
        for post in posts for m in (post.metadata,)], dtype=np.float64)


@dataclass(frozen=True)
class SocialStats:
    """Training-split mean/std for z-scoring the numeric social features.

    Index 9 holds the post-duration statistics; the duration is z-scored
    alongside the other numerics so no single raw scale dominates the PCA.
    """

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, numerics: np.ndarray) -> "SocialStats":
        """Column statistics of the training split's `social_numerics` matrix.

        A column whose mean or std overflows float64 raises ValueError that
        names it: an inf std would z-score the column to 0 for every post,
        and an inf mean would make every social feature NaN.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            mean = numerics.mean(axis=0)
            std = numerics.std(axis=0)
        bad = ~(np.isfinite(mean) & np.isfinite(std))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"social feature {SOCIAL_NUMERICS[i]!r} overflows float64 over the "
                f"{len(numerics)} training post(s): mean {mean[i]!r}, std {std[i]!r}")
        std = np.where(std > 0, std, 1.0)  # constant features contribute 0 after centering
        return cls(mean=mean, std=std)


def time_segment(hour: int) -> int:
    """Four 6-hour blocks from midnight: 0-5, 6-11, 12-17, 18-23."""
    if not 0 <= hour <= 23:
        raise ValueError(f"hour {hour} outside 0..23")
    return hour // 6


def social_vector(posts, stats: SocialStats, numerics: np.ndarray | None = None) -> np.ndarray:
    """(B, 33) raw social vectors of a batch of posts: z-scored numerics,
    calendar one-hots, z-scored duration.

    `numerics` is `social_numerics(posts)`, for a caller that has it already.
    """
    if numerics is None:
        numerics = social_numerics(posts)
    z = (numerics - stats.mean) / stats.std
    out = np.zeros((len(z), SOCIAL_RAW_DIM))
    out[:, :9] = z[:, :9]
    out[:, 32] = z[:, 9]
    hot = np.array([(9 + m.post_day, 16 + m.post_month, 28 + time_segment(m.post_hour))
                    for m in (post.metadata for post in posts)], dtype=np.intp)
    out[np.arange(len(out))[:, None], hot] = 1.0
    return out


@dataclass(frozen=True)
class PCAModel:
    """Mean, orthonormal components (k x d), and per-component variances."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray


def fit_pca(rows: np.ndarray, k: int) -> PCAModel:
    """Top-k principal axes of mean-centered rows via SVD.

    Explained variances are the sample variances (ddof=1) of the projected
    training rows, sorted descending.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    n, d = rows.shape
    if n < 2:
        raise ValueError(f"PCA needs at least 2 rows, got {n}")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k={k} outside [1, min(n-1, d)] = [1, {min(n - 1, d)}]")
    mean = rows.mean(axis=0)
    centered = rows - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variance = s ** 2 / (n - 1)
    return PCAModel(mean=mean, components=vt[:k], explained_variance=variance[:k])


def apply_pca(model: PCAModel, v: np.ndarray) -> np.ndarray:
    """Project vectors onto the principal axes: components @ (v - mean),
    over any leading batch axes.

    Each row is a (k, d) @ (d, 1) product, so a row rounds the same in a
    batch of any size.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != model.mean.shape:
        raise ValueError(f"vector shape {v.shape} != model dim {model.mean.shape}")
    return np.matmul(model.components, (v - model.mean)[..., None])[..., 0]


def fit_social_pca(posts, stats: SocialStats, numerics: np.ndarray, k: int = 6) -> PCAModel:
    """PCA of the posts' raw social vectors; `numerics` is social_numerics(posts)."""
    return fit_pca(social_vector(posts, stats, numerics), k)
