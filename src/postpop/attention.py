"""Hashtag-guided attention over token and region features.

Scores mix each content row with a pooled hashtag vector through a tanh
layer, then a masked softmax turns them into per-token and per-region
weights; the content vector is the sum of the two attended features.
`hga_attention` and `sa_attention` return (content, AttentionCache), and the
cache holds the token and region weights. Ablation variants: self-attention
(no hashtags, so the pooled hashtag vector is zero) and no-attention (plain
means). Every function runs over leading batch axes: (B, M, D) text is B
posts at once, (M, D) text is one post.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import ShapeError, flat_rows, softmax, softmax_backward


def attention_param_shapes(d: int, a: int) -> dict[str, tuple[int, ...]]:
    return {"att.Ut": (d, a), "att.Vt": (d, a), "att.wt": (a,),
            "att.Ui": (d, a), "att.Vi": (d, a), "att.wi": (a,)}


@dataclass
class AttentionCache:
    text: np.ndarray
    text_mask: np.ndarray
    image: np.ndarray
    pooled_hashtag: np.ndarray
    y_text: np.ndarray
    y_image: np.ndarray
    alpha_text: np.ndarray
    alpha_image: np.ndarray


def _weighted_sum(alpha: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i alpha[..., i] * rows[..., i, :] for every leading index."""
    return (alpha[..., None, :] @ rows)[..., 0, :]


def pooled_hashtag(hashtag_mat: np.ndarray, hashtag_mask: np.ndarray) -> np.ndarray:
    """Masked mean of (..., L, D) hashtag rows; zero vector when a post has none."""
    count = hashtag_mask.sum(axis=-1, keepdims=True)
    return _weighted_sum(hashtag_mask, hashtag_mat) / np.maximum(count, 1)


def hga_attention(text: np.ndarray, text_mask: np.ndarray, image: np.ndarray,
                  hashtag_mat: np.ndarray, hashtag_mask: np.ndarray,
                  params: dict) -> tuple[np.ndarray, AttentionCache]:
    """Hashtag-guided attention: the fused (..., D) content vector and the
    cache its backward pass reads.

    text: (..., M, D) with (..., M) binary mask; image: (..., K, D);
    hashtag_mat: (..., L, D) with mask. Leading axes are batch axes. A fully
    masked caption gets all-zero token weights and contributes nothing.
    """
    ut, vt, wt = params["att.Ut"], params["att.Vt"], params["att.wt"]
    ui, vi, wi = params["att.Ui"], params["att.Vi"], params["att.wi"]
    d = text.shape[-1]
    if image.shape[-1] != d or ut.shape[0] != d:
        raise ShapeError(
            f"dimension mismatch: text D={d}, image D={image.shape[-1]}, Ut rows={ut.shape[0]}")
    if hashtag_mat.shape[-1] != d:
        raise ShapeError(f"hashtag dim {hashtag_mat.shape[-1]} != D={d}")

    hbar = pooled_hashtag(hashtag_mat, hashtag_mask)

    y_text = np.tanh(text @ ut + (hbar @ vt)[..., None, :])
    alpha_text = softmax(y_text @ wt, text_mask)

    y_image = np.tanh(image @ ui + (hbar @ vi)[..., None, :])
    alpha_image = softmax(y_image @ wi)

    content = _weighted_sum(alpha_text, text) + _weighted_sum(alpha_image, image)
    cache = AttentionCache(text=text, text_mask=text_mask, image=image,
                           pooled_hashtag=hbar, y_text=y_text, y_image=y_image,
                           alpha_text=alpha_text, alpha_image=alpha_image)
    return content, cache


def _score_backward(d_content, rows, alpha, y, u, w, mask=None):
    """Backward of one attended branch, sum_i softmax(tanh(rows U + hbar V) w)_i rows_i.

    Returns (d_rows, d_w, d_u, d_pre) where d_pre (..., n, A) is the
    gradient at the tanh input, from which the caller forms the V gradient.
    """
    d_alpha = (rows @ d_content[..., :, None])[..., 0]
    d_rows = alpha[..., :, None] * d_content[..., None, :]
    d_score = softmax_backward(alpha, d_alpha, mask)
    d_pre = d_score[..., None] * w * (1.0 - y ** 2)
    d_rows += d_pre @ u.T
    d_w = flat_rows(y).T @ d_score.reshape(-1)
    d_u = flat_rows(rows).T @ flat_rows(d_pre)
    return d_rows, d_w, d_u, d_pre


def hga_backward(d_content: np.ndarray, cache: AttentionCache,
                 params: dict) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Gradients of the content vector w.r.t. attention params, text, image.

    Parameter gradients are summed over every leading (batch) axis.
    """
    hbar = cache.pooled_hashtag
    grads = {}
    d_text, grads["att.wt"], grads["att.Ut"], d_pre_t = _score_backward(
        d_content, cache.text, cache.alpha_text, cache.y_text,
        params["att.Ut"], params["att.wt"], cache.text_mask)
    d_image, grads["att.wi"], grads["att.Ui"], d_pre_i = _score_backward(
        d_content, cache.image, cache.alpha_image, cache.y_image,
        params["att.Ui"], params["att.wi"])
    for name, d_pre in (("att.Vt", d_pre_t), ("att.Vi", d_pre_i)):
        grads[name] = flat_rows(hbar).T @ flat_rows(d_pre.sum(axis=-2))
    return grads, d_text, d_image


def sa_attention(text, text_mask, image, params) -> tuple[np.ndarray, AttentionCache]:
    """Self-attention ablation: scoring without the hashtag signal. Its one
    fully masked hashtag row pools to zero, so the V terms add nothing."""
    dummy = np.zeros(image.shape[:-2] + (1, text.shape[-1]), dtype=text.dtype)
    return hga_attention(text, text_mask, image, dummy, dummy[..., 0], params)


def na_content(text: np.ndarray, text_mask: np.ndarray,
               image: np.ndarray) -> np.ndarray:
    """No-attention ablation: masked token mean plus region mean."""
    count = text_mask.sum(axis=-1, keepdims=True)
    return _weighted_sum(text_mask, text) / np.maximum(count, 1) + image.mean(axis=-2)


def na_backward(d_content: np.ndarray, text_mask: np.ndarray,
                m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of na_content w.r.t. (..., m, D) text and (..., k, D) image rows."""
    if text_mask.shape[-1] != m:
        raise ShapeError(f"text mask length {text_mask.shape[-1]} != m={m}")
    count = text_mask.sum(axis=-1, keepdims=True)
    d_text = (text_mask / np.maximum(count, 1))[..., :, None] * d_content[..., None, :]
    d_image = np.repeat((d_content / k)[..., None, :], k, axis=-2)
    return d_text, d_image
