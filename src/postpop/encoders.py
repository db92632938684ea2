"""Recurrent caption encoder and the image-region projection layer.

The encoder is a single unidirectional LSTM whose hidden size matches the
embedding dimension, so its stacked hidden states feed the attention stage
directly. Masked (padding) steps copy the previous state forward and emit a
zero row. Both layers run over any leading batch axes: (B, M, D) tokens are
B captions stepped together, and (M, D) tokens are one caption.

The LSTM's cost is the number of numpy calls per time step, not FLOPs, so
its kernel keeps that number small (after Appleyard, Kocisky & Blunsom 2016,
"Optimizing Performance of Recurrent Neural Networks on GPUs"):
- the input part of every pre-activation, tokens @ Wx + b, is one product
  before the loop, and each step activates its row in place: 13 calls a
  step;
- states live in time-major (M + 1, ..., H) buffers: step t reads row t and
  writes row t + 1, so no step allocates a state, and only a step after an
  unused one copies it;
- a masked step is merged in (`np.copyto(..., where=)`) only on steps that
  some but not all sequences use, and a step no sequence uses is skipped;
- the backward pass computes tanh(c) and the gate-derivative factors for all
  steps before its loop, so a step that every sequence uses is 7 calls: dh,
  dc (two), two broadcast products into dz, dz @ Wh.T and dc * f.
The forward pass is bitwise equal to the plain per-step formulation
(sigmoid as 1 / (1 + exp(-z)), tanh on the g gate), which the tests keep as
their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import ShapeError, flat_rows


def _schedule(live: np.ndarray) -> list[tuple[int, bool]]:
    """(t, partial) for every step live in at least one sequence of a
    (..., M, 1) mask; `partial` marks a step that some sequence skips."""
    counts = live.reshape(-1, live.shape[-2]).sum(axis=0).tolist()
    n_seqs = math.prod(live.shape[:-2])
    return [(t, n < n_seqs) for t, n in enumerate(counts) if n]


def _time_major(x: np.ndarray) -> np.ndarray:
    """(..., M, n) -> (M, ..., n), as a view."""
    return x.transpose(x.ndim - 2, *range(x.ndim - 2), x.ndim - 1)


def lstm_param_shapes(d_in: int, d_hidden: int) -> dict[str, tuple[int, ...]]:
    """Fused 4-gate weights in i|f|g|o order."""
    return {"lstm.Wx": (d_in, 4 * d_hidden), "lstm.Wh": (d_hidden, 4 * d_hidden),
            "lstm.b": (4 * d_hidden,)}


@dataclass
class LstmCache:
    """What the backward pass reads from one forward pass, time-major.

    Row t of `h` and `c`, (M + 1, ..., H), is the state entering step t, and
    row t + 1 the state leaving it, for every step some sequence uses; no
    other row is read. `gates[t, k]`, (M, 4, ..., H), is step t's activated gate k,
    in i|f|g|o order.
    """

    tokens: np.ndarray
    live: np.ndarray  # (M, ..., 1) bool
    steps: list       # _schedule of the (..., M, 1) mask
    h: np.ndarray
    c: np.ndarray
    gates: np.ndarray


def lstm_encode(tokens: np.ndarray, mask: np.ndarray,
                params: dict) -> tuple[np.ndarray, LstmCache]:
    """Encode (..., M, D_in) tokens into (..., M, D_hidden) hidden states.

    Every leading axis is a batch axis: all sequences step together, and a
    masked step of one sequence carries its state and emits a zero row.
    """
    wx, wh, b = params["lstm.Wx"], params["lstm.Wh"], params["lstm.b"]
    *lead, m_steps, d_in = tokens.shape
    if wx.shape[0] != d_in:
        raise ShapeError(f"lstm input dim {d_in} != Wx rows {wx.shape[0]}")
    hid = wh.shape[0]
    # Each step's pre-activation starts as its input part, copied to
    # (M, 4, ..., H) so that every gate block of a step is contiguous, and
    # is activated in place.
    xz = (tokens @ wx + b).reshape(*lead, m_steps, 4, hid)
    n = len(lead)
    z = np.ascontiguousarray(xz.transpose(n, n + 1, *range(n), n + 2))
    wh = wh.astype(z.dtype, copy=False)
    live = np.asarray(mask)[..., None] > 0
    steps = _schedule(live)
    live = _time_major(live)
    dead = ~live
    h = np.zeros((m_steps + 1, *lead, hid), dtype=z.dtype)
    c = np.zeros_like(h)
    hw = np.empty((*lead, 4 * hid), dtype=z.dtype)  # h @ Wh
    hw_gates = hw.reshape(*lead, 4, hid).transpose(n, *range(n), n + 1)
    s = np.empty(z.shape[1:], dtype=z.dtype)  # 1 + exp(-z)
    ig = np.empty_like(h[0])
    prev = 0  # the row holding the carried state
    for t, partial in steps:
        if t != prev:  # no sequence used the steps in between
            h[t], c[t] = h[prev], c[prev]
        zt, h_in, c_in, h_out, c_out = z[t], h[t], c[t], h[t + 1], c[t + 1]
        np.matmul(h_in, wh, out=hw)
        zt += hw_gates
        np.negative(zt, out=s)
        np.exp(s, out=s)
        s += 1.0
        np.tanh(zt[2], out=zt[2])
        np.divide(1.0, s[:2], out=zt[:2])
        np.divide(1.0, s[3], out=zt[3])
        np.multiply(zt[1], c_in, out=c_out)
        np.multiply(zt[0], zt[2], out=ig)
        c_out += ig
        np.tanh(c_out, out=h_out)
        h_out *= zt[3]
        if partial:  # a sequence that skips step t carries its state
            np.copyto(h_out, h_in, where=dead[t])
            np.copyto(c_out, c_in, where=dead[t])
        prev = t + 1
    out = np.zeros((*lead, m_steps, hid), dtype=z.dtype)
    np.copyto(_time_major(out), h[1:], where=live)
    return out, LstmCache(tokens=tokens, live=live, steps=steps, h=h, c=c, gates=z)


def lstm_backward(d_out: np.ndarray, cache: LstmCache,
                  params: dict) -> dict[str, np.ndarray]:
    """Backpropagation through time for the fused-gate LSTM, summed over
    every leading (batch) axis."""
    h, c, gates = cache.h, cache.c, cache.gates
    hid = h.shape[-1]
    wh_t = params["lstm.Wh"].astype(h.dtype, copy=False).T
    gi, gf, gg, go = (gates[:, k] for k in range(4))
    # Every factor that does not depend on the incoming gradient, for all
    # steps at once: dc = dh * dc_dh + dc_next, dz_i|f|g = dc * coef[0:3]
    # and dz_o = dh * coef[3]. dz is (M, ..., 4, H), so dz[t] is step t's
    # fused (..., 4H) gate gradient.
    tanh_c = np.tanh(c[1:])
    dc_dh = go * (1.0 - tanh_c ** 2)
    coef = np.empty((*gi.shape[:-1], 4, hid), dtype=h.dtype)
    coef[..., 0, :] = gg * gi * (1.0 - gi)
    coef[..., 1, :] = c[:-1] * gf * (1.0 - gf)
    coef[..., 2, :] = gi * (1.0 - gg ** 2)
    coef[..., 3, :] = tanh_c * go * (1.0 - go)
    coef_c, coef_h = coef[..., :3, :], coef[..., 3, :]
    dz = np.zeros_like(coef)
    dz_c, dz_h = dz[..., :3, :], dz[..., 3, :]
    dz_flat = dz.reshape(*dz.shape[:-2], 4 * hid)
    d_out = _time_major(d_out)
    live = cache.live
    dead = ~live
    dh_next = np.zeros_like(h[0])
    dc_next = np.zeros_like(dh_next)
    dh, dc, tmp = (np.empty_like(dh_next) for _ in range(3))
    dc_col = dc[..., None, :]
    for t, partial in reversed(cache.steps):
        np.add(d_out[t], dh_next, out=dh)
        np.multiply(dh, dc_dh[t], out=dc)
        dc += dc_next
        np.multiply(coef_c[t], dc_col, out=dz_c[t])
        np.multiply(coef_h[t], dh, out=dz_h[t])
        if partial:
            # a sequence that skips step t has no gate gradient there and
            # passes its carried state's gradient through unchanged
            np.copyto(dz_flat[t], 0.0, where=dead[t])
            np.matmul(dz_flat[t], wh_t, out=tmp)
            np.copyto(dh_next, tmp, where=live[t])
            np.multiply(dc, gf[t], out=tmp)
            np.copyto(dc_next, tmp, where=live[t])
        else:
            np.matmul(dz_flat[t], wh_t, out=dh_next)
            np.multiply(dc, gf[t], out=dc_next)
    dz_rows = flat_rows(dz_flat)
    return {"lstm.Wx": flat_rows(_time_major(cache.tokens)).T @ dz_rows,
            "lstm.Wh": flat_rows(h[:-1]).T @ dz_rows,
            "lstm.b": dz_rows.sum(axis=0)}


def projection_param_shapes(n_in: int, d_out: int) -> dict[str, tuple[int, ...]]:
    return {"proj.W": (n_in, d_out), "proj.b": (d_out,)}


def project_regions(regions: np.ndarray, params: dict) -> np.ndarray:
    """Map each (..., K, N) regional row through one shared affine layer."""
    w, b = params["proj.W"], params["proj.b"]
    if regions.shape[-1] != w.shape[0]:
        raise ShapeError(f"region dim {regions.shape[-1]} != projection rows {w.shape[0]}")
    return regions @ w + b


def project_regions_backward(regions: np.ndarray,
                             d_out: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "proj.W": flat_rows(regions).T @ flat_rows(d_out),
        "proj.b": flat_rows(d_out).sum(axis=0),
    }
