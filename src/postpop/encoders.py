"""Recurrent caption encoder and the image-region projection layer.

The encoder is a single unidirectional LSTM whose hidden size matches the
embedding dimension, so its stacked hidden states feed the attention stage
directly. Masked (padding) steps copy the previous state forward and emit a
zero row. Both layers run over any leading batch axes: (B, M, D) tokens are
B captions stepped together, and (M, D) tokens are one caption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import ParamStore, ShapeError, flat_rows


def _used_steps(live: np.ndarray) -> np.ndarray:
    """Time steps that are live in at least one sequence of a (..., M, 1) mask."""
    return np.flatnonzero(live.reshape(-1, live.shape[-2]).any(axis=0))


def _split_gates(act: np.ndarray, d_hidden: int):
    """The i, f, g, o blocks of fused (..., 4H) gates, as views."""
    return tuple(act[..., k * d_hidden:(k + 1) * d_hidden] for k in range(4))


def init_lstm_params(store: ParamStore, rng, d_in: int, d_hidden: int,
                     scale: float = 1.0, dtype=np.float64):
    """Fused 4-gate weights in i|f|g|o order."""
    store.add("lstm.Wx", (d_in, 4 * d_hidden), rng, scale, dtype)
    store.add("lstm.Wh", (d_hidden, 4 * d_hidden), rng, scale, dtype)
    store.add("lstm.b", (4 * d_hidden,), rng, scale, dtype)


@dataclass
class LstmCache:
    """Per-step tensors of one batched forward pass, each (..., M, width)."""

    tokens: np.ndarray
    mask: np.ndarray
    h_prev: np.ndarray  # hidden state entering each step
    c_prev: np.ndarray  # cell state entering each step
    gates: np.ndarray   # activated i|f|g|o
    c: np.ndarray       # cell state after each step


def lstm_encode(tokens: np.ndarray, mask: np.ndarray,
                params: ParamStore) -> tuple[np.ndarray, LstmCache]:
    """Encode (..., M, D_in) tokens into (..., M, D_hidden) hidden states.

    Every leading axis is a batch axis: all sequences step together, and a
    masked step of one sequence carries its state and emits a zero row.
    """
    wx, wh, b = params["lstm.Wx"], params["lstm.Wh"], params["lstm.b"]
    *lead, m_steps, d_in = tokens.shape
    if wx.shape[0] != d_in:
        raise ShapeError(f"lstm input dim {d_in} != Wx rows {wx.shape[0]}")
    d_hidden = wh.shape[0]
    xz = tokens @ wx + b  # input part of every step's pre-activation
    live = np.asarray(mask)[..., None] > 0
    h = np.zeros((*lead, d_hidden), dtype=wx.dtype)
    c = np.zeros_like(h)
    # per-step caches; a step that no sequence uses keeps zeros
    h_prev = np.zeros((*lead, m_steps, d_hidden), dtype=xz.dtype)
    c_prev = np.zeros_like(h_prev)
    c_all = np.zeros_like(h_prev)
    gates = np.zeros_like(xz)
    out = np.zeros_like(h_prev)
    g_slice = slice(2 * d_hidden, 3 * d_hidden)
    for t in _used_steps(live):
        z = xz[..., t, :] + h @ wh
        act = gates[..., t, :]
        np.divide(1.0, 1.0 + np.exp(-z), out=act)
        np.tanh(z[..., g_slice], out=act[..., g_slice])
        gi, gf, gg, go = _split_gates(act, d_hidden)
        c_new = gf * c + gi * gg
        h_new = go * np.tanh(c_new)
        h_prev[..., t, :], c_prev[..., t, :], c_all[..., t, :] = h, c, c_new
        live_t = live[..., t, :]
        out[..., t, :] = np.where(live_t, h_new, 0.0)
        h = np.where(live_t, h_new, h)
        c = np.where(live_t, c_new, c)
    return out, LstmCache(tokens=tokens, mask=mask, h_prev=h_prev, c_prev=c_prev,
                          gates=gates, c=c_all)


def lstm_backward(d_out: np.ndarray, cache: LstmCache,
                  params: ParamStore) -> dict[str, np.ndarray]:
    """Backpropagation through time for the fused-gate LSTM, summed over
    every leading (batch) axis."""
    wh = params["lstm.Wh"]
    d_hidden = wh.shape[0]
    live = np.asarray(cache.mask)[..., None] > 0
    dz_all = np.zeros_like(cache.gates)
    dh_next = np.zeros_like(cache.h_prev[..., 0, :])
    dc_next = np.zeros_like(dh_next)
    for t in _used_steps(live)[::-1]:
        gi, gf, gg, go = _split_gates(cache.gates[..., t, :], d_hidden)
        dh = d_out[..., t, :] + dh_next
        tanh_c = np.tanh(cache.c[..., t, :])
        dc = dh * go * (1.0 - tanh_c ** 2) + dc_next
        dz = np.concatenate([
            dc * gg * gi * (1.0 - gi),
            dc * cache.c_prev[..., t, :] * gf * (1.0 - gf),
            dc * gi * (1.0 - gg ** 2),
            dh * tanh_c * go * (1.0 - go),
        ], axis=-1)
        # a masked step passes the carried state's gradient through unchanged
        live_t = live[..., t, :]
        dz_all[..., t, :] = np.where(live_t, dz, 0.0)
        dh_next = np.where(live_t, dz @ wh.T, dh_next)
        dc_next = np.where(live_t, dc * gf, dc_next)
    dz_rows = flat_rows(dz_all)
    return {"lstm.Wx": flat_rows(cache.tokens).T @ dz_rows,
            "lstm.Wh": flat_rows(cache.h_prev).T @ dz_rows,
            "lstm.b": dz_rows.sum(axis=0)}


def init_projection_params(store: ParamStore, rng, n_in: int, d_out: int,
                           scale: float = 1.0, dtype=np.float64):
    store.add("proj.W", (n_in, d_out), rng, scale, dtype)
    store.add("proj.b", (d_out,), rng, scale, dtype)


def project_regions(regions: np.ndarray, params: ParamStore) -> np.ndarray:
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
