from types import SimpleNamespace

import numpy as np
import pytest

from postpop.encoders import (lstm_backward, lstm_encode, lstm_param_shapes,
                              project_regions, project_regions_backward,
                              projection_param_shapes)
from postpop.numeric import (ShapeError, dense_forward, finite_difference_grad,
                             relative_error, uniform_params)


def lstm_params(rng, d_in, d_hidden, scale=0.6):
    return uniform_params(rng, lstm_param_shapes(d_in, d_hidden), scale)


def scalar_lstm_step(x, h_prev, c_prev, wx, wh, b):
    """Independent single-step oracle written with explicit scalar loops."""
    d_in = len(x)
    d_h = len(h_prev)
    z = [0.0] * (4 * d_h)
    for j in range(4 * d_h):
        acc = b[j]
        for i in range(d_in):
            acc += x[i] * wx[i][j]
        for i in range(d_h):
            acc += h_prev[i] * wh[i][j]
        z[j] = acc

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h_new, c_new = [0.0] * d_h, [0.0] * d_h
    for u in range(d_h):
        gi = sig(z[u])
        gf = sig(z[d_h + u])
        gg = np.tanh(z[2 * d_h + u])
        go = sig(z[3 * d_h + u])
        c_new[u] = gf * c_prev[u] + gi * gg
        h_new[u] = go * np.tanh(c_new[u])
    return np.array(h_new), np.array(c_new)


def reference_lstm_encode(tokens, mask, params):
    """The plain per-step LSTM: fresh arrays and `np.where` on every step.

    The kernel's forward must equal it bit for bit, and its gradients
    (`reference_lstm_backward`) up to rounding.
    """
    wx, wh, b = params["lstm.Wx"], params["lstm.Wh"], params["lstm.b"]
    *lead, m_steps, _ = tokens.shape
    d_hidden = wh.shape[0]
    xz = tokens @ wx + b
    live = np.asarray(mask)[..., None] > 0
    h = np.zeros((*lead, d_hidden), dtype=wx.dtype)
    c = np.zeros_like(h)
    h_prev = np.zeros((*lead, m_steps, d_hidden), dtype=xz.dtype)
    c_prev = np.zeros_like(h_prev)
    c_all = np.zeros_like(h_prev)
    gates = np.zeros_like(xz)
    out = np.zeros_like(h_prev)
    g_slice = slice(2 * d_hidden, 3 * d_hidden)
    for t in np.flatnonzero(live.reshape(-1, m_steps).any(axis=0)):
        z = xz[..., t, :] + h @ wh
        act = gates[..., t, :]
        np.divide(1.0, 1.0 + np.exp(-z), out=act)
        np.tanh(z[..., g_slice], out=act[..., g_slice])
        gi, gf, gg, go = np.split(act, 4, axis=-1)
        c_new = gf * c + gi * gg
        h_new = go * np.tanh(c_new)
        h_prev[..., t, :], c_prev[..., t, :], c_all[..., t, :] = h, c, c_new
        live_t = live[..., t, :]
        out[..., t, :] = np.where(live_t, h_new, 0.0)
        h = np.where(live_t, h_new, h)
        c = np.where(live_t, c_new, c)
    return out, SimpleNamespace(tokens=tokens, live=live, h_prev=h_prev,
                                c_prev=c_prev, gates=gates, c=c_all)


def reference_lstm_backward(d_out, cache, params):
    """Backpropagation through time for `reference_lstm_encode`."""
    wh = params["lstm.Wh"]
    live = cache.live
    dz_all = np.zeros_like(cache.gates)
    dh_next = np.zeros_like(cache.h_prev[..., 0, :])
    dc_next = np.zeros_like(dh_next)
    for t in np.flatnonzero(live.reshape(-1, live.shape[-2]).any(axis=0))[::-1]:
        gi, gf, gg, go = np.split(cache.gates[..., t, :], 4, axis=-1)
        dh = d_out[..., t, :] + dh_next
        tanh_c = np.tanh(cache.c[..., t, :])
        dc = dh * go * (1.0 - tanh_c ** 2) + dc_next
        dz = np.concatenate([
            dc * gg * gi * (1.0 - gi),
            dc * cache.c_prev[..., t, :] * gf * (1.0 - gf),
            dc * gi * (1.0 - gg ** 2),
            dh * tanh_c * go * (1.0 - go),
        ], axis=-1)
        live_t = live[..., t, :]
        dz_all[..., t, :] = np.where(live_t, dz, 0.0)
        dh_next = np.where(live_t, dz @ wh.T, dh_next)
        dc_next = np.where(live_t, dc * gf, dc_next)
    dz_rows = dz_all.reshape(-1, dz_all.shape[-1])
    return {"lstm.Wx": cache.tokens.reshape(-1, cache.tokens.shape[-1]).T @ dz_rows,
            "lstm.Wh": cache.h_prev.reshape(-1, cache.h_prev.shape[-1]).T @ dz_rows,
            "lstm.b": dz_rows.sum(axis=0)}


# Six sequences of six steps: a hole, trailing dead steps, an all-dead row,
# a step (2) that no sequence uses, and partly live steps 1, 3, 4 and 5.
MASKS = np.array([[1, 1, 0, 1, 1, 0],
                  [1, 1, 0, 0, 0, 0],
                  [0, 0, 0, 0, 0, 0],
                  [1, 1, 0, 1, 1, 1],
                  [1, 0, 0, 1, 0, 0],
                  [1, 1, 0, 1, 1, 1]], dtype=float)
LEAD_MASKS = {
    "one": MASKS[0],                       # lead (): a hole then a dead tail
    "batch": MASKS,                        # lead (B,)
    "grid": MASKS.reshape(2, 3, 6),        # lead (B1, B2)
    "all_live": np.ones((4, 6)),
    "unused_tail": np.array([[1, 1, 1, 0, 0, 0], [1, 0, 1, 0, 0, 0]], dtype=float),
}


class TestAgainstReference:
    """The kernel against `reference_lstm_encode`/`reference_lstm_backward`."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", sorted(LEAD_MASKS))
    def test_forward_bitwise_and_gradients_close(self, rng, case, dtype):
        mask = LEAD_MASKS[case]
        store = uniform_params(rng, lstm_param_shapes(3, 4), 0.8, dtype)
        tokens = rng.uniform(-1, 1, (*mask.shape, 3)).astype(dtype)
        out, cache = lstm_encode(tokens, mask, store)
        ref, ref_cache = reference_lstm_encode(tokens, mask, store)
        assert out.dtype == ref.dtype == dtype and out.shape == ref.shape
        assert out.flags.c_contiguous
        assert out.tobytes() == ref.tobytes()
        d_out = rng.normal(size=out.shape).astype(dtype)
        grads = lstm_backward(d_out, cache, store)
        ref_grads = reference_lstm_backward(d_out, ref_cache, store)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for name, g in ref_grads.items():
            assert grads[name].dtype == dtype and grads[name].shape == g.shape
            assert relative_error(grads[name], g) <= tol, name

    def test_gradcheck_across_an_unused_middle_step(self, rng):
        # no sequence uses step 2: each state carries across it untouched,
        # and so does each gradient
        store = lstm_params(rng, 3, 4)
        tokens = rng.uniform(-1, 1, (6, 6, 3))
        weights = rng.normal(size=(6, 6, 4))

        def f(st):
            out, _ = lstm_encode(tokens, MASKS, st)
            return float(np.sum(out * weights))

        out, cache = lstm_encode(tokens, MASKS, store)
        assert np.all(out[:, 2] == 0.0) and np.all(out[2] == 0.0)
        grads = lstm_backward(weights, cache, store)
        numeric = finite_difference_grad(f, store)
        for name in ("lstm.Wx", "lstm.Wh", "lstm.b"):
            assert relative_error(grads[name], numeric[name]) < 1e-6, name

    def test_float32_params_keep_float32_states(self, rng):
        store64 = lstm_params(rng, 3, 4)
        store32 = {name: arr.astype(np.float32) for name, arr in store64.items()}
        tokens = rng.uniform(-1, 1, (6, 6, 3))
        d_out = rng.normal(size=(6, 6, 4))
        out64, cache64 = lstm_encode(tokens, MASKS, store64)
        out32, cache32 = lstm_encode(tokens.astype(np.float32), MASKS, store32)
        for arr in (out32, cache32.h, cache32.c, cache32.gates):
            assert arr.dtype == np.float32
        assert np.max(np.abs(out32 - out64)) < 1e-5
        grads64 = lstm_backward(d_out, cache64, store64)
        grads32 = lstm_backward(d_out.astype(np.float32), cache32, store32)
        for name, g in grads64.items():
            assert grads32[name].dtype == np.float32
            assert relative_error(grads32[name], g) < 1e-5, name


class TestLstmForward:
    def test_zero_input_zero_bias_gives_zeros(self, rng):
        store = lstm_params(rng, 4, 4)
        store["lstm.b"] = np.zeros(16)
        out, _ = lstm_encode(np.zeros((3, 4)), np.ones(3), store)
        assert np.allclose(out, 0.0)

    def test_single_step_matches_scalar_oracle(self, rng):
        store = lstm_params(rng, 3, 2)
        x = rng.uniform(-1, 1, (1, 3))
        out, _ = lstm_encode(x, np.ones(1), store)
        h, _ = scalar_lstm_step(x[0], np.zeros(2), np.zeros(2),
                                store["lstm.Wx"], store["lstm.Wh"], store["lstm.b"])
        assert np.allclose(out[0], h, atol=1e-12)

    def test_two_steps_match_chained_oracle(self, rng):
        store = lstm_params(rng, 3, 2)
        x = rng.uniform(-1, 1, (2, 3))
        out, _ = lstm_encode(x, np.ones(2), store)
        h0, c0 = scalar_lstm_step(x[0], np.zeros(2), np.zeros(2),
                                  store["lstm.Wx"], store["lstm.Wh"], store["lstm.b"])
        h1, _ = scalar_lstm_step(x[1], h0, c0,
                                 store["lstm.Wx"], store["lstm.Wh"], store["lstm.b"])
        assert np.allclose(out[0], h0, atol=1e-12)
        assert np.allclose(out[1], h1, atol=1e-12)

    def test_masked_tail_rows_zero(self, rng):
        store = lstm_params(rng, 4, 5)
        tokens = rng.uniform(-1, 1, (4, 4))
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        out, _ = lstm_encode(tokens, mask, store)
        assert np.all(out[2:] == 0.0)
        assert np.any(out[:2] != 0.0)

    def test_hidden_values_bounded(self, rng):
        store = lstm_params(rng, 6, 6, scale=1.0)
        out, _ = lstm_encode(rng.uniform(-1, 1, (4, 6)), np.ones(4), store)
        assert np.all(np.abs(out) < 1.0)

    def test_input_dim_mismatch(self, rng):
        store = lstm_params(rng, 4, 4)
        with pytest.raises(ShapeError):
            lstm_encode(np.zeros((3, 5)), np.ones(3), store)


class TestLstmBackward:
    @pytest.mark.parametrize("m,d_in,d_h,mask", [
        (1, 3, 2, [1.0]),
        (4, 3, 6, [1.0, 1.0, 1.0, 1.0]),
        (4, 6, 4, [1.0, 1.0, 0.0, 0.0]),
    ])
    def test_gradcheck(self, rng, m, d_in, d_h, mask):
        store = lstm_params(rng, d_in, d_h)
        tokens = rng.uniform(-1, 1, (m, d_in))
        mask = np.array(mask)
        weights = rng.normal(size=(m, d_h))

        def f(st):
            out, _ = lstm_encode(tokens, mask, st)
            return float(np.sum(out * weights))

        out, cache = lstm_encode(tokens, mask, store)
        grads = lstm_backward(weights, cache, store)
        numeric = finite_difference_grad(f, store)
        for name in ("lstm.Wx", "lstm.Wh", "lstm.b"):
            assert relative_error(grads[name], numeric[name]) < 1e-4


class TestProjection:
    def test_zero_weights(self, rng):
        store = uniform_params(rng, projection_param_shapes(4, 3))
        store["proj.W"] = np.zeros((4, 3))
        store["proj.b"] = np.zeros(3)
        assert np.allclose(project_regions(rng.normal(size=(5, 4)), store), 0.0)

    def test_identity(self, rng):
        store = uniform_params(rng, projection_param_shapes(4, 4))
        store["proj.W"] = np.eye(4)
        store["proj.b"] = np.zeros(4)
        regions = rng.normal(size=(6, 4))
        assert np.allclose(project_regions(regions, store), regions)

    def test_matches_per_row_dense(self, rng):
        store = uniform_params(rng, projection_param_shapes(5, 3))
        regions = rng.normal(size=(7, 5))
        out = project_regions(regions, store)
        for i in range(7):
            row = dense_forward(regions[i], store["proj.W"], store["proj.b"])
            assert np.allclose(out[i], row, atol=1e-12)

    def test_linearity_without_bias(self, rng):
        store = uniform_params(rng, projection_param_shapes(4, 3))
        store["proj.b"] = np.zeros(3)
        x = rng.normal(size=(5, 4))
        assert np.allclose(project_regions(3.5 * x, store),
                           3.5 * project_regions(x, store), atol=1e-10)

    def test_gradcheck(self, rng):
        store = uniform_params(rng, projection_param_shapes(4, 3))
        regions = rng.normal(size=(5, 4))
        weights = rng.normal(size=(5, 3))

        def f(st):
            return float(np.sum(project_regions(regions, st) * weights))

        grads = project_regions_backward(regions, weights)
        numeric = finite_difference_grad(f, store)
        assert relative_error(grads["proj.W"], numeric["proj.W"]) < 1e-6
        assert relative_error(grads["proj.b"], numeric["proj.b"]) < 1e-6

    def test_shape_mismatch(self, rng):
        store = uniform_params(rng, projection_param_shapes(4, 3))
        with pytest.raises(ShapeError):
            project_regions(rng.normal(size=(5, 6)), store)


class TestBatchedLstm:
    """(B, M, D) tokens step all B sequences together, on the same code path."""

    def test_batch_equals_one_sequence_at_a_time(self, rng):
        store = lstm_params(rng, 3, 4)
        tokens = rng.uniform(-1, 1, (5, 4, 3))
        masks = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0, 0],
                          [1, 0, 1, 1], [1, 1, 1, 0]], dtype=float)
        d_out = rng.normal(size=(5, 4, 4))
        out, cache = lstm_encode(tokens, masks, store)
        grads = lstm_backward(d_out, cache, store)
        summed = {name: 0.0 for name in grads}
        for i in range(5):
            one, one_cache = lstm_encode(tokens[i], masks[i], store)
            assert np.allclose(out[i], one, rtol=0, atol=1e-12)
            for name, g in lstm_backward(d_out[i], one_cache, store).items():
                summed[name] = summed[name] + g
        for name, g in grads.items():
            assert np.allclose(g, summed[name], rtol=0, atol=1e-12), name

    def test_empty_sequence_emits_zeros_and_no_gradient(self, rng):
        store = lstm_params(rng, 3, 2)
        out, cache = lstm_encode(rng.uniform(-1, 1, (2, 3, 3)),
                                 np.array([[0.0] * 3, [1.0] * 3]), store)
        assert np.all(out[0] == 0.0)
        grads = lstm_backward(np.stack([np.ones((3, 2)), np.zeros((3, 2))]),
                              cache, store)
        for name, g in grads.items():
            assert np.all(g == 0.0), name

    def test_gradcheck_with_mask_hole(self, rng):
        # the middle step of the first sequence is masked: its state carries
        # across the hole, and the gradient must flow back through the carry
        store = lstm_params(rng, 3, 4)
        tokens = rng.uniform(-1, 1, (2, 5, 3))
        mask = np.array([[1.0, 1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 1.0, 0.0, 0.0]])
        weights = rng.normal(size=(2, 5, 4))

        def f(st):
            out, _ = lstm_encode(tokens, mask, st)
            return float(np.sum(out * weights))

        out, cache = lstm_encode(tokens, mask, store)
        assert np.all(out[0, 2] == 0.0) and np.any(out[0, 3] != 0.0)
        grads = lstm_backward(weights, cache, store)
        numeric = finite_difference_grad(f, store)
        for name in ("lstm.Wx", "lstm.Wh", "lstm.b"):
            assert relative_error(grads[name], numeric[name]) < 1e-6, name

    def test_batched_projection_matches_rows(self, rng):
        store = uniform_params(rng, projection_param_shapes(5, 3))
        regions = rng.normal(size=(4, 2, 5))
        d_out = rng.normal(size=(4, 2, 3))
        out = project_regions(regions, store)
        grads = project_regions_backward(regions, d_out)
        for i in range(4):
            assert np.allclose(out[i], project_regions(regions[i], store), atol=1e-12)
        one = [project_regions_backward(regions[i], d_out[i]) for i in range(4)]
        for name in ("proj.W", "proj.b"):
            assert np.allclose(grads[name], sum(g[name] for g in one), atol=1e-12)
