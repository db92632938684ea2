import numpy as np
import pytest

from postpop.encoders import (init_lstm_params, init_projection_params,
                              lstm_backward, lstm_encode, project_regions,
                              project_regions_backward)
from postpop.numeric import (ParamStore, ShapeError, dense_forward,
                             finite_difference_grad, relative_error)


def lstm_params(rng, d_in, d_hidden, scale=0.6):
    store = ParamStore()
    init_lstm_params(store, rng, d_in, d_hidden, scale)
    return store


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
        store = ParamStore()
        init_projection_params(store, rng, 4, 3)
        store["proj.W"] = np.zeros((4, 3))
        store["proj.b"] = np.zeros(3)
        assert np.allclose(project_regions(rng.normal(size=(5, 4)), store), 0.0)

    def test_identity(self, rng):
        store = ParamStore()
        init_projection_params(store, rng, 4, 4)
        store["proj.W"] = np.eye(4)
        store["proj.b"] = np.zeros(4)
        regions = rng.normal(size=(6, 4))
        assert np.allclose(project_regions(regions, store), regions)

    def test_matches_per_row_dense(self, rng):
        store = ParamStore()
        init_projection_params(store, rng, 5, 3)
        regions = rng.normal(size=(7, 5))
        out = project_regions(regions, store)
        for i in range(7):
            row = dense_forward(regions[i], store["proj.W"], store["proj.b"])
            assert np.allclose(out[i], row, atol=1e-12)

    def test_linearity_without_bias(self, rng):
        store = ParamStore()
        init_projection_params(store, rng, 4, 3)
        store["proj.b"] = np.zeros(3)
        x = rng.normal(size=(5, 4))
        assert np.allclose(project_regions(3.5 * x, store),
                           3.5 * project_regions(x, store), atol=1e-10)

    def test_gradcheck(self, rng):
        store = ParamStore()
        init_projection_params(store, rng, 4, 3)
        regions = rng.normal(size=(5, 4))
        weights = rng.normal(size=(5, 3))

        def f(st):
            return float(np.sum(project_regions(regions, st) * weights))

        grads = project_regions_backward(regions, weights)
        numeric = finite_difference_grad(f, store)
        assert relative_error(grads["proj.W"], numeric["proj.W"]) < 1e-6
        assert relative_error(grads["proj.b"], numeric["proj.b"]) < 1e-6

    def test_shape_mismatch(self, rng):
        store = ParamStore()
        init_projection_params(store, rng, 4, 3)
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
        store = ParamStore()
        init_projection_params(store, rng, 5, 3)
        regions = rng.normal(size=(4, 2, 5))
        d_out = rng.normal(size=(4, 2, 3))
        out = project_regions(regions, store)
        grads = project_regions_backward(regions, d_out)
        for i in range(4):
            assert np.allclose(out[i], project_regions(regions[i], store), atol=1e-12)
        one = [project_regions_backward(regions[i], d_out[i]) for i in range(4)]
        for name in ("proj.W", "proj.b"):
            assert np.allclose(grads[name], sum(g[name] for g in one), atol=1e-12)
