import numpy as np
import pytest

from postpop.numeric import (ParamStore, ShapeError, _conv_columns, conv1d_backward,
                             conv1d_forward, dense_backward, dense_forward,
                             dropout, finite_difference_grad, padded_index,
                             pooled_mean, relative_error, relu, softmax,
                             softmax_backward)


def naive_conv1d(x, filters, bias):
    length, _ = x.shape
    ch_out, width, ch_in = filters.shape
    out = np.zeros((length - width + 1, ch_out))
    for t in range(length - width + 1):
        for o in range(ch_out):
            acc = bias[o]
            for w in range(width):
                for c in range(ch_in):
                    acc += x[t + w, c] * filters[o, w, c]
            out[t, o] = acc
    return out


class TestSoftmax:
    def test_uniform_scores(self):
        out = softmax(np.zeros(4), np.ones(4))
        assert np.allclose(out, 0.25)

    def test_exp_ratios(self):
        out = softmax(np.array([0.0, np.log(2.0)]), np.ones(2))
        assert np.allclose(out, [1.0 / 3.0, 2.0 / 3.0])

    def test_shift_invariance(self, rng):
        s = rng.normal(size=6)
        mask = np.array([1, 1, 0, 1, 0, 1.0])
        assert np.allclose(softmax(s, mask), softmax(s + 17.3, mask), atol=1e-12)

    def test_masked_positions_exactly_zero(self, rng):
        mask = np.array([1, 0, 1, 0, 1.0])
        out = softmax(rng.normal(size=5), mask)
        assert out[1] == 0.0 and out[3] == 0.0
        assert abs(out.sum() - 1.0) < 1e-12

    def test_all_masked_raises(self):
        with pytest.raises(ValueError):
            softmax(np.ones(3), np.zeros(3))

    def test_backward_matches_fd(self, rng):
        s = rng.normal(size=5)
        mask = np.array([1, 1, 0, 1, 1.0])
        r = rng.normal(size=5)

        store = ParamStore()
        store.add_array("s", s.copy())
        num = finite_difference_grad(lambda st: float(softmax(st["s"], mask) @ r), store)
        alpha = softmax(s, mask)
        ds = softmax_backward(alpha, r, mask)
        assert relative_error(ds, num["s"]) < 1e-7


class TestConv1d:
    def test_identity_filter(self, rng):
        x = rng.normal(size=(5, 1))
        filters = np.ones((1, 1, 1))
        out, _ = conv1d_forward(x, filters, np.zeros(1))
        assert np.allclose(out, x)

    def test_width2_averaging(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        filters = np.full((1, 2, 1), 0.5)
        out, cols = conv1d_forward(x, filters, np.zeros(1))
        assert np.allclose(out[:, 0], [1.5, 2.5, 3.5])
        assert np.array_equal(cols, [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])

    def test_matches_naive_loop(self, rng):
        x = rng.normal(size=(7, 3))
        filters = rng.normal(size=(4, 3, 3))
        bias = rng.normal(size=4)
        assert np.allclose(conv1d_forward(x, filters, bias)[0],
                           naive_conv1d(x, filters, bias), atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("ch_in", [1, 3])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_columns_bitwise_equal_to_window_view(self, rng, lead, ch_in, width):
        # reference: the channel-major windows of sliding_window_view
        x = rng.normal(size=(*lead, 7, ch_in))
        windows = np.lib.stride_tricks.sliding_window_view(x, width, axis=-2)
        expected = windows.reshape(*windows.shape[:-2], -1)
        got = _conv_columns(x, width)
        assert got.shape == expected.shape == (*lead, 8 - width, ch_in * width)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_width_too_large(self, rng):
        with pytest.raises(ShapeError):
            conv1d_forward(rng.normal(size=(2, 1)), rng.normal(size=(1, 3, 1)),
                           np.zeros(1))

    def test_backward_matches_fd(self, rng):
        x = rng.normal(size=(6, 2))
        filters = rng.normal(size=(3, 2, 2))
        bias = rng.normal(size=3)
        r = rng.normal(size=(5, 3))

        store = ParamStore()
        store.add_array("f", filters.copy())
        store.add_array("b", bias.copy())
        store.add_array("x", x.copy())
        num = finite_difference_grad(
            lambda st: float(np.sum(conv1d_forward(st["x"], st["f"], st["b"])[0] * r)), store)
        d_x, d_f, d_b = conv1d_backward(_conv_columns(x, 2), filters, r)
        assert d_x.shape == x.shape and d_x.dtype == x.dtype
        assert relative_error(d_f, num["f"]) < 1e-8
        assert relative_error(d_b, num["b"]) < 1e-8
        assert relative_error(d_x, num["x"]) < 1e-8

    def test_backward_without_input_grad_same_parameter_grads(self, rng):
        x = rng.normal(size=(4, 7, 2))
        filters = rng.normal(size=(3, 2, 2))
        r = rng.normal(size=(4, 6, 3))
        cols = conv1d_forward(x, filters, np.zeros(3))[1]
        _, d_f, d_b = conv1d_backward(cols, filters, r)
        none, d_f2, d_b2 = conv1d_backward(cols, filters, r, input_grad=False)
        assert none is None
        assert d_f.tobytes() == d_f2.tobytes() and d_b.tobytes() == d_b2.tobytes()


class TestDenseAndActivations:
    def test_dense_forward(self, rng):
        x = rng.normal(size=4)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        assert np.allclose(dense_forward(x, w, b), x @ w + b)

    def test_dense_backward_matches_fd(self, rng):
        x = rng.normal(size=4)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=3)
        store = ParamStore()
        store.add_array("w", w.copy())
        store.add_array("b", b.copy())
        store.add_array("x", x.copy())
        num = finite_difference_grad(
            lambda st: float(dense_forward(st["x"], st["w"], st["b"]) @ r), store)
        d_x, d_w, d_b = dense_backward(x, w, r)
        assert relative_error(d_w, num["w"]) < 1e-8
        assert relative_error(d_x, num["x"]) < 1e-8
        assert relative_error(d_b, num["b"]) < 1e-8

    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


class TestDropout:
    def test_rate_zero_is_exact_identity(self, rng):
        x = rng.normal(size=10)
        for draws in (None, rng.random(10)):
            out, keep = dropout(x, 0.0, draws)
            assert np.array_equal(out, x) and np.array_equal(keep, np.ones(10))

    def test_seeded_reproducibility(self):
        x = np.ones(50)
        a, _ = dropout(x, 0.4, np.random.default_rng(9).random(50))
        b, _ = dropout(x, 0.4, np.random.default_rng(9).random(50))
        assert np.array_equal(a, b)

    def test_survivors_scaled(self):
        x = np.ones(2000)
        out, keep = dropout(x, 0.2, np.random.default_rng(3).random(2000))
        assert set(np.unique(out)) <= {0.0, 1.0 / 0.8}
        assert np.array_equal(out > 0, keep > 0)

    def test_keeps_the_draws_at_or_above_the_rate(self):
        x = np.arange(1.0, 7.0).reshape(2, 3)
        draws = np.array([[0.0, 0.25, 0.2499], [0.9, 0.25000001, 0.1]])
        out, keep = dropout(x, 0.25, draws)
        assert np.array_equal(keep, [[0, 1, 0], [1, 1, 0]])
        assert np.array_equal(out, x * keep / 0.75)

    def test_draws_must_match_the_input(self):
        x = np.ones((2, 3))
        for draws in (None, np.zeros(3), np.zeros((3, 2))):
            with pytest.raises(ShapeError, match="needs draws of shape"):
                dropout(x, 0.5, draws)


class TestFiniteDifference:
    def test_quadratic(self):
        store = ParamStore()
        store.add_array("theta", np.array([3.0]))
        g = finite_difference_grad(lambda st: float(st["theta"][0] ** 2), store)
        assert abs(g["theta"][0] - 6.0) < 1e-6

    def test_constant_function(self, rng):
        store = ParamStore()
        store.add_array("theta", rng.normal(size=(2, 2)))
        g = finite_difference_grad(lambda st: 4.2, store)
        assert np.allclose(g["theta"], 0.0)


class TestParamStore:
    def test_duplicate_name_rejected(self, rng):
        store = ParamStore()
        store.add("w", (2, 2), rng)
        with pytest.raises(ValueError):
            store.add("w", (2, 2), rng)

    def test_init_range_and_scale(self, rng):
        store = ParamStore()
        arr = store.add("w", (200,), rng, scale=1.0)
        assert np.all(arr <= 1.0) and np.all(arr >= -1.0)
        small = store.add("v", (200,), rng, scale=0.1)
        assert np.max(np.abs(small)) <= 0.1

    def test_float32_draw_bits_match_out_of_place_form(self):
        store = ParamStore()
        arr = store.add("w", (300, 200), np.random.default_rng(4), 0.3, np.float32)
        draw = np.random.default_rng(4).random(size=(300, 200), dtype=np.float32)
        expect = (draw * 2.0 - 1.0) * np.float32(0.3)
        assert arr.dtype == np.float32
        assert arr.tobytes() == expect.tobytes()

    def test_shape_fixed_after_construction(self, rng):
        store = ParamStore()
        store.add("w", (2, 2), rng)
        with pytest.raises(ShapeError):
            store["w"] = np.zeros((3, 3))


class TestPooling:
    def test_padded_index(self):
        assert np.array_equal(padded_index([[3, 1], [], [2]]), [[3, 1], [-1, -1], [2, -1]])
        assert padded_index([[], []]).shape == (2, 0)
        assert np.array_equal(padded_index([[5]], width=3), [[5, -1, -1]])

    @pytest.mark.parametrize("dim", [2, 8, 768])
    def test_pooled_mean_bitwise_equals_np_mean(self, dim):
        rng = np.random.default_rng(dim)
        counts = [0, 1, 2, 9, 69]
        rows = np.zeros((len(counts), max(counts), dim))
        for b, c in enumerate(counts):
            rows[b, :c] = rng.uniform(-1, 1, (c, dim))
        got = pooled_mean(rows, counts)
        assert np.array_equal(got[0], np.zeros(dim))
        for b, c in enumerate(counts[1:], start=1):
            assert np.array_equal(got[b], np.mean(list(rows[b, :c]), axis=0))
