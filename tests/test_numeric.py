import numpy as np
import pytest

from postpop.numeric import (ShapeError, _conv_columns, conv1d_backward, conv1d_forward,
                             dense_forward, dropout, finite_difference_grad, flat_rows,
                             padded_index, pooled_mean, relative_error, relu, softmax,
                             uniform_param)


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


# The conv kernel as it was before its channel-axis loops were removed:
# columns by `np.stack`, the bias as a broadcast add, and d_x as one strided
# add per tap. The kernel must keep its forward bits and its gradients to
# rounding.
def reference_conv1d_columns(x, width):
    out_len = x.shape[-2] - width + 1
    cols = np.stack([x[..., j:j + out_len, :] for j in range(width)], axis=-1)
    return cols.reshape(*cols.shape[:-2], -1)


def reference_conv1d_forward(x, filters, bias):
    ch_out = filters.shape[0]
    cols = reference_conv1d_columns(x, filters.shape[1])
    return cols @ filters.transpose(0, 2, 1).reshape(ch_out, -1).T + bias, cols


def reference_conv1d_backward(cols, filters, d_out, input_grad=True):
    ch_out, width, ch_in = filters.shape
    out_len = d_out.shape[-2]
    d_filters = (flat_rows(d_out).T @ flat_rows(cols)) \
        .reshape(ch_out, ch_in, width).transpose(0, 2, 1)
    d_bias = flat_rows(d_out).sum(axis=0)
    if not input_grad:
        return None, d_filters, d_bias
    contrib = (d_out @ filters.reshape(ch_out, width * ch_in)).reshape(
        *d_out.shape[:-1], width, ch_in)
    d_x = np.zeros((*cols.shape[:-2], out_len + width - 1, ch_in), dtype=cols.dtype)
    for w in range(width):
        d_x[..., w:w + out_len, :] += contrib[..., w, :]
    return d_x, d_filters, d_bias


# a gradient's rounding may change with the kernel's summation order: by at
# most this much relative to its largest entry
GRAD_RTOL = {np.float64: 1e-12, np.float32: 1e-5}
CONV_CHANNELS = [(1, 1), (1, 2), (2, 2), (2, 4), (4, 4), (3, 8), (8, 1), (8, 8)]


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

    def test_all_masked_row_gets_zero_weights(self):
        out = softmax(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]),
                      np.array([[0, 0, 0], [1, 0, 1.0]]))
        assert np.array_equal(out[0], np.zeros(3))
        assert out[1, 1] == 0.0 and abs(out[1].sum() - 1.0) < 1e-12


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_kernel_matches_reference(self, lead, width, dtype):
        # forward: the same bytes; backward: the same gradients to rounding
        rng = np.random.default_rng([width, len(lead)])
        tol = GRAD_RTOL[dtype]
        for ch_in, ch_out in CONV_CHANNELS:
            length = width + 6
            x = rng.normal(size=(*lead, length, ch_in)).astype(dtype)
            filters = rng.normal(size=(ch_out, width, ch_in)).astype(dtype)
            bias = rng.normal(size=ch_out).astype(dtype)
            pre, cols = conv1d_forward(x, filters, bias)
            ref_pre, ref_cols = reference_conv1d_forward(x, filters, bias)
            assert pre.dtype == ref_pre.dtype == dtype and cols.dtype == dtype
            assert pre.shape == ref_pre.shape and cols.shape == ref_cols.shape
            assert pre.tobytes() == ref_pre.tobytes()
            assert cols.tobytes() == ref_cols.tobytes()
            d_out = rng.normal(size=pre.shape).astype(dtype)
            for input_grad in (True, False):
                got = conv1d_backward(cols, filters, d_out, input_grad)
                want = reference_conv1d_backward(ref_cols, filters, d_out, input_grad)
                assert (got[0] is None) == (not input_grad)
                for g, w in zip(got, want):
                    if w is None:
                        continue
                    assert g.shape == w.shape and g.dtype == w.dtype == dtype
                    scale = np.max(np.abs(w.astype(np.float64)))
                    diff = np.max(np.abs(g.astype(np.float64) - w))
                    assert diff <= tol * scale, (ch_in, ch_out, input_grad)

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
        g = finite_difference_grad(lambda st: float(st["theta"][0] ** 2),
                                   {"theta": np.array([3.0])})
        assert abs(g["theta"][0] - 6.0) < 1e-6

    def test_constant_function(self, rng):
        g = finite_difference_grad(lambda st: 4.2, {"theta": rng.normal(size=(2, 2))})
        assert np.allclose(g["theta"], 0.0)

    def test_perturbs_a_non_contiguous_view_in_place(self, rng):
        a = rng.normal(size=(3, 4))
        for view in (a.T, a[:, ::2]):  # each is perturbed where f reads it
            g = finite_difference_grad(lambda st: float(np.sum(st["w"] ** 2)), {"w": view})
            assert relative_error(g["w"], 2 * view) < 1e-9

    def test_restores_the_parameter_when_f_raises(self, rng):
        w = rng.normal(size=(2, 2))
        w0 = w.copy()
        with pytest.raises(ZeroDivisionError):  # on its second call, at w[0, 0] - eps
            finite_difference_grad(lambda st: 1 / float(st["w"][0, 0] > w0[0, 0]), {"w": w})
        assert w.tobytes() == w0.tobytes()


class TestUniformParam:
    def test_init_range_and_scale(self, rng):
        arr = uniform_param(rng, (200,), scale=1.0)
        assert arr.dtype == np.float64
        assert np.all(arr <= 1.0) and np.all(arr >= -1.0)
        small = uniform_param(rng, (200,), scale=0.1)
        assert np.max(np.abs(small)) <= 0.1

    def test_float32_draw_bits_match_out_of_place_form(self):
        arr = uniform_param(np.random.default_rng(4), (300, 200), 0.3, np.float32)
        draw = np.random.default_rng(4).random(size=(300, 200), dtype=np.float32)
        expect = (draw * 2.0 - 1.0) * np.float32(0.3)
        assert arr.dtype == np.float32
        assert arr.tobytes() == expect.tobytes()


class TestPooling:
    def test_padded_index(self):
        slots = {"x": 0}
        index, lengths = padded_index(slots, [["a", "x", "a"], [], ("b",)])
        assert index.dtype == np.intp
        assert index.tolist() == [[1, 0, 1], [-1, -1, -1], [2, -1, -1]]
        assert lengths == [3, 0, 1] and slots == {"x": 0, "a": 1, "b": 2}
        # keys past the width are neither indexed nor numbered
        index, lengths = padded_index(slots, [("c", "a", "d"), ("e",)], width=2)
        assert index.tolist() == [[3, 1], [4, -1]] and lengths == [3, 1]
        assert list(slots) == ["x", "a", "b", "c", "e"]
        assert padded_index({}, [[], []])[0].shape == (2, 0)
        assert padded_index({}, [["k"]], width=3)[0].tolist() == [[0, -1, -1]]

    def test_padded_index_equals_per_list_numbering(self, rng):
        # reference: number each list's keys with setdefault, one list at a
        # time, then pad each row to the width
        for width in (None, 1, 3, 8):
            lists = [list(rng.choice(list("abcdefghij"), size=int(rng.integers(0, 7))))
                     for _ in range(int(rng.integers(1, 30)))]
            want_slots = {"z": 0}
            rows = [[want_slots.setdefault(k, len(want_slots)) for k in keys[:width]]
                    for keys in lists]
            w = max(map(len, lists)) if width is None else width
            slots = {"z": 0}
            index, lengths = padded_index(slots, lists, width)
            assert index.tolist() == [r + [-1] * (w - len(r)) for r in rows]
            assert list(slots.items()) == list(want_slots.items())
            assert lengths == list(map(len, lists))

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
