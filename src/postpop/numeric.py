"""Dense-layer primitives, parameter init, and a finite-difference gradient oracle.

Everything trainable in the model is built from the forward/backward pairs in
this module. Parameters are a plain dict of name -> array, in insertion
order, drawn by `uniform_params` as views of one `uniform_param` draw.
Backward passes are hand-derived per layer (the model graph is static);
`finite_difference_grad` is the independent check they are verified against.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


def uniform_param(rng: np.random.Generator, shape, scale: float = 1.0,
                  dtype=np.float64) -> np.ndarray:
    """A parameter array drawn uniform in [-scale, scale].

    The default scale of 1.0 gives the wide [-1, 1] init the model trains
    from. A float32 array is drawn in float32 and scaled in place, so a huge
    layer never materializes in f8 or as a second copy.
    """
    if dtype == np.float32:
        arr = rng.random(size=shape, dtype=np.float32)
        arr *= 2.0
        arr -= 1.0
        arr *= np.float32(scale)
        return arr
    return rng.uniform(-scale, scale, size=shape).astype(dtype, copy=False)


def uniform_params(rng: np.random.Generator, shapes: dict, scale: float = 1.0,
                   dtype=np.float64) -> dict[str, np.ndarray]:
    """Parameters of `shapes` (name -> shape), in its order, uniform in
    [-scale, scale]: reshaped consecutive views of one `uniform_param` draw.

    The generator hands out the same stream of doubles, and of float32
    draws, however the draws are split, so every parameter equals the one
    that a `uniform_param` call per shape, in this order, would draw.
    """
    sizes = [math.prod(shape) for shape in shapes.values()]
    flat = uniform_param(rng, (sum(sizes),), scale, dtype)
    params, start = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        params[name] = flat[start:start + size].reshape(shape)
        start += size
    return params


def flat_rows(x: np.ndarray) -> np.ndarray:
    """Collapse every leading axis: (..., n) -> (rows, n).

    Parameter gradients sum over the batch and every other leading axis, so
    `flat_rows(a).T @ flat_rows(b)` is the summed outer product.
    """
    return x.reshape(-1, x.shape[-1])


def padded_index(slots: dict, key_lists, width: int | None = None):
    """(index, lengths): the (B, width) rows in `slots` (key -> row) of B key
    lists, each cut to `width` (default: the longest) and padded with -1,
    and the lists' lengths before the cut. A key not yet in `slots` becomes
    its next row. A table whose last row is zeros gathers zeros at the
    padding. One comprehension makes the flat list of rows and -1 tails.
    """
    lengths = [*map(len, key_lists)]
    if width is None:
        width = max(lengths, default=0)
    slot, pad = slots.setdefault, (None,) * width
    flat = [-1 if key is None else slot(key, len(slots))
            for keys in key_lists for key in (*keys[:width], *pad[len(keys):])]
    return np.array(flat, dtype=np.intp).reshape(len(key_lists), width), lengths


def pooled_mean(rows: np.ndarray, counts) -> np.ndarray:
    """(B, n) means of the first counts[b] rows of each rows[b] in (B, T, n),
    the rest being zeros; a count of 0 gives zeros.

    The zero-padded sum over T adds each post's rows in order, then divides
    once by the count, as np.mean(rows[b, :count], axis=0) does, bit for bit
    when n > 1. (With n == 1 numpy sums pairwise, and the padding can move
    the last bit.)
    """
    return rows.sum(axis=1) / np.maximum(counts, 1)[:, None]


def softmax(scores: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Masked softmax over the last axis of `scores` (..., n).

    Masked positions get weight exactly 0; unmasked weights are shifted by
    the row's unmasked max before exponentiation. A row with no live entry
    gets all-zero weights.
    """
    scores = np.asarray(scores)
    if mask is None:
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    live = np.asarray(mask) > 0
    if live.shape != scores.shape:
        raise ShapeError(f"mask shape {live.shape} != scores shape {scores.shape}")
    top = np.max(scores, axis=-1, keepdims=True, where=live, initial=-np.inf)
    e = np.subtract(scores, top, out=np.zeros_like(scores), where=live)
    np.exp(e, out=e, where=live)
    total = e.sum(axis=-1, keepdims=True)
    return np.divide(e, total, out=e, where=total > 0)


def softmax_backward(alpha: np.ndarray, d_alpha: np.ndarray,
                     mask: np.ndarray | None = None) -> np.ndarray:
    """Gradient of masked softmax: ds_i = a_i * (da_i - sum_j a_j da_j)."""
    inner = np.sum(alpha * d_alpha, axis=-1, keepdims=True)
    ds = alpha * (d_alpha - inner)
    if mask is not None:
        ds = ds * (np.asarray(mask) > 0)
    return ds


def _conv_columns(x: np.ndarray, width: int) -> np.ndarray:
    """(..., length, ch_in) -> (..., out_len, ch_in * width): each output
    position's input window as one row, channel-major (column c * width + j
    holds tap j of channel c).

    Filled tap by tap into one buffer: the layout and bits of a
    `sliding_window_view` reshape, without its per-call set-up cost.
    """
    out_len = x.shape[-2] - width + 1
    cols = np.empty((*x.shape[:-2], out_len, x.shape[-1], width), dtype=x.dtype)
    for j in range(width):
        cols[..., j] = x[..., j:j + out_len, :]
    return cols.reshape(*cols.shape[:-2], -1)


def conv1d_forward(x: np.ndarray, filters: np.ndarray, bias: np.ndarray):
    """Valid (no padding) stride-1 cross-correlation over the rows of x.

    x: (..., length, ch_in); filters: (ch_out, width, ch_in); bias: (ch_out,),
    all of one dtype. Returns (pre, cols): the (..., length - width + 1,
    ch_out) pre-activations, which the caller applies any nonlinearity to,
    and x's `_conv_columns`, which `conv1d_backward` takes in place of x.

    The channel axis is 1-8 wide, and a numpy broadcast along an axis that
    narrow runs one tiny inner loop per position: `pre + bias` over a
    (20, 114, 2) pre-activation takes 17-19 us. The bias is instead tiled
    once into a (114 * 2,) row and added in place to each row of the flat
    (20, 228) view, the same additions in 5 us (2 us at one post, as before).
    """
    x = np.asarray(x)
    filters = np.asarray(filters)
    length, ch_in = x.shape[-2:]
    ch_out, width, f_ch_in = filters.shape
    if f_ch_in != ch_in:
        raise ShapeError(f"conv1d channel mismatch: input {ch_in}, filters {f_ch_in}")
    if width > length:
        raise ShapeError(f"conv1d width {width} exceeds input length {length}")
    cols = _conv_columns(x, width)
    # filters reordered to (ch_out, ch_in * width), the column layout
    pre = cols @ filters.transpose(0, 2, 1).reshape(ch_out, -1).T
    flat = pre.reshape(*pre.shape[:-2], -1)
    flat += np.asarray(bias)[None].repeat(pre.shape[-2], axis=0).reshape(-1)
    return pre, cols


def conv1d_backward(cols: np.ndarray, filters: np.ndarray, d_out: np.ndarray,
                    input_grad: bool = True):
    """Gradients of conv1d_forward, from the input columns it returned.
    Returns (d_x, d_filters, d_bias); the filter and bias gradients are
    summed over every leading axis of x. With `input_grad` false, d_x is
    None and is not computed.

    As in the forward, no numpy reduction or add has the narrow channel
    axis innermost. The filter gradient is one GEMM over the columns. The
    bias gradient is a matrix-vector product with ones: a sum over axis 0
    of the (rows, ch_out) gradient runs one ch_out-long inner loop per row,
    40-50 us at 2200 rows against 4-5. For d_x, tap j's contribution
    `d_out @ filters[:, j, :]` is added at a shift of j positions, on flat
    buffers: `d_out` is zero-padded to the input's length, so each tap's
    (rows * length * ch_in) contribution lines up with d_x shifted by
    j * ch_in floats, and the padding's zeros spill harmlessly into the next
    row or the dropped tail. Each tap is then one contiguous 1-D add. For a
    (20, 114, 2) d_x the three adds take about 6 us this way, 27 us as 2-D
    slice adds and 130 us as strided adds into the (..., length, ch_in)
    array.
    """
    ch_out, width, ch_in = filters.shape
    out_len = d_out.shape[-2]
    length = out_len + width - 1
    d_rows = flat_rows(d_out)
    # d_filters[o,w,c] = sum_t d_out[t,o] * x[t+w,c]
    d_filters = (d_rows.T @ flat_rows(cols)) \
        .reshape(ch_out, ch_in, width).transpose(0, 2, 1)
    d_bias = np.ones(len(d_rows), dtype=d_rows.dtype) @ d_rows
    if not input_grad:
        return None, d_filters, d_bias
    # d_x[t+j,c] += sum_o d_out[t,o] * filters[o,j,c]
    padded = np.zeros((*d_out.shape[:-2], length, ch_out), dtype=d_out.dtype)
    padded[..., :out_len, :] = d_out
    size = padded.size // ch_out * ch_in
    taps = (flat_rows(padded) @ filters.transpose(1, 0, 2)).reshape(width, size)
    d_x = np.zeros(size + (width - 1) * ch_in, dtype=taps.dtype)
    for j in range(width):
        d_x[j * ch_in:j * ch_in + size] += taps[j]
    return d_x[:size].reshape(*d_out.shape[:-2], length, ch_in), d_filters, d_bias


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map y = x @ W + b over the last axis of x (..., n_in)."""
    x = np.asarray(x)
    if x.ndim < 1 or weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"dense shape mismatch: x {x.shape}, W {weight.shape}")
    return x @ weight + bias


def dense_backward(x: np.ndarray, weight: np.ndarray, d_out: np.ndarray):
    """Gradients of dense_forward. Returns (d_x, d_weight, d_bias); the
    weight and bias gradients are summed over every leading axis of x."""
    d_weight = flat_rows(x).T @ flat_rows(d_out)
    d_bias = flat_rows(d_out).sum(axis=0)
    d_x = d_out @ weight.T
    return d_x, d_weight, d_bias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    return d_out * (x > 0)


def dropout(x: np.ndarray, rate: float, draws: np.ndarray | None = None):
    """Inverted dropout. Returns (output, keep_mask).

    Zeroes the entries whose uniform draw in [0, 1) is below `rate` and
    scales the survivors by 1/(1-rate); `draws` has x's shape. Rate 0, the
    inference pass, is the identity (mask of ones) and needs no draws.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x, np.ones_like(x)
    if draws is None or np.shape(draws) != x.shape:
        raise ShapeError(f"dropout at rate {rate} needs draws of shape {x.shape}, "
                         f"got {None if draws is None else np.shape(draws)}")
    keep = (draws >= rate).astype(x.dtype)
    return x * keep / (1.0 - rate), keep


def dropout_backward(d_out: np.ndarray, keep_mask: np.ndarray, rate: float) -> np.ndarray:
    if rate == 0.0:
        return d_out
    return d_out * keep_mask / (1.0 - rate)


def finite_difference_grad(f, params: dict[str, np.ndarray],
                           eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar function of a parameter dict.

    Perturbs one coordinate at a time, in place: (f(p+eps) - f(p-eps)) / (2 eps).
    Intended as the independent oracle for every analytic backward pass.
    """
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f(params)
            flat[i] = orig - eps
            down = f(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * eps)
        grads[name] = g
    return grads


def relative_error(g_analytic: np.ndarray, g_numeric: np.ndarray) -> float:
    """max-norm relative error used by all gradient checks."""
    ga = np.asarray(g_analytic, dtype=np.float64)
    gn = np.asarray(g_numeric, dtype=np.float64)
    num = np.max(np.abs(ga - gn)) if ga.size else 0.0
    den = max(1e-8, (np.max(np.abs(ga)) if ga.size else 0.0)
              + (np.max(np.abs(gn)) if gn.size else 0.0))
    return float(num / den)
