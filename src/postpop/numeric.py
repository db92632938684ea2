"""Dense-layer primitives, parameter storage, and a finite-difference gradient oracle.

Everything trainable in the model is built from the forward/backward pairs in
this module. Backward passes are hand-derived per layer (the model graph is
static); `finite_difference_grad` is the independent check they are verified
against.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class ParamStore:
    """Named collection of parameter arrays with fixed shapes.

    Initialization draws uniform values in [-scale, scale]; the default
    scale of 1.0 gives the wide [-1, 1] init the model trains from.
    """

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}

    def add(self, name: str, shape, rng: np.random.Generator,
            scale: float = 1.0, dtype=np.float64) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        if dtype == np.float32:
            # draw in float32 and scale in place, so a huge layer never
            # materializes in f8 or as a second copy
            arr = rng.random(size=shape, dtype=np.float32)
            arr *= 2.0
            arr -= 1.0
            arr *= np.float32(scale)
        else:
            arr = rng.uniform(-scale, scale, size=shape).astype(dtype)
        self._params[name] = arr
        return arr

    def add_array(self, name: str, arr: np.ndarray) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        self._params[name] = np.asarray(arr)
        return self._params[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value: np.ndarray):
        if name not in self._params:
            raise KeyError(f"unknown parameter: {name}")
        if self._params[name].shape != np.shape(value):
            raise ShapeError(
                f"parameter {name}: shape {np.shape(value)} does not match "
                f"fixed shape {self._params[name].shape}")
        self._params[name] = np.asarray(value)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for k, v in self._params.items():
            out._params[k] = v.copy()
        return out

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: every layer runs in the parameters' dtype."""
        return next(iter(self._params.values())).dtype

    def astype(self, dtype) -> "ParamStore":
        out = ParamStore()
        for k, v in self._params.items():
            out._params[k] = v.astype(dtype)
        return out


def flat_rows(x: np.ndarray) -> np.ndarray:
    """Collapse every leading axis: (..., n) -> (rows, n).

    Parameter gradients sum over the batch and every other leading axis, so
    `flat_rows(a).T @ flat_rows(b)` is the summed outer product.
    """
    return x.reshape(-1, x.shape[-1])


def padded_index(rows, width: int | None = None) -> np.ndarray:
    """(B, width) index array of B index lists, padded with -1.

    A table whose last row is zeros gathers zeros at the padding. `width`
    defaults to the longest list.
    """
    if width is None:
        width = max(map(len, rows), default=0)
    return np.array([[*r, *(-1,) * (width - len(r))] for r in rows], dtype=np.intp)


def pooled_mean(rows: np.ndarray, counts) -> np.ndarray:
    """(B, n) means of the first counts[b] rows of each rows[b] in (B, T, n),
    the rest being zeros; a count of 0 gives zeros.

    The zero-padded sum over T adds each post's rows in order, then divides
    once by the count, as np.mean(rows[b, :count], axis=0) does, bit for bit
    when n > 1. (With n == 1 numpy sums pairwise, and the padding can move
    the last bit.)
    """
    return rows.sum(axis=1) / np.array([[max(c, 1)] for c in counts], dtype=np.float64)


def softmax(scores: np.ndarray, mask: np.ndarray | None = None,
            allow_empty: bool = False) -> np.ndarray:
    """Masked softmax over the last axis of `scores` (..., n).

    Masked positions get weight exactly 0; unmasked weights are shifted by
    the row's unmasked max before exponentiation. A row with no live entry
    raises, unless `allow_empty`, in which case its weights are all zero.
    """
    scores = np.asarray(scores)
    if mask is None:
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    live = np.asarray(mask) > 0
    if live.shape != scores.shape:
        raise ShapeError(f"mask shape {live.shape} != scores shape {scores.shape}")
    if not allow_empty and not live.any(axis=-1).all():
        raise ValueError("softmax over a fully masked vector")
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
    position's input window as one row, channel-major.

    Built from `width` shifted slices: the same layout and bits as a
    `sliding_window_view` reshape, without its per-call set-up cost.
    """
    out_len = x.shape[-2] - width + 1
    cols = np.stack([x[..., j:j + out_len, :] for j in range(width)], axis=-1)
    return cols.reshape(*cols.shape[:-2], -1)


def conv1d_forward(x: np.ndarray, filters: np.ndarray, bias: np.ndarray):
    """Valid (no padding) stride-1 cross-correlation over the rows of x.

    x: (..., length, ch_in); filters: (ch_out, width, ch_in); bias: (ch_out,).
    Returns (pre, cols): the (..., length - width + 1, ch_out)
    pre-activations, which the caller applies any nonlinearity to, and x's
    `_conv_columns`, which `conv1d_backward` takes in place of x.
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
    return cols @ filters.transpose(0, 2, 1).reshape(ch_out, -1).T + bias, cols


def conv1d_backward(cols: np.ndarray, filters: np.ndarray, d_out: np.ndarray,
                    input_grad: bool = True):
    """Gradients of conv1d_forward, from the input columns it returned.
    Returns (d_x, d_filters, d_bias); the filter and bias gradients are
    summed over every leading axis of x. With `input_grad` false, d_x is
    None and is not computed."""
    ch_out, width, ch_in = filters.shape
    out_len = d_out.shape[-2]
    # d_filters[o,w,c] = sum_t d_out[t,o] * x[t+w,c]
    d_filters = (flat_rows(d_out).T @ flat_rows(cols)) \
        .reshape(ch_out, ch_in, width).transpose(0, 2, 1)
    d_bias = flat_rows(d_out).sum(axis=0)
    if not input_grad:
        return None, d_filters, d_bias
    # d_x[t+w,c] += sum_o d_out[t,o] * filters[o,w,c]
    contrib = (d_out @ filters.reshape(ch_out, width * ch_in)).reshape(
        *d_out.shape[:-1], width, ch_in)
    d_x = np.zeros((*cols.shape[:-2], out_len + width - 1, ch_in), dtype=cols.dtype)
    for w in range(width):
        d_x[..., w:w + out_len, :] += contrib[..., w, :]
    return d_x, d_filters, d_bias


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


def finite_difference_grad(f, store: ParamStore, eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar function of a ParamStore.

    Perturbs one coordinate at a time: (f(p+eps) - f(p-eps)) / (2 eps).
    Intended as the independent oracle for every analytic backward pass.
    """
    grads = {}
    for name, arr in store.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f(store)
            flat[i] = orig - eps
            down = f(store)
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
