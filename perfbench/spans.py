"""Call-site tracer for the postpop layers.

A span is recorded around every call of a wrapped public function: its
name, start, end, the span that caused it, and the benchmark operation it
belongs to. Spans stay in in-memory arrays while the workload runs and are
summarised (calls, self time) and written once, at the end.

Functions are wrapped where they are looked up: postpop modules import many
layer functions by bare name (`from .hashtag_graph import node_embeddings`),
so the tracer replaces every module attribute that *is* the original
function, not only the one in the defining module. `EmbeddingProvider.vector`
is wrapped on the class.

A few spans also record counts at the same boundary:
- `providers.vector`: the distinct `(key, dim)` requests, whose ratio to
  calls is the useful-to-attempted ratio of memoising provider vectors;
- `hashtag_graph.build_cooccurrence_graph`: nodes and edges of the graph;
- `model.head_forward` and `encoders.lstm_encode`: FLOPs and bytes moved,
  computed from the operand shapes and dtypes seen at the call (see
  `dense_layer_cost` and `lstm_step_cost`).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

POSTPOP_MODULES = ("data", "providers", "hashtag_graph", "features", "numeric",
                   "encoders", "attention", "model", "training", "cli", "corpora")

# Every span the benchmark knows, as <module>.<function>. numeric kernels are
# leaves called inside the model spans; their time is the callers' self time.
SPAN_NAMES = (
    "data.load_dataset",
    "providers.vector",
    "hashtag_graph.build_cooccurrence_graph",
    "hashtag_graph.node_embeddings",
    "hashtag_graph.hashtag_feature",
    "features.fit_social_pca",
    "features.sentiment_feature",
    "features.social_vector",
    "features.demographic_vector",
    "model.build_caches",
    "model.init_model_params",
    "model.extract_features",
    "encoders.lstm_encode",
    "encoders.lstm_backward",
    "encoders.project_regions",
    "encoders.project_regions_backward",
    "attention.hga_attention",
    "attention.hga_backward",
    "attention.na_content",
    "attention.na_backward",
    "model.branch_forward",
    "model.branch_backward",
    "model.head_forward",
    "model.head_backward",
    "model.forward_bundle",
    "model.backward_bundle",
    "training.batch_loss_and_grads",
    "training.adam_step",
    "training.evaluate",
)

COUNT_UNITS = {
    "providers.vector.unique": "count",
    "providers.vector.unique_ratio": "ratio",
    "hashtag_graph.nodes": "count",
    "hashtag_graph.edges": "count",
    "model.head_forward.flops": "flop",
    "model.head_forward.bytes": "B",
    "encoders.lstm_step.flops": "flop",
    "encoders.lstm_step.bytes": "B",
}


def _size(dtype) -> int:
    return np.dtype(dtype).itemsize


def dense_layer_cost(n_in: int, n_out: int, x_dtype, w_dtype, b_dtype,
                     relu: bool) -> dict:
    """Computed FLOPs and bytes of `relu?(x @ W + b)` for a 1-D x.

    When W's dtype differs from the result dtype numpy materialises a cast
    copy of W before the product, so the cast's read and write are counted.
    """
    r = np.result_type(x_dtype, w_dtype)
    cast = n_in * n_out * (_size(w_dtype) + _size(r)) if np.dtype(w_dtype) != r else 0
    out = np.result_type(r, b_dtype)
    nbytes = (cast + n_in * _size(r) + n_in * n_out * _size(r) + n_out * _size(r)
              + n_out * (_size(r) + _size(b_dtype) + _size(out)))
    flops = 2 * n_in * n_out + n_out
    if relu:
        flops += n_out
        nbytes += 2 * n_out * _size(out)
    return {"in": n_in, "out": n_out, "x_dtype": np.dtype(x_dtype).name,
            "w_dtype": np.dtype(w_dtype).name, "compute_dtype": out.name,
            "flops": flops, "bytes": nbytes, "cast_bytes": cast}


def head_cost(x, params, config) -> list[dict]:
    """Per-layer computed cost of one `head_forward(x, params, config)`."""
    layers = []
    dtype = np.asarray(x).dtype
    n_in = np.asarray(x).shape[0]
    last = len(config.head_sizes) - 1
    for i in range(len(config.head_sizes)):
        w, b = params[f"head.dense{i}.W"], params[f"head.dense{i}.b"]
        cost = dense_layer_cost(n_in, w.shape[1], dtype, w.dtype, b.dtype,
                                relu=i < last)
        cost["layer"] = i
        layers.append(cost)
        dtype, n_in = np.dtype(cost["compute_dtype"]), w.shape[1]
    return layers


def lstm_step_cost(tokens, params, prefix: str = "lstm") -> dict:
    """Computed cost of one live LSTM step: z = x@Wx + h@Wh + b, then gates.

    The hidden state starts as float64 zeros, so the step computes in the
    result dtype of (tokens, float64, Wx, Wh); a weight in another dtype is
    cast on every step. Elementwise work (gate nonlinearities, cell and
    hidden updates) is counted as 18 flops and 12 reads/writes per unit.
    """
    wx, wh, b = params[f"{prefix}.Wx"], params[f"{prefix}.Wh"], params[f"{prefix}.b"]
    d_in, g4 = wx.shape
    hidden = wh.shape[0]
    r = np.result_type(np.asarray(tokens).dtype, np.float64, wx.dtype, wh.dtype)
    cast = sum(w.size * (_size(w.dtype) + _size(r)) for w in (wx, wh)
               if w.dtype != r)
    flops = 2 * d_in * g4 + 2 * hidden * g4 + 2 * g4 + 18 * hidden
    nbytes = (cast + (wx.size + wh.size) * _size(r) + (d_in + hidden) * _size(r)
              + g4 * (3 * _size(r) + _size(b.dtype)) + 12 * hidden * _size(r))
    return {"flops": flops, "bytes": nbytes, "cast_bytes": cast,
            "compute_dtype": r.name, "w_dtype": wx.dtype.name}


class Tracer:
    """Wraps the postpop layer functions and records spans in memory."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.absent: set[str] = set()  # span names whose function does not exist
        self._patches: list[tuple[object, str, object]] = []
        self.vector_keys: set = set()
        self.graph_size = (0, 0)
        self.head_layers: list[dict] = []
        self.lstm_step: dict = {}
        self.lstm_live_steps = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"postpop.{name}")
                   for name in POSTPOP_MODULES}
        for span in SPAN_NAMES:
            mod_name, func = span.split(".", 1)
            if span == "providers.vector":
                cls = modules["providers"].EmbeddingProvider
                original = cls.__dict__.get("vector")
                if original is None:
                    self.absent.add(span)
                    continue
                self._patch(cls, "vector", self._wrap(span, original))
                continue
            original = getattr(modules[mod_name], func, None)
            if not callable(original):
                self.absent.add(span)
                continue
            wrapper = self._wrap(span, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn):
        sid = self._ids[span]
        before = {
            "providers.vector": self._on_vector,
            "model.head_forward": self._on_head,
            "encoders.lstm_encode": self._on_lstm,
        }.get(span)
        after = self._on_graph if span == "hashtag_graph.build_cooccurrence_graph" else None
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end, stack = self.s_start, self.s_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(s_start)
            s_name.append(sid)
            s_parent.append(stack[-1])
            s_op.append(self.op_id)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- counters at span boundaries ---------------------------------------

    def _on_vector(self, args, kwargs) -> None:
        # EmbeddingProvider.vector(self, key, dim)
        key = args[1] if len(args) > 1 else kwargs["key"]
        dim = args[2] if len(args) > 2 else kwargs["dim"]
        self.vector_keys.add((key, dim))

    def _on_graph(self, graph) -> None:
        self.graph_size = max(self.graph_size, (len(graph.nodes), len(graph.edges)))

    def _on_head(self, args, kwargs) -> None:
        if not self.head_layers:
            x = args[0] if args else kwargs["x"]
            params = args[1] if len(args) > 1 else kwargs["params"]
            config = args[2] if len(args) > 2 else kwargs["config"]
            self.head_layers = head_cost(x, params, config)

    def _on_lstm(self, args, kwargs) -> None:
        tokens = args[0] if args else kwargs["tokens"]
        mask = args[1] if len(args) > 1 else kwargs["mask"]
        params = args[2] if len(args) > 2 else kwargs["params"]
        if not self.lstm_step:
            self.lstm_step = lstm_step_cost(tokens, params)
        self.lstm_live_steps += int(np.count_nonzero(mask))

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Calls and self time per span name (self = span minus child spans)."""
        names = np.array(self.s_name, dtype=np.int32)
        parents = np.array(self.s_parent, dtype=np.int32)
        dur = np.array(self.s_end) - np.array(self.s_start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(SPAN_NAMES)}

    def counts(self, vector_calls: int) -> dict[str, float]:
        head_flops = sum(layer["flops"] for layer in self.head_layers)
        head_bytes = sum(layer["bytes"] for layer in self.head_layers)
        unique = len(self.vector_keys)
        return {
            "providers.vector.unique": unique,
            "providers.vector.unique_ratio": unique / vector_calls if vector_calls else 0.0,
            "hashtag_graph.nodes": self.graph_size[0],
            "hashtag_graph.edges": self.graph_size[1],
            "model.head_forward.flops": head_flops,
            "model.head_forward.bytes": head_bytes,
            "encoders.lstm_step.flops": self.lstm_step.get("flops", 0),
            "encoders.lstm_step.bytes": self.lstm_step.get("bytes", 0),
        }

    def write(self, path) -> None:
        """Write every span once, as numpy arrays plus the name table."""
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES),
            name=np.array(self.s_name, dtype=np.int32),
            parent=np.array(self.s_parent, dtype=np.int32),
            op=np.array(self.s_op, dtype=np.int32), start=np.array(self.s_start),
            end=np.array(self.s_end))
