"""Every hand-derived backward pass against the finite-difference oracle.

`ROWS` is the one table: one test runs each row (a layer) at lead shapes (),
(B,) and (B1, B2), with and without a mask hole where the layer takes a mask,
in float64 and in float32 against one float64 oracle per case. A new backward
function needs a row: `test_every_backward_has_a_row` fails until one covers it.
"""

import importlib
import inspect
import math
import pkgutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import postpop
from conftest import random_bundle, tiny_config
from postpop import attention, encoders, model, numeric
from postpop.cli import model_config_from, resolve_config
from postpop.numeric import ShapeError

LEADS = {"one": (), "batch": (3,), "grid": (2, 3)}
# Row b of a (B, n) mask with a hole is HOLES[b, :n]: holes, dead tails, an
# all-dead row, and step 1, which no sequence uses.
HOLES = np.array([[1, 0, 1, 1, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0],
                  [1, 0, 1, 0, 1], [1, 0, 0, 1, 1], [1, 0, 1, 1, 1]], dtype=float)
RATE = 0.4  # the dropout rate of every row that drops
FLOAT32_TOL = 1e-4
DESK = model_config_from(resolve_config(Path(__file__).parents[1] / "configs" / "desk.cfg"))
# The full model at about 150 parameters, so that one oracle is ~300
# forwards. Its branches have one channel; with its parameters and inputs in
# [0, 1], no relu layer dies whole, which would leave a check vacuous.
MICRO = tiny_config(k=2, d=2, a=2, n=3, topic_dim=2, structure_dim=2,
                    **{f"{name}_channels": (1, 1, 1) for name in model.BRANCHES},
                    head_sizes=(3, 2, 1))
HEAD = replace(MICRO, head_sizes=(5, 4, 1))
# distinct dimensions: a transposed or misrouted gradient has the wrong shape
LSTM = encoders.lstm_param_shapes(3, 4)
PROJ = encoders.projection_param_shapes(5, 3)
ATT = attention.attention_param_shapes(5, 6)


def mask(lead, n, hole):
    return HOLES[:math.prod(lead), :n].reshape(*lead, n) if hole else np.ones((*lead, n))


def normal(rng, *shape):
    return rng.normal(size=shape)


def shapes_of(config, prefix):
    return {name: shape for name, shape in model.param_shapes(config).items()
            if name.startswith(prefix)}


@dataclass(frozen=True)
class Row:
    """`make(rng, lead, hole)` draws a case's arrays by name, `r` (the gradient at
    the output) among them. `forward(a)` returns (output, cache), `backward(a, cache)`
    the gradients of sum(r * output) by name; those in `checked` must match the
    oracle within `tol` in float64. `covers` names the backward functions checked."""

    name: str
    covers: tuple[str, ...]
    make: Callable
    forward: Callable
    backward: Callable
    checked: tuple[str, ...]
    tol: float
    masked: bool = False
    leads: tuple[str, ...] = tuple(LEADS)


def attention_make(rng, lead, hole):
    return {"text": normal(rng, *lead, 3, 5), "text_mask": mask(lead, 3, hole),
            "image": normal(rng, *lead, 4, 5), "tags": normal(rng, *lead, 2, 5),
            "tag_mask": mask(lead, 2, hole), "r": normal(rng, *lead, 5),
            **numeric.uniform_params(rng, ATT, 0.7)}


def hga_grads(a, cache):
    grads, d_text, d_image = attention.hga_backward(a["r"], cache, a)
    return {**grads, "text": d_text, "image": d_image}


def head_make(rng, lead, hole):
    params = numeric.uniform_params(rng, shapes_of(HEAD, "head."))
    return {"x": normal(rng, *lead, model.merged_length(HEAD)), "r": normal(rng, *lead),
            "draws": rng.random((*lead, sum(HEAD.head_sizes[:-1]))), **params}


def head_grads(a, cache):
    d_x, grads = model.head_backward(a["r"], cache, a)
    return {**grads, "x": d_x}


def branch_row(name):
    """One desk branch spec; the demographic input is sparse 0/1, as its
    one-hot face encodings are."""
    length = model.branch_input_dim(DESK, name)
    widths, channels = model.branch_layers(DESK, name)
    shapes = shapes_of(DESK, f"branch.{name}.")

    def make(rng, lead, hole):
        params = numeric.uniform_params(rng, shapes)
        f = (rng.random((*lead, length)) < 0.1) * 1.0 if name == "demographic" \
            else normal(rng, *lead, length)
        r = normal(rng, *lead, (length - sum(w - 1 for w in widths)) * channels[-1])
        return {"f": f, "r": r, **params}

    return Row(f"branch-{name}", ("model.branch_backward",), make,
               lambda a: model.branch_forward(a["f"], a, name),
               lambda a, cache: model.branch_backward(a["r"], cache, a, name),
               tuple(shapes), 1e-7)


def model_row(variant, rate=0.0, leads=tuple(LEADS)):
    """The full model at MICRO with one attention variant. A case's arrays
    are the parameters first, so `forward_bundle` computes in their dtype."""
    config = replace(MICRO, attention=variant)
    post = random_bundle(np.random.default_rng(0), config)  # each input's shape

    def make(rng, lead, hole):
        params = numeric.uniform_params(rng, model.param_shapes(config))
        return {**{name: abs(arr) for name, arr in params.items()},
                **{name: rng.random((*lead, *np.shape(getattr(post, name))))
                   for name in model._INPUT_FIELDS},
                "token_mask": mask(lead, config.m, hole),
                "hashtag_mask": mask(lead, config.l, hole),
                "draws": rng.random((*lead, sum(config.head_sizes[:-1]))),
                "r": normal(rng, *lead)}

    def forward(a):
        fields = {name: a[name] for name in model._INPUT_FIELDS}
        return model.forward_bundle(model.FeatureBundle(post_id=None, target=None, **fields),
                                    a, config, rate, a["draws"])

    # sa pools no hashtag, so nothing reaches its V weights
    checked = tuple(name for name in model.param_shapes(config)
                    if variant != "sa" or not name.startswith("att.V"))
    return Row(f"backward_bundle-{variant}{'-dropout' if rate else ''}",
               ("model.backward_bundle",), make, forward,
               lambda a, cache: model.backward_bundle(a["r"], cache, a, config),
               checked, 1e-5, masked=True, leads=leads)


ROWS = [
    Row("softmax", ("numeric.softmax_backward",),
        lambda rng, lead, hole: {"s": normal(rng, *lead, 5), "mask": mask(lead, 5, hole),
                                 "r": normal(rng, *lead, 5)},
        lambda a: (numeric.softmax(a["s"], a["mask"]),) * 2,  # the cache is the output
        lambda a, alpha: {"s": numeric.softmax_backward(alpha, a["r"], a["mask"])},
        ("s",), 1e-7, masked=True),
    Row("dense", ("numeric.dense_backward",),
        lambda rng, lead, hole: {"x": normal(rng, *lead, 4), "w": normal(rng, 4, 3),
                                 "b": normal(rng, 3), "r": normal(rng, *lead, 3)},
        lambda a: (numeric.dense_forward(a["x"], a["w"], a["b"]), None),
        lambda a, _: dict(zip("xwb", numeric.dense_backward(a["x"], a["w"], a["r"]))),
        ("x", "w", "b"), 1e-8),
    Row("relu", ("numeric.relu_backward",),
        lambda rng, lead, hole: {"x": normal(rng, *lead, 6), "r": normal(rng, *lead, 6)},
        lambda a: (numeric.relu(a["x"]), None),
        lambda a, _: {"x": numeric.relu_backward(a["x"], a["r"])}, ("x",), 1e-8),
    Row("dropout", ("numeric.dropout_backward",),
        lambda rng, lead, hole: {"x": normal(rng, *lead, 6), "r": normal(rng, *lead, 6),
                                 "draws": rng.random((*lead, 6))},
        lambda a: numeric.dropout(a["x"], RATE, a["draws"]),
        lambda a, keep: {"x": numeric.dropout_backward(a["r"], keep, RATE)}, ("x",), 1e-8),
    Row("conv1d", ("numeric.conv1d_backward",),
        lambda rng, lead, hole: {"x": normal(rng, *lead, 7, 2), "f": normal(rng, 4, 3, 2),
                                 "b": normal(rng, 4), "r": normal(rng, *lead, 5, 4)},
        lambda a: numeric.conv1d_forward(a["x"], a["f"], a["b"]),
        lambda a, cols: dict(zip("xfb", numeric.conv1d_backward(cols, a["f"], a["r"]))),
        ("x", "f", "b"), 1e-8),
    Row("lstm", ("encoders.lstm_backward",),
        lambda rng, lead, hole: {"tokens": normal(rng, *lead, 5, 3),
                                 "mask": mask(lead, 5, hole), "r": normal(rng, *lead, 5, 4),
                                 **numeric.uniform_params(rng, LSTM, 0.8)},
        lambda a: encoders.lstm_encode(a["tokens"], a["mask"], a),
        lambda a, cache: encoders.lstm_backward(a["r"], cache, a),
        tuple(LSTM), 1e-6, masked=True),
    Row("project_regions", ("encoders.project_regions_backward",),
        lambda rng, lead, hole: {"regions": normal(rng, *lead, 4, 5),
                                 "r": normal(rng, *lead, 4, 3),
                                 **numeric.uniform_params(rng, PROJ)},
        lambda a: (encoders.project_regions(a["regions"], a), None),
        lambda a, _: encoders.project_regions_backward(a["regions"], a["r"]),
        tuple(PROJ), 1e-6),
    Row("hga", ("attention.hga_backward", "attention._score_backward"), attention_make,
        lambda a: attention.hga_attention(a["text"], a["text_mask"], a["image"], a["tags"],
                                          a["tag_mask"], a),
        hga_grads, ("text", "image", *ATT), 1e-6, masked=True),
    Row("na", ("attention.na_backward",), attention_make,
        lambda a: (attention.na_content(a["text"], a["text_mask"], a["image"]), None),
        lambda a, _: dict(zip(("text", "image"),
                              attention.na_backward(a["r"], a["text_mask"], 3, 4))),
        ("text", "image"), 1e-6, masked=True),
    *(branch_row(name) for name in model.BRANCHES),
    Row("head", ("model.head_backward",), head_make,
        lambda a: model.head_forward(a["x"], a, HEAD, RATE, a["draws"]),
        head_grads, ("x", *shapes_of(HEAD, "head.")), 1e-7),
    model_row("hga"), model_row("sa"), model_row("na"),
    # one lead shape: a full-model oracle costs as much as a small row's at three
    model_row("hga", RATE, leads=("grid",)),
]
CASES = [pytest.param(row, lead, hole, id=f"{row.name}-{lead_id}-{'hole' if hole else 'live'}")
         for row in ROWS for lead_id, lead in LEADS.items() if lead_id in row.leads
         for hole in ((False, True) if row.masked else (False,))]


@pytest.mark.parametrize("row, lead, hole", CASES)
def test_backward_matches_the_oracle(row, lead, hole):
    a = row.make(np.random.default_rng(0), lead, hole)
    checked = {name: a[name] for name in row.checked}
    # the oracle perturbs the checked arrays of `a` in place
    oracle = numeric.finite_difference_grad(
        lambda _: float(np.sum(a["r"] * row.forward(a)[0])), checked)
    for name in row.checked:
        assert np.any(oracle[name]), f"vacuous check for {name}"
    for dtype, tol in ((np.float64, row.tol), (np.float32, FLOAT32_TOL)):
        cast = {name: arr.astype(dtype) for name, arr in a.items()}
        grads = row.backward(cast, row.forward(cast)[1])
        for name, arr in checked.items():
            assert grads[name].shape == arr.shape and grads[name].dtype == dtype, name
            err = numeric.relative_error(grads[name], oracle[name])
            assert err < tol, f"{name} ({np.dtype(dtype)}): relative error {err:.2e}"


def test_every_backward_has_a_row():
    found = set()
    for info in pkgutil.iter_modules(postpop.__path__):
        module = importlib.import_module(f"postpop.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__ == module.__name__
                  and (name.endswith("_backward") or name.startswith("backward_"))}
    assert found == {name for row in ROWS for name in row.covers}


ONES = {name: np.ones(shape) for shapes in (LSTM, PROJ, ATT) for name, shape in shapes.items()}
T, M3, M2 = np.ones((3, 5)), np.ones(3), np.ones(2)
GUARDS = {  # each guard of a layer in the table or of the check: a call, and its error
    "hga-image-dim": (attention.hga_attention, (T, M3, T[:, :4], T[:2], M2, ONES), ShapeError),
    "hga-hashtag-dim": (attention.hga_attention, (T, M3, T, T[:2, :4], M2, ONES), ShapeError),
    "na-text-mask": (attention.na_backward, (np.ones(5), M2, 3, 4), ShapeError),
    "softmax-mask": (numeric.softmax, (T, M3), ShapeError),
    "conv1d-channels": (numeric.conv1d_forward, (T, np.ones((1, 2, 3)), M2[:1]), ShapeError),
    "conv1d-width": (numeric.conv1d_forward, (T[:2], np.ones((1, 3, 5)), M2[:1]), ShapeError),
    "dense-shape": (numeric.dense_forward, (M2, T, np.ones(5)), ShapeError),
    "dropout-rate": (numeric.dropout, (M3, 1.0), ValueError),
    "lstm-input-dim": (encoders.lstm_encode, (T, M3, ONES), ShapeError),
    "projection-dim": (encoders.project_regions, (T[:, :4], ONES), ShapeError),
    "relative-error-shape": (numeric.relative_error, (M3, M3[:, None]), ShapeError),
}


@pytest.mark.parametrize("case", GUARDS)
def test_guard_raises_its_documented_error(case):
    call, args, error = GUARDS[case]
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error
