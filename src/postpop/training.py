"""Adam training loop with early stopping, metrics, correlation analysis,
and the ablation harness.

The training objective keeps the 1/(2n) scaling; reported evaluation MSE
uses the plain 1/n mean, so the two differ by a factor of two on identical
predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import streams
from .data import Dataset, split_dataset
from .features import SOCIAL_NUMERICS, SentimentLexicon, social_numerics
from .model import (ATTENTIONS, FeatureBundle, FeatureCaches, ModelConfig,
                    batch_loss_and_grads, build_caches, config_key, extract_features,
                    forward_bundle, init_model_params)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = config_key(1e-4, "Adam learning rate")
    batch_size: int = config_key(20, "mini-batch size")
    max_epochs: int = config_key(30, "maximum training epochs")
    patience: int = config_key(5, "early stopping patience (epochs)")
    dropout: float = config_key(0.2, "training dropout rate (not stored in the checkpoint)")
    init_scale: float = config_key(1.0, "parameter init range half-width "
                                   "(training only; not stored in the checkpoint)")
    seed: int = config_key(0, "training seed (init, shuffling, dropout)")

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError(f"init_scale must be finite and > 0, got {self.init_scale}")
        if self.patience > self.max_epochs:
            raise ValueError(f"patience {self.patience} > max_epochs {self.max_epochs}")


class TrainingDivergedError(ValueError):
    """A batch loss or validation MSE became non-finite during training."""


@dataclass
class Metrics:
    mse: float
    mae: float
    srcc: float
    pcc: float
    n: int

    def to_dict(self) -> dict:
        return {"mse": self.mse, "mae": self.mae, "srcc": self.srcc,
                "pcc": self.pcc, "n": self.n}


@dataclass
class Checkpoint:
    """In-memory training artifact: parameters plus the frozen feature state."""

    params: dict[str, np.ndarray]
    config: ModelConfig
    caches: FeatureCaches


@dataclass
class AdamState:
    """Adam's moment estimates, one flat buffer each, over the parameters
    concatenated in the parameter dict's order; allocated at the first step."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              betas=(0.9, 0.999), eps: float = 1e-8) -> AdamState:
    """Standard bias-corrected adaptive-moment update, in place.

    The update is elementwise, so it runs once over every gradient
    concatenated in the order of `params`, and each parameter then takes
    its slice of the step. Shapes are checked before anything changes.
    """
    b1, b2 = betas
    pairs = list(params.items())
    for name, p in pairs:
        if grads[name].shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
    g = np.concatenate([grads[name].ravel() for name, _ in pairs])
    if state.m is None:
        state.m = np.zeros_like(g)
        state.v = np.zeros_like(g)
    state.step += 1
    t = state.step
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
    # p -= lr m_hat / (sqrt(v_hat) + eps), with the operations in this order,
    # run in place on the flat buffers to spare the temporaries
    state.m *= b1
    state.m += (1 - b1) * g
    g_sq = (1 - b2) * g
    g_sq *= g
    state.v *= b2
    state.v += g_sq
    update = state.m / (1 - b1 ** t)
    v_hat = state.v / (1 - b2 ** t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += eps
    update *= lr
    update /= v_hat
    start = 0
    for _, p in pairs:
        p -= update[start:start + p.size].reshape(p.shape)
        start += p.size
    return state


# Posts per forward pass when scoring. A pass holds every layer's
# activations for its whole batch, so this bounds the memory of scoring a
# large dataset.
SCORE_BATCH = 64


def _predictions(batch: FeatureBundle, params, config) -> np.ndarray:
    n = len(batch.target)
    return np.concatenate([
        forward_bundle(batch[start:start + SCORE_BATCH], params, config)[0]
        for start in range(0, n, SCORE_BATCH)])


def _rank_average(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their ranks.

    After one stable argsort, a group of ties starts where a sorted value
    differs from the one before (a NaN equals nothing: a group of its own);
    the group at sorted positions i..j ranks (i + j) / 2 + 1, exact."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.append(True, xs[1:] != xs[:-1])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(x)) - 1
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = ((starts + ends) / 2.0 + 1.0)[np.cumsum(first) - 1]
    return ranks


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Product-moment correlation; NaN when either argument has no variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length vectors")
    if len(x) < 2:
        raise ValueError("pearson needs length >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return float("nan")
    return float(xc @ yc) / denom


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman needs two equal-length vectors")
    if len(x) < 2:
        raise ValueError("spearman needs length >= 2")
    return pearson(_rank_average(x), _rank_average(y))


def compute_metrics(preds: np.ndarray, targets: np.ndarray) -> Metrics:
    """Evaluation metrics; MSE here is the plain mean of squared errors."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.size == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    bad = np.count_nonzero(~np.isfinite(preds)) + np.count_nonzero(~np.isfinite(targets))
    if bad:
        raise ValueError(f"{bad} non-finite prediction(s) or target(s); cannot evaluate")
    # finite inputs can still overflow: checked below, without a warning
    with np.errstate(over="ignore"):
        err = preds - targets
        mse = float(np.mean(err ** 2))
        mae = float(np.mean(np.abs(err)))
    for name, value in (("MSE", mse), ("MAE", mae)):
        if not math.isfinite(value):
            raise ValueError(f"{name} over {preds.size} prediction(s) is {value!r}: the "
                             "errors are too large for float64; cannot evaluate")
    return Metrics(
        mse=mse,
        mae=mae,
        srcc=spearman(preds, targets) if preds.size >= 2 else float("nan"),
        pcc=pearson(preds, targets) if preds.size >= 2 else float("nan"),
        n=int(preds.size),
    )


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[tuple[int, float, float]]  # (epoch, train_loss, val_mse)


def _check_targets(posts) -> None:
    """Reject a popularity too large for the objective to square.

    The batch loss and the validation MSE each sum at most len(posts)
    squared errors, so every |popularity| must be at most sqrt(max / n) for
    the sum to stay finite in float64.
    """
    limit = math.sqrt(np.finfo(np.float64).max / len(posts))
    for post in posts:
        if abs(post.popularity) > limit:
            raise ValueError(
                f"post {post.post_id}: popularity {post.popularity!r} is too large to "
                f"train on; the squared errors of {len(posts)} posts overflow float64 "
                f"unless every |popularity| <= {limit:.4g}")


def train(train_ds: Dataset, val_ds: Dataset, config: ModelConfig,
          train_config: TrainConfig, caches: FeatureCaches | None = None,
          lexicon: SentimentLexicon | None = None) -> TrainResult:
    """Mini-batch Adam with per-epoch validation and early stopping.

    Keeps the parameters from the best-validation epoch; stops after
    `patience` consecutive epochs without a strict val-MSE improvement.
    Raises TrainingDivergedError at the first non-finite batch loss or
    validation MSE, so no diverged run returns a checkpoint, and ValueError
    naming the post when a popularity is too large for the loss to square.
    The epochs run with numpy's overflow and invalid-value warnings off, so
    those checks, not a warning, end a diverging run.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ValueError("train and validation splits must be non-empty")
    _check_targets((*train_ds.posts, *val_ds.posts))
    if caches is None:
        caches = build_caches(train_ds.posts, config, lexicon=lexicon)
    params = init_model_params(config, seed=train_config.seed,
                               scale=train_config.init_scale)
    # one featurization pass over both splits, so a shared key is drawn once
    bundles = extract_features((*train_ds.posts, *val_ds.posts), caches, config)
    train_set = bundles[:len(train_ds)]
    val_set = bundles[len(train_ds):]
    hidden = sum(config.head_sizes[:-1])  # the head's dropout draws per post
    state = AdamState()
    history: list[tuple[int, float, float]] = []
    best_val = math.inf  # so epoch 1 always sets best_params
    stale = 0
    step = 0
    n = len(train_set.target)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, train_config.max_epochs + 1):
            order = np.random.default_rng(
                np.random.SeedSequence([train_config.seed, epoch])).permutation(n)
            epoch_losses = []
            for start in range(0, n, train_config.batch_size):
                batch = train_set[order[start:start + train_config.batch_size]]
                # post i's dropout uniforms: the stream keyed by (seed, step, i)
                draws = streams.uniform_rows((train_config.seed, step), len(batch),
                                             hidden) if train_config.dropout > 0 else None
                loss, grads, _ = batch_loss_and_grads(batch, params, config,
                                                      train_config.dropout, draws)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        f"training diverged: batch loss {loss!r} at epoch {epoch}, "
                        f"step {step} (learning_rate={train_config.learning_rate!r})")
                adam_step(params, grads, state, train_config.learning_rate)
                epoch_losses.append(loss)
                step += 1
            val_preds = _predictions(val_set, params, config)
            val_mse = float(np.mean((val_preds - val_set.target) ** 2))
            if not math.isfinite(val_mse):
                raise TrainingDivergedError(
                    f"training diverged: validation MSE {val_mse!r} after epoch {epoch} "
                    f"(learning_rate={train_config.learning_rate!r})")
            history.append((epoch, float(np.mean(epoch_losses)), val_mse))
            if val_mse < best_val:
                best_val = val_mse
                best_params = {name: p.copy() for name, p in params.items()}
                stale = 0
            else:
                stale += 1
                if stale >= train_config.patience:
                    break
    return TrainResult(
        checkpoint=Checkpoint(params=best_params, config=config, caches=caches),
        history=history,
    )


def evaluate(checkpoint: Checkpoint, ds: Dataset) -> Metrics:
    """Metrics over a dataset, scored without dropout.

    Posts are featurized and scored `SCORE_BATCH` at a time, so at most one
    chunk's features are held at once. The forward passes run with numpy's
    overflow and invalid-value warnings off: a non-finite prediction raises
    ValueError naming its posts instead.
    """
    if len(ds) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    chunks = []
    for start in range(0, len(ds), SCORE_BATCH):
        batch = extract_features(ds.posts[start:start + SCORE_BATCH], checkpoint.caches,
                                 checkpoint.config)
        with np.errstate(over="ignore", invalid="ignore"):
            chunks.append(forward_bundle(batch, checkpoint.params, checkpoint.config)[0])
    preds = np.concatenate(chunks)
    if not np.isfinite(preds).all():  # the post ids are listed only to name the bad ones
        bad = np.array([p.post_id for p in ds.posts])[~np.isfinite(preds)]
        shown = ", ".join(bad[:5]) + (", ..." if len(bad) > 5 else "")
        raise ValueError(f"{len(bad)} of {len(preds)} prediction(s) are not finite "
                         f"(posts {shown}); the checkpoint's weights may be corrupt")
    return compute_metrics(preds, ds.popularity())


# ---------------------------------------------------------------------------
# feature correlation analysis

SCALAR_FEATURES = (*SOCIAL_NUMERICS[:9], "post_day", "post_month", "post_hour",
                   "post_duration_days")


def correlate_features(ds: Dataset, caches: FeatureCaches | None = None,
                       config: ModelConfig | None = None) -> list[tuple[str, float]]:
    """Spearman correlation of each feature with popularity.

    Scalar metadata features enter directly; the vector features (hashtag,
    sentiment, demographic) are summarized by their Euclidean norm, over
    posts featurized `SCORE_BATCH` at a time. Constant features get NaN.
    """
    config = config or ModelConfig()
    if caches is None:
        caches = build_caches(ds.posts, config)
    y = ds.popularity()
    columns: dict[str, np.ndarray] = {}
    numerics = social_numerics(ds.posts)
    for i, name in enumerate(SCALAR_FEATURES[:9]):
        columns[name] = numerics[:, i]
    meta = [(p.metadata.post_day, p.metadata.post_month, p.metadata.post_hour,
             p.metadata.post_duration_days) for p in ds.posts]
    meta = np.array(meta, dtype=np.float64)
    for j, name in enumerate(SCALAR_FEATURES[9:]):
        columns[name] = meta[:, j]
    norms = {"hashtag_feature": [], "sentiment_feature": [], "demographic_feature": []}
    for start in range(0, len(ds), SCORE_BATCH):
        batch = extract_features(ds.posts[start:start + SCORE_BATCH], caches, config)
        # per row: an axis-wise norm rounds differently
        norms["hashtag_feature"] += [np.linalg.norm(v) for v in batch.f_hashtag]
        norms["sentiment_feature"] += [np.linalg.norm(v) for v in np.concatenate(
            [batch.f_sentiment_text, batch.f_sentiment_hashtags], axis=1)]
        norms["demographic_feature"] += [np.linalg.norm(v) for v in batch.f_demographic]
        del batch  # before the next chunk's features, so one chunk's are held at a time
    columns.update((name, np.array(v)) for name, v in norms.items())
    out = []
    for name, col in columns.items():
        if np.all(col == col[0]) or np.all(y == y[0]):
            out.append((name, float("nan")))
        else:
            out.append((name, spearman(col, y)))
    return out


# ---------------------------------------------------------------------------
# ablation harness

# variant -> the ModelConfig fields it overrides; one `no_*` per `use_*` flag
VARIANTS = {
    "full": {},
    **{name: {"attention": name} for name in ATTENTIONS},
    **{f"no_{f.name[4:]}": {f.name: False}
       for f in fields(ModelConfig) if f.name.startswith("use_")},
}


@dataclass
class AblationRow:
    variant: str
    seed: int
    val_mse: float
    val_mae: float
    test_mse: float
    test_mae: float


@dataclass
class AblationReport:
    rows: list[AblationRow]

    def median(self, variant: str, column: str = "val_mse") -> float:
        vals = [getattr(r, column) for r in self.rows if r.variant == variant]
        return float(np.median(vals))

    def to_csv_lines(self) -> list[str]:
        lines = ["variant,seed,val_mse,val_mae,test_mse,test_mae"]
        for r in self.rows:
            lines.append(f"{r.variant},{r.seed},{r.val_mse!r},{r.val_mae!r},"
                         f"{r.test_mse!r},{r.test_mae!r}")
        return lines

    def to_table(self) -> str:
        width = max(len(r.variant) for r in self.rows) + 2
        out = [f"{'variant':<{width}}{'seed':>6}{'val MSE':>12}{'val MAE':>12}"
               f"{'test MSE':>12}{'test MAE':>12}"]
        for r in self.rows:
            out.append(f"{r.variant:<{width}}{r.seed:>6}{r.val_mse:>12.4f}"
                       f"{r.val_mae:>12.4f}{r.test_mse:>12.4f}{r.test_mae:>12.4f}")
        return "\n".join(out)


def apply_variant(config: ModelConfig, variant: str) -> ModelConfig:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; known: {sorted(VARIANTS)}")
    return replace(config, **VARIANTS[variant])


def ablate(ds: Dataset, base_config: ModelConfig, train_config: TrainConfig,
           variants: list[str], seeds: list[int],
           fractions=(0.8, 0.1, 0.1),
           lexicon: SentimentLexicon | None = None) -> AblationReport:
    """Train and evaluate each variant under identical seeds and splits.

    A seed's split and feature caches are made at its first run and shared
    by every later variant: no variant changes what `build_caches` reads.
    """
    splits, caches = {}, {}
    rows = []
    for variant in variants:
        config = apply_variant(base_config, variant)
        for seed in seeds:
            if seed not in splits:
                splits[seed] = split_dataset(ds, fractions, seed=seed)
            tr, va, te = splits[seed]
            result = train(tr, va, config, replace(train_config, seed=seed),
                           caches=caches.get(seed), lexicon=lexicon)
            caches[seed] = result.checkpoint.caches
            val_m = evaluate(result.checkpoint, va)
            test_m = evaluate(result.checkpoint, te)
            rows.append(AblationRow(variant=variant, seed=seed,
                                    val_mse=val_m.mse, val_mae=val_m.mae,
                                    test_mse=test_m.mse, test_mae=test_m.mae))
    return AblationReport(rows=rows)
