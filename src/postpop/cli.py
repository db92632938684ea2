"""Command-line pipeline: train, evaluate, run ablations, and inspect
attention weights.

`train` runs straight from the corpus: it fits the frozen feature state
(hashtag graph, node embeddings, social stats, PCA) on the training split
itself. `evaluate` and `inspect-attention` rebuild that state the same way.

Configuration is a plain-text file of `key=value` lines (# comments allowed)
with command-line overrides via repeated --set key=value. Unknown keys are
rejected. `DEFAULTS` declares the run keys (paths and the split); every
model and training key, the `<branch>_widths` and `<branch>_channels` conv
shapes included, is a field of `ModelConfig` or `TrainConfig`, which gives
its default, its type and its --help text.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .data import CorpusError, load_dataset, split_dataset
from .features import SentimentLexicon
from .model import (PAPER_HEAD_SIZES, ModelConfig, build_caches, extract_features,
                    forward_bundle, load_checkpoint, save_checkpoint)
from .providers import tokenize
from .training import VARIANTS, Checkpoint, TrainConfig, ablate, evaluate, train


class UsageError(ValueError):
    """Bad flags or configuration keys (exit code 1)."""


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise UsageError(f"expected true/false, got {s!r}")


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in s.split(","))


def _parse_head(s: str) -> tuple[int, ...]:
    return PAPER_HEAD_SIZES if s == "paper" else _parse_ints(s)


def _parse_seeds(s: str) -> list[int]:
    try:
        seeds = list(_parse_ints(s))
    except ValueError:
        seeds = []
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 0, got {s!r}")
    return seeds


def _key(default, help_text: str) -> tuple:
    """(parser, default as a config file spells it, help) by the default's type;
    the paper head sizes are spelled `paper`."""
    if default == PAPER_HEAD_SIZES:
        return _parse_head, "paper", help_text
    kind = type(default)
    if kind is tuple:
        return _parse_ints, ",".join(map(str, default)), help_text
    if kind is bool:
        return _parse_bool, str(default).lower(), help_text
    return kind, str(default), help_text


# key -> (parser, default, help): the run keys, then the keys of the config fields
DEFAULTS = {
    "corpus": (str, "data/sample_corpus.jsonl", "path to the JSON-lines corpus"),
    "lexicon": (str, "", "sentiment lexicon path (empty = bundled)"),
    "checkpoint": (str, "out/model.ckpt", "checkpoint file path"),
    "out": (str, "out", "output directory for history/metrics/reports"),
    "train_frac": (float, "0.8", "training split fraction"),
    "val_frac": (float, "0.1", "validation split fraction"),
    "test_frac": (float, "0.1", "test split fraction"),
    "split_seed": (int, "0", "dataset split seed"),
    **{f.name: _key(f.default, f.metadata["help"])
       for config_class in (ModelConfig, TrainConfig) for f in fields(config_class)},
}


def parse_config_file(path) -> dict[str, str]:
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def resolve_config(config_path=None, overrides=None) -> dict:
    raw = {key: default for key, (_, default, _) in DEFAULTS.items()}
    for source in (parse_config_file(config_path) if config_path else {},
                   overrides or {}):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise UsageError(f"unknown configuration key {key!r}")
            raw[key] = value
    out = {}
    for key, value in raw.items():
        parser = DEFAULTS[key][0]
        try:
            out[key] = parser(value)
        except (ValueError, TypeError) as e:
            raise UsageError(f"bad value for {key}: {value!r} ({e})")
    return out


def model_config_from(rc: dict) -> ModelConfig:
    try:
        return ModelConfig(**{f.name: rc[f.name] for f in fields(ModelConfig)})
    except ValueError as e:
        raise UsageError(f"bad model configuration: {e}")


def train_config_from(rc: dict) -> TrainConfig:
    try:
        return TrainConfig(**{f.name: rc[f.name] for f in fields(TrainConfig)})
    except ValueError as e:
        raise UsageError(f"bad training configuration: {e}")


def _lexicon(rc: dict) -> SentimentLexicon:
    if rc["lexicon"]:
        return SentimentLexicon.from_file(rc["lexicon"])
    return SentimentLexicon.bundled()


# Skipped corpus lines reported one by one; the rest are only counted.
SHOWN_SKIPS = 10


def _load_corpus(rc: dict):
    """The corpus, after reporting its skipped lines on stderr: the count,
    then the line number and reason of the first SHOWN_SKIPS."""
    problems = []
    ds, skipped = load_dataset(rc["corpus"], problems=problems)
    if skipped:
        print(f"skipped {skipped} malformed line(s) of {rc['corpus']}", file=sys.stderr)
        for number, reason in problems[:SHOWN_SKIPS]:
            print(f"  line {number}: {reason}", file=sys.stderr)
        if skipped > SHOWN_SKIPS:
            print(f"  ... and {skipped - SHOWN_SKIPS} more", file=sys.stderr)
    return ds


def _load_splits(rc: dict):
    ds = _load_corpus(rc)
    fractions = (rc["train_frac"], rc["val_frac"], rc["test_frac"])
    return split_dataset(ds, fractions, seed=rc["split_seed"])


def _write_rows(path, header, rows):
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _output_dir(rc: dict, report: str, *files: Path) -> Path:
    """Create the `out` directory and check that `report` in it and each of
    `files` can be written, so a run that could not save its results stops
    before it trains. Raises OSError (exit 2) naming the path."""
    out = Path(rc["out"])
    out.mkdir(parents=True, exist_ok=True)
    for path in (out / report, *files):
        if path.is_dir():
            raise IsADirectoryError(f"{path}: Is a directory, not a file to write")
        if not path.parent.is_dir():
            raise FileNotFoundError(f"{path}: its directory {path.parent} does not exist")
        if not os.access(path.parent, os.W_OK | os.X_OK):
            raise PermissionError(f"{path}: its directory {path.parent} is not writable")
    return out


def cmd_train(rc: dict) -> int:
    config = model_config_from(rc)
    tc = train_config_from(rc)
    print("run: " + " ".join(f"{f.name}={getattr(tc, f.name)}" for f in fields(tc)))
    tr, va, _ = _load_splits(rc)
    out = _output_dir(rc, "history.csv", Path(rc["checkpoint"]))
    result = train(tr, va, config, tc, lexicon=_lexicon(rc))
    save_checkpoint(result.checkpoint.params, result.checkpoint.config,
                    rc["checkpoint"])
    _write_rows(out / "history.csv", "epoch,train_loss,val_mse", result.history)
    best = min(r[2] for r in result.history)
    print(f"trained {len(result.history)} epoch(s); best val MSE {best!r}")
    print(f"checkpoint: {rc['checkpoint']}")
    return 0


def _rebuild_checkpoint(rc: dict):
    config = model_config_from(rc)
    params, stored_config = load_checkpoint(rc["checkpoint"], expected_config=config)
    tr, va, te = _load_splits(rc)
    caches = build_caches(tr.posts, stored_config, lexicon=_lexicon(rc))
    return Checkpoint(params=params, config=stored_config, caches=caches), \
        {"train": tr, "val": va, "test": te}


def cmd_evaluate(rc: dict, split: str) -> int:
    checkpoint, splits = _rebuild_checkpoint(rc)
    ds = splits[split]
    if len(ds) == 0:
        raise CorpusError(f"{split} split is empty")
    metrics = evaluate(checkpoint, ds)
    print(f"{split} split: n={metrics.n}")
    print(f"  MSE  {metrics.mse:.6f}   (evaluation mean; training objective "
          f"uses the 1/2 factor)")
    print(f"  MAE  {metrics.mae:.6f}")
    print(f"  SRCC {metrics.srcc:.6f}")
    print(f"  PCC  {metrics.pcc:.6f}")
    print(json.dumps({"split": split, **metrics.to_dict()}))
    return 0


def cmd_ablate(rc: dict, variants: list[str], seeds: list[int]) -> int:
    for flag, values in (("--variant", variants), ("--seeds", seeds)):
        if len(set(values)) < len(values):
            raise UsageError(f"{flag} {max(values, key=values.count)} is given twice")
    config = model_config_from(rc)
    tc = train_config_from(rc)
    ds = _load_corpus(rc)
    fractions = (rc["train_frac"], rc["val_frac"], rc["test_frac"])
    out = _output_dir(rc, "ablation.csv")
    print(f"ablation over variants={variants} seeds={seeds}")
    report = ablate(ds, config, tc, variants, seeds, fractions=fractions,
                    lexicon=_lexicon(rc))
    (out / "ablation.csv").write_text("\n".join(report.to_csv_lines()) + "\n")
    print(report.to_table())
    print(f"report: {out / 'ablation.csv'}")
    return 0


def cmd_inspect_attention(rc: dict, post_id: str) -> int:
    checkpoint, splits = _rebuild_checkpoint(rc)
    matches = [p for ds in splits.values() for p in ds.posts if p.post_id == post_id]
    if not matches:
        raise CorpusError(f"post {post_id!r} not in {rc['corpus']}")
    post = matches[0]
    config = checkpoint.config
    if config.attention == "na" or not config.use_content:
        raise UsageError("checkpoint has no attention stage to inspect")
    batch = extract_features([post], checkpoint.caches, config)
    _, fcache = forward_bundle(batch, checkpoint.params, config)
    alpha_text = fcache.att_cache.alpha_text[0]
    alpha_image = fcache.att_cache.alpha_image[0]
    use_pool = config.attention == "hga"
    words = tokenize(post.caption)[:config.m]
    print(f"post {post.post_id} caption: {post.caption!r}")
    if post.hashtags and use_pool:
        print("hashtag influence: pooled over " + ", ".join(f"#{t}" for t in post.hashtags))
    else:
        print("hashtag influence: none")
    print(f"token attention (sum={alpha_text.sum():.6f}):")
    for i, word in enumerate(words):
        print(f"  {i:3d} {word:<20s} {alpha_text[i]:.6f}")
    print(f"region attention (sum={alpha_image.sum():.6f}):")
    for i in range(config.k):
        print(f"  {i:3d} {alpha_image[i]:.6f}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _keys_epilog() -> str:
    lines = ["configuration keys (config file or --set KEY=VALUE):"]
    for key, (_, default, help_text) in DEFAULTS.items():
        lines.append(f"  {key:<24} {help_text} (default: {default!r})")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="postpop",
                     description="Multimodal post-popularity regression pipeline.",
                     epilog=_keys_epilog(),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a configuration key (repeatable)")
    parser.add_argument("--corpus", help="shortcut for corpus=PATH")
    parser.add_argument("--checkpoint", help="shortcut for checkpoint=PATH")
    parser.add_argument("--out", help="shortcut for out=DIR")
    parser.add_argument("--seed", type=int, help="shortcut for seed=N")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="train and write a checkpoint")
    p_eval = sub.add_parser("evaluate", help="print metrics for a split")
    p_eval.add_argument("--split", default="test", choices=("train", "val", "test"))
    p_abl = sub.add_parser("ablate", help="train and compare model variants")
    p_abl.add_argument("--variant", action="append", default=[], choices=VARIANTS,
                       metavar="NAME", help="variant name (repeatable): "
                       f"{', '.join(VARIANTS)}; default full,na")
    p_abl.add_argument("--seeds", default="0", type=_parse_seeds,
                       help="comma-separated seeds >= 0")
    p_insp = sub.add_parser("inspect-attention",
                            help="dump attention weights for one post")
    p_insp.add_argument("--post-id", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"postpop: error: --set expects KEY=VALUE, got {item!r}",
                  file=sys.stderr)
            return 1
        key, value = item.split("=", 1)
        overrides[key] = value
    for flag in ("corpus", "checkpoint", "out", "seed"):
        if getattr(args, flag) is not None:
            overrides[flag] = str(getattr(args, flag))
    try:
        rc = resolve_config(args.config, overrides)
        if args.command == "train":
            return cmd_train(rc)
        if args.command == "evaluate":
            return cmd_evaluate(rc, args.split)
        if args.command == "ablate":
            return cmd_ablate(rc, args.variant or ["full", "na"], args.seeds)
        return cmd_inspect_attention(rc, args.post_id)
    except UsageError as e:
        print(f"postpop: error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:  # CorpusError and CheckpointError included
        print(f"postpop: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
