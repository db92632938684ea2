"""The mutation table: each row is one deliberate fault in `src/` and the
tests that must catch it.

A row gives a `src/postpop/` file, an exact old text that occurs once in
it, the new text, the tests that must fail, and why the row is there. The
runner copies `src/`, `tests/`, `configs/`, `data/` and `perfbench/` (the
tests read the shipped configs, the sample corpus and the benchmark's
configs) to a temporary directory, so it writes nothing into the checkout.

    python tests/mutants.py              # every row against its named tests
    python tests/mutants.py ROW ...      # only the named rows
    python tests/mutants.py --matrix     # every row against all of tier-1

First the named tests of the chosen rows run unmutated, and they must pass.
Then each row is applied alone, and its named tests must make pytest exit
with code 1 (a failing test): the row is killed. Exit code 0 means it
survived; any other code (2 is a collection error) is not a kill either.
The runner exits non-zero when a row is not killed.

`--matrix` runs the whole tier-1 suite once per row and prints every
failing test id: the kill matrix. A test may be deleted only when every row
it kills is still killed by a test that stays (README, "Install and test").
Rows marked `rounding` change no value beyond its last bits, so only a
bitwise test can kill them.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "data", "perfbench")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/postpop/
    old: str
    new: str
    tests: str  # pytest node ids, space-separated
    why: str
    rounding: bool = False


SOCIAL = '    "social": {"f_social": "use_social"},\n'
DEMOGRAPHIC = '    "demographic": {"f_demographic": "use_demographics"},\n'

MUTANTS = [
    # attention.py
    Mutant("attention.mask", "attention.py",
           "alpha_text = softmax(y_text @ wt, text_mask)", "alpha_text = softmax(y_text @ wt)",
           "tests/test_attention.py",
           "the caption mask is ignored, so padding tokens get attention weight"),
    Mutant("attention.na_mean", "attention.py",
           "return masked_mean(text, text_mask) + image.mean(axis=-2)",
           "return masked_mean(text, text_mask) + image.sum(axis=-2)",
           "tests/test_attention.py",
           "the no-attention variant sums the regions instead of averaging them"),
    # cli.py
    Mutant("cli.parse_bool", "cli.py",
           'if s.lower() in ("true", "1", "yes"):', 'if s.lower() in ("true", "1"):',
           "tests/test_cli.py::TestConfigResolution",
           "a documented spelling of true is refused"),
    Mutant("cli.repeated_flag", "cli.py",
           "if len(set(values)) < len(values):", "if False:",
           "tests/test_cli.py::TestAblate::test_bad_flags_exit_one_before_loading",
           "ablate runs a repeated --variant or --seeds value twice"),
    Mutant("cli.override_order", "cli.py",
           "    for source in (parse_config_file(config_path) if config_path else {},\n"
           "                   overrides or {}):",
           "    for source in (overrides or {},\n"
           "                   parse_config_file(config_path) if config_path else {}):",
           "tests/test_cli.py::TestConfigResolution",
           "the config file wins over --set"),
    # corpora.py
    Mutant("corpora.signal_guard", "corpora.py",
           "if n_targets <= caption_tokens:", "if n_targets < caption_tokens:",
           "tests/test_data.py::TestGenerators",
           "a vocabulary no larger than a caption passes the guard and the draw fails"),
    # data.py
    Mutant("data.hashtags_list", "data.py",
           'raise ValueError("must be a list")', "pass",
           "tests/test_data.py",
           'a non-array hashtags value loads: "ab" as the tags a and b'),
    Mutant("data.age_bound", "data.py",
           "if not 0 <= age <= 100:", "if not 0 <= age <= 101:",
           "tests/test_data.py",
           "age 101 loads, and its one-hot slot 2 + 101 is the first emotion's"),
    Mutant("data.duplicate_id", "data.py",
           "if post.post_id in seen:", "if False:",
           "tests/test_data.py::TestLoad",
           "a corpus with two posts of one id loads both"),
    Mutant("data.popularity_number", "data.py",
           "if type(popularity) not in (int, float):", "if False:",
           "tests/test_data.py::TestAgainstReference::test_malformed_line",
           'a string or bool popularity loads through float(): "1.5" as 1.5'),
    Mutant("data.popularity_float", "data.py",
           "popularity = float(popularity)", "pass",
           "tests/test_data.py::TestAgainstReference::test_malformed_line",
           "an integer popularity is kept as an int, not a float"),
    Mutant("data.popularity_finite", "data.py",
           "if not math.isfinite(popularity):", "if False:",
           "tests/test_data.py::TestAgainstReference::test_malformed_line",
           "a nan or infinite popularity loads"),
    Mutant("data.metadata_object", "data.py",
           "if type(meta) is not dict:", "if False:",
           "tests/test_data.py::TestAgainstReference::test_malformed_line",
           "a non-object metadata is skipped for CPython's reason, not its own"),
    Mutant("data.float_bool", "data.py",
           "for name in _FLOATS:", "for name in ():",
           "tests/test_data.py::TestAgainstReference::test_malformed_line",
           "a bool in a float metadata field loads as the bool"),
    Mutant("data.age_integer", "data.py",
           "if type(age) is not int:", "if False:",
           "tests/test_data.py::TestAgainstReference::test_malformed_line",
           "a float face age such as 99.7 loads"),
    Mutant("data.integer_fields", "data.py",
           "for name in _INTEGERS:", "for name in ():",
           "tests/test_data.py::TestAgainstReference::test_malformed_line",
           "a bool or a float in an integer metadata field loads"),
    Mutant("data.tag_count", "data.py",
           '(tag_count := metadata["tag_count"]) != len(hashtags)',
           '(tag_count := metadata["tag_count"]) < len(hashtags)',
           "tests/test_data.py::TestAgainstReference::test_malformed_line",
           "a tag_count above the number of hashtags loads"),
    Mutant("data.hashtag_case", "data.py",
           'str(tag).lstrip("#").lower()', 'str(tag).lstrip("#")',
           "tests/test_data.py::TestAgainstReference::test_malformed_line",
           "hashtags keep their case"),
    Mutant("data.split_cut", "data.py",
           "cut1 = math.floor(n * fractions[0])", "cut1 = math.ceil(n * fractions[0])",
           "tests/test_data.py::TestSplit",
           "the training split takes one post too many"),
    # encoders.py
    Mutant("encoders.forget_sign", "encoders.py",
           "coef[..., 1, :] = c[:-1] * gf", "coef[..., 1, :] = -c[:-1] * gf",
           "tests/test_gradcheck.py",
           "a sign flip in the forget gate's gradient"),
    Mutant("encoders.carry_state", "encoders.py",
           "            np.copyto(h_out, h_in, where=dead[t])\n", "",
           "tests/test_encoders.py",
           "a masked step does not carry the hidden state forward"),
    Mutant("encoders.sigmoid_reciprocal", "encoders.py",
           "        np.negative(zt, out=s)\n        np.exp(s, out=s)\n",
           "        np.exp(zt, out=s)\n        np.divide(1.0, s, out=s)\n",
           "tests/test_encoders.py::TestAgainstReference",
           "exp(-z) as 1 / exp(z): the same gates up to rounding", rounding=True),
    # features.py
    Mutant("features.emotion_slot", "features.py",
           "b * dim + 103 + emotion", "b * dim + 102 + emotion",
           "tests/test_features.py",
           "the emotion block starts one slot early, on the last age slot"),
    Mutant("features.pca_ddof", "features.py",
           "variance = s ** 2 / (n - 1)", "variance = s ** 2 / n",
           "tests/test_features.py",
           "the social PCA's explained variances lose Bessel's correction"),
    Mutant("features.smoothing", "features.py",
           "counts = 1.0 + np.bincount(", "counts = 0.5 + np.bincount(",
           "tests/test_features.py",
           "sentiment add-one smoothing becomes add-half"),
    Mutant("features.pca_product", "features.py",
           "return np.matmul(model.components, (v - model.mean)[..., None])[..., 0]",
           "return (v - model.mean) @ model.components.T",
           "tests/test_model.py::TestExtractDataset tests/test_model.py::TestPinnedFeatureBits",
           "the social projection as one GEMM: the same values up to rounding",
           rounding=True),
    Mutant("features.lexicon_class", "features.py",
           "if not 0 <= table[word] <= 4:", "if False:",
           "tests/test_cli.py::TestTrain::test_bad_lexicon_line_exits_two_naming_it",
           "a lexicon class out of range is reported without its file and line"),
    # hashtag_graph.py
    Mutant("hashtag_graph.self_weight", "hashtag_graph.py",
           "total = 1.0 + np.bincount(rows, weights=w, minlength=len(state))",
           "total = np.bincount(rows, weights=w, minlength=len(state))",
           "tests/test_hashtag_graph.py",
           "node_embeddings leaves a node's own weight out of its mean"),
    Mutant("hashtag_graph.dedupe", "hashtag_graph.py",
           "node_sets = [sorted(set(map(nodes.__getitem__, t))) for t in tag_lists]",
           "node_sets = [sorted(map(nodes.__getitem__, t)) for t in tag_lists]",
           "tests/test_hashtag_graph.py",
           "a tag repeated in a post counts its pairs twice"),
    Mutant("hashtag_graph.norm", "hashtag_graph.py",
           "norm = np.sqrt(np.matmul(state[:, None, :], state[:, :, None]))[:, 0]",
           "norm = np.linalg.norm(state, axis=1, keepdims=True)",
           "tests/test_hashtag_graph.py",
           "the row norms summed in another order: the same up to rounding", rounding=True),
    # model.py
    Mutant("model.branch_order", "model.py",
           SOCIAL + DEMOGRAPHIC, DEMOGRAPHIC + SOCIAL,
           "tests/test_model.py::TestMergeAndConfig::test_head_input_is_the_paper_layout",
           "two branches swap places in the head's input"),
    Mutant("model.fill_lacking", "model.py",
           "for b, j, topic_slot, tag_slot in fill:", "for b, j, topic_slot, tag_slot in []:",
           "tests/test_extract_reference.py",
           "the tags the graph lacks keep zero attention and topic rows"),
    Mutant("model.paper_widths", "model.py",
           "(3, 5, 5)", "(3, 5, 4)",
           "tests/test_model.py",
           "a wrong paper branch shape moves the merged length off 27104"),
    Mutant("model.checkpoint_shapes", "model.py",
           "        if got != want:\n", "        if got and want and got[0] != want[0]:\n",
           "tests/test_model.py::TestCheckpoint tests/test_cli.py::TestEvaluate",
           "a checkpoint whose arrays the config does not give loads"),
    Mutant("model.checkpoint_members", "model.py",
           'if set(members) != {"version", "config", "names", *(f"param/{name}" '
           'for name in names)}:',
           'if not {"version", "config", "names"} <= set(members):',
           "tests/test_cli.py::TestEvaluate::test_unreadable_checkpoint_exits_two",
           "a checkpoint with a member its names do not list loads"),
    Mutant("model.checkpoint_version", "model.py",
           "if version != _CKPT_VERSION:", "if version > _CKPT_VERSION:",
           "tests/test_cli.py::TestEvaluate::test_unreadable_checkpoint_exits_two",
           "an older checkpoint format loads"),
    Mutant("model.config_types", "model.py",
           "}.get(kind, (int, np.integer))", "}.get(kind, (int, np.integer, float))",
           "tests/test_model.py::TestCheckpoint::test_invalid_stored_configuration_rejected "
           "tests/test_training.py::TestTrainLoop::test_nonsense_hyperparameters_rejected "
           "tests/test_cli.py::TestEvaluate::test_unreadable_checkpoint_exits_two",
           "an integer config field takes a float: a checkpoint's \"m\": 6.0 loads"),
    Mutant("model.dropout_columns", "model.py",
           "            start += width\n", "",
           "tests/test_model.py::TestBatchedModel",
           "every hidden layer reads the first layer's dropout draws"),
    # numeric.py
    Mutant("numeric.conv_bias_grad", "numeric.py",
           "d_bias = np.ones(len(d_rows), dtype=d_rows.dtype) @ d_rows",
           "d_bias = d_out.sum(axis=-2)",
           "tests/test_gradcheck.py",
           "the conv bias gradient sums the time axis alone: right for one post only"),
    Mutant("numeric.conv_einsum", "numeric.py",
           "pre = cols @ filters.transpose(0, 2, 1).reshape(ch_out, -1).T",
           'pre = np.einsum("...i,oi->...o", cols, '
           'filters.transpose(0, 2, 1).reshape(ch_out, -1))',
           "tests/test_numeric.py::TestConv1d",
           "the conv forward as an einsum: the same values up to rounding", rounding=True),
    Mutant("numeric.padded_index", "numeric.py",
           "for keys in key_lists for key in (*keys[:width], *pad[len(keys):])]",
           "for keys in key_lists for key in (*keys[1:width + 1], *pad[len(keys) - 1:])]",
           "tests/test_numeric.py",
           "each key list loses its first key"),
    Mutant("numeric.pooled_mean", "numeric.py",
           "return rows.sum(axis=1) / np.maximum(counts, 1)[:, None]",
           "return rows.sum(axis=1) / np.maximum(counts, 2)[:, None]",
           "tests/test_numeric.py",
           "a one-row mean is halved"),
    Mutant("numeric.pooled_reciprocal", "numeric.py",
           "return rows.sum(axis=1) / np.maximum(counts, 1)[:, None]",
           "return rows.sum(axis=1) * (1.0 / np.maximum(counts, 1))[:, None]",
           "tests/test_numeric.py",
           "a mean as a product with the reciprocal count: the same up to rounding",
           rounding=True),
    Mutant("numeric.dropout_edge", "numeric.py",
           "keep = (draws >= rate).astype(x.dtype)", "keep = (draws > rate).astype(x.dtype)",
           "tests/test_numeric.py",
           "a draw equal to the rate is dropped"),
    # providers.py
    Mutant("providers.zero_row", "providers.py",
           "                table[-1] = 0.0\n", "",
           "tests/test_providers.py",
           "the padding row of a batched table holds a drawn vector, not zeros"),
    Mutant("providers.tokenize_case", "providers.py",
           'return _PUNCTUATION.sub("", text.lower()).split()',
           'return _PUNCTUATION.sub("", text).split()',
           "tests/test_providers.py",
           "tokens keep their case"),
    # streams.py
    Mutant("streams.counter", "streams.py",
           "steps = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA",
           "steps = np.arange(0, count, dtype=np.uint64) * _GAMMA",
           "tests/test_streams.py",
           "word j of a stream is keyed by counter j, not j + 1"),
    Mutant("streams.signed", "streams.py",
           "u *= _SIGNED", "u *= _UNIT",
           "tests/test_streams.py",
           "signed draws land in [-1, 0) instead of [-1, 1)"),
    # training.py
    Mutant("training.adam_bias", "training.py",
           "update = state.m / (1 - b1 ** t)", "update = state.m / (1 - b1 ** (t + 1))",
           "tests/test_training.py::TestAdam",
           "Adam's first-moment bias correction is off by one step"),
    Mutant("training.adam_order", "training.py",
           "    update *= lr\n    update /= v_hat\n", "    update /= v_hat\n    update *= lr\n",
           "tests/test_training.py::TestAdam",
           "Adam scales by the rate after the division: the same step up to rounding",
           rounding=True),
    Mutant("training.patience", "training.py",
           "if stale >= train_config.patience:", "if stale > train_config.patience:",
           "tests/test_training.py::TestTrainLoop",
           "early stopping waits one epoch past its patience"),
    Mutant("training.tied_ranks", "training.py",
           "ends = np.append(starts[1:], len(x)) - 1", "ends = np.append(starts[1:], len(x))",
           "tests/test_training.py::TestCorrelations",
           "tied values share a rank half a place too high"),
]


def copy_tree(dest: Path) -> None:
    """The directories the tests read, without caches or benchmark output."""
    for name in COPIED:
        shutil.copytree(REPO / name, dest / name, ignore=shutil.ignore_patterns(
            "__pycache__", ".pytest_cache", "out"))


def pytest_run(copy: Path, tests, report: Path | None = None) -> int:
    """Exit code of pytest on `tests` in `copy`; `report` gets a JUnit XML file."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    if report is not None:
        argv.append(f"--junitxml={report}")
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def failed_ids(report: Path) -> list[str]:
    """Every failing or erroring test of a JUnit XML file, as `module::test`."""
    return [f"{case.get('classname')}::{case.get('name')}"
            for case in ET.parse(report).iter("testcase")
            if case.find("failure") is not None or case.find("error") is not None]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rows", nargs="*", help="row names (default: every row)")
    parser.add_argument("--matrix", action="store_true",
                        help="run all of tier-1 per row and print every failing test")
    args = parser.parse_args(argv)
    names = [m.name for m in MUTANTS]
    if len(set(names)) != len(names):
        sys.exit("two rows share a name")
    unknown = set(args.rows) - set(names)
    if unknown:
        sys.exit(f"unknown rows: {sorted(unknown)}")
    rows = [m for m in MUTANTS if not args.rows or m.name in args.rows]
    for m in rows:  # each old text occurs once, before anything runs
        count = (REPO / "src" / "postpop" / m.path).read_text().count(m.old)
        if count != 1:
            sys.exit(f"{m.name}: {m.path} holds its old text {count} times, not once")
    with tempfile.TemporaryDirectory(prefix="postpop-mutants-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        baseline = ["tests"] if args.matrix else sorted({t for m in rows for t in m.tests.split()})
        code = pytest_run(copy, baseline)
        print(f"unmutated: pytest exit code {code} on {' '.join(baseline)}", flush=True)
        if code != 0:
            return 1
        survived = []
        for m in rows:
            path = copy / "src" / "postpop" / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            report = copy / "report.xml"
            code = pytest_run(copy, ["tests"] if args.matrix else m.tests.split(),
                              report if args.matrix else None)
            path.write_text(original)
            verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"NOT KILLED (pytest exit {code})")
            tag = " [rounding]" if m.rounding else ""
            print(f"{m.name}: {verdict} in {time.perf_counter() - start:.1f} s{tag}"
                  f" -- {m.why}", flush=True)
            if code != 1:
                survived.append(m.name)
            if args.matrix and report.exists():
                for test in failed_ids(report):
                    print(f"    {test}")
                report.unlink()
    print(f"{len(rows) - len(survived)} of {len(rows)} rows killed"
          + (f"; not killed: {', '.join(survived)}" if survived else ""))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
