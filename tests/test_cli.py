import json
from pathlib import Path

import numpy as np
import pytest

from postpop.cli import (_load_splits, main, model_config_from, resolve_config,
                         train_config_from, UsageError)
from postpop.corpora import make_sample_corpus
from postpop.data import save_dataset


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code if e.code is not None else 0
    out, err = capsys.readouterr()
    return code, out, err


DESK_KEYS = """
m=6
k=4
l=4
d=8
a=8
n=8
topic_dim=8
structure_dim=4
pca_k=6
graph_base_dim=16
head_sizes=16,8,1
social_widths=2,2,2
social_channels=4,4,4
demographic_widths=3,3,3
demographic_channels=2,2,4
hashtag_widths=2,2,2
hashtag_channels=2,2,2
sentiment_widths=2,2,2
sentiment_channels=2,2,2
init_scale=0.3
dropout=0.1
"""

SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_dataset(make_sample_corpus(n=40, seed=13), corpus)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"corpus={corpus}\n"
        f"checkpoint={tmp_path / 'model.ckpt'}\n"
        f"out={tmp_path / 'out'}\n"
        + DESK_KEYS
        + "learning_rate=0.005\nbatch_size=10\nmax_epochs=2\npatience=2\nseed=0\n")
    return tmp_path, cfg


class TestConfigResolution:
    def test_defaults_complete(self):
        rc = resolve_config()
        assert rc["learning_rate"] == 0.0001
        assert rc["batch_size"] == 20
        assert rc["max_epochs"] == 30
        assert rc["patience"] == 5
        assert rc["dropout"] == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rat=0.1\n")
        with pytest.raises(UsageError, match="unknown configuration key"):
            resolve_config(cfg)

    def test_bad_value_rejected(self):
        with pytest.raises(UsageError, match="bad value"):
            resolve_config(None, {"batch_size": "many"})

    def test_override_wins(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("batch_size=5\n")
        rc = resolve_config(cfg, {"batch_size": "7"})
        assert rc["batch_size"] == 7

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_resolves(self, path):
        rc = resolve_config(path)
        model_config_from(rc)
        train_config_from(rc)


class TestTopLevel:
    def test_help_exits_zero_and_documents_keys(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "train" in out and "inspect-attention" in out
        assert "prepare" not in out and "cache_dir" not in out
        from postpop.cli import DEFAULTS
        for key in DEFAULTS:
            assert key in out, key

    def test_unknown_command_usage_error(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1

    def test_unknown_config_key_exits_one(self, workspace, capsys):
        _, cfg = workspace
        code, _, err = run_cli(["--config", str(cfg), "--set", "nope=1",
                                "train"], capsys)
        assert code == 1 and "unknown configuration key" in err

    def test_missing_corpus_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(["--set", "corpus=/nonexistent.jsonl",
                                "--set", "checkpoint=" + str(tmp_path / "m.ckpt"),
                                "train"], capsys)
        assert code == 2 and "not found" in err


class TestTrain:
    def test_writes_checkpoint_and_history(self, workspace, capsys):
        # a fresh workspace, no earlier step: train runs from the corpus and
        # writes nothing but the checkpoint and the history
        tmp, cfg = workspace
        before = set(tmp.rglob("*"))
        code, out, _ = run_cli(["--config", str(cfg), "train"], capsys)
        assert code == 0
        written = {p.relative_to(tmp) for p in set(tmp.rglob("*")) - before}
        assert written == {Path("model.ckpt"), Path("out"),
                           Path("out/history.csv")}
        history = (tmp / "out" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_mse"
        assert len(history) >= 2

    def test_default_hyperparameters_echoed(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_dataset(make_sample_corpus(n=40, seed=13), corpus)
        cfg = tmp_path / "run.cfg"
        # no learning_rate/batch_size keys: defaults must appear in the header
        cfg.write_text(f"corpus={corpus}\n"
                       f"checkpoint={tmp_path / 'm.ckpt'}\n"
                       f"out={tmp_path / 'out'}\n" + DESK_KEYS
                       + "max_epochs=1\npatience=1\n")
        code, out, _ = run_cli(["--config", str(cfg), "train"], capsys)
        assert code == 0
        assert "learning_rate=0.0001" in out and "batch_size=20" in out

    def test_same_seed_identical_history(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "--seed", "5", "train"], capsys)
        h1 = (tmp / "out" / "history.csv").read_bytes()
        run_cli(["--config", str(cfg), "--seed", "5", "train"], capsys)
        h2 = (tmp / "out" / "history.csv").read_bytes()
        assert h1 == h2


    def test_lexicon_class_out_of_range_exits_two_naming_the_word(self, workspace, capsys):
        tmp, cfg = workspace
        lexicon = tmp / "lexicon.tsv"
        lexicon.write_text("# word<TAB>class\nsunny\t4\nzorblax\t7\n")
        code, _, err = run_cli(["--config", str(cfg), "--set", f"lexicon={lexicon}",
                                "train"], capsys)
        assert code == 2 and "class 7 for 'zorblax' outside 0..4" in err
        assert "Traceback" not in err
        assert not (tmp / "model.ckpt").exists()

    def test_diverging_run_exits_two_without_checkpoint(self, workspace, capsys):
        tmp, cfg = workspace
        code, _, err = run_cli(["--config", str(cfg), "--set", "learning_rate=1e150",
                                "train"], capsys)
        assert code == 2 and "diverged" in err
        assert not (tmp / "model.ckpt").exists()

    @pytest.mark.parametrize("overflowing", [1, 2])
    def test_overflowing_training_value_exits_two_without_checkpoint(
            self, workspace, capsys, overflowing):
        # one training value of 1e308 overflows the column's std, two its mean
        tmp, cfg = workspace
        tr, _, _ = _load_splits(resolve_config(cfg))
        ids = {p.post_id for p in tr.posts[:overflowing]}
        corpus = tmp / "corpus.jsonl"
        rows = [json.loads(line) for line in corpus.read_text().splitlines()]
        for row in rows:
            if row["post_id"] in ids:
                row["metadata"]["avg_views"] = 1e308
        corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, _, err = run_cli(["--config", str(cfg), "train"], capsys)
        assert code == 2 and "'avg_views' overflows float64" in err
        assert "Traceback" not in err
        assert not (tmp / "model.ckpt").exists()

    def test_overflowing_popularity_exits_two_naming_the_post(self, workspace, capsys):
        tmp, cfg = workspace
        tr, _, _ = _load_splits(resolve_config(cfg))
        post_id = tr.posts[0].post_id
        corpus = tmp / "corpus.jsonl"
        rows = [json.loads(line) for line in corpus.read_text().splitlines()]
        for row in rows:
            if row["post_id"] == post_id:
                row["popularity"] = 1e308
        corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, _, err = run_cli(["--config", str(cfg), "train"], capsys)
        assert code == 2
        assert f"post {post_id}: popularity 1e+308 is too large to train on" in err
        assert "diverged" not in err and "Traceback" not in err
        assert not (tmp / "model.ckpt").exists()

    @pytest.mark.parametrize("key,value", [
        ("batch_size", "0"), ("max_epochs", "0"), ("patience", "0"),
        ("learning_rate", "nan"), ("learning_rate", "0"), ("learning_rate", "-0.1"),
        ("dropout", "1.5"), ("init_scale", "0"), ("init_scale", "-1"),
        ("init_scale", "inf"), ("seed", "-1"),
    ])
    def test_nonsense_hyperparameter_exits_one(self, workspace, capsys, key, value):
        tmp, cfg = workspace
        code, _, err = run_cli(["--config", str(cfg), "--set", f"{key}={value}",
                                "train"], capsys)
        assert code == 1 and key in err
        assert not (tmp / "model.ckpt").exists()


@pytest.mark.parametrize("key,value", [
    ("attention", "xyz"), ("demographic_mode", "foo"), ("social_widths", "2,2"),
    ("head_sizes", "4,2"), ("m", "0"), ("l", "0"), ("k", "-1"),
    ("a", "0"), ("topic_dim", "0"), ("structure_dim", "0"), ("graph_base_dim", "0"),
    ("graph_hops", "0"), ("pca_k", "0"), ("pca_k", "34"),
    ("head_sizes", "16,0,1"), ("head_sizes", "16,-2,1"), ("head_sizes", "16,8,2"),
    ("social_channels", "0,2,2"), ("social_widths", "0,2,2"), ("social_widths", "3,3,3"),
    ("hashtag_channels", "2,2"),
])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_bad_model_config_value_exits_one(workspace, capsys, command, key, value):
    tmp, cfg = workspace
    code, _, err = run_cli(["--config", str(cfg), "--set", f"{key}={value}",
                            command], capsys)
    assert code == 1 and "bad model configuration" in err, err
    assert f"{key} must" in err, err
    assert "Traceback" not in err
    assert not (tmp / "model.ckpt").exists()


@pytest.mark.parametrize("key,value", [
    ("head_sizes", "abc"), ("head_sizes", "16,,1"), ("social_widths", "a,b,c"), ("m", "x"),
    ("use_social", "maybe"),
])
def test_unparseable_value_exits_one_naming_its_key(workspace, capsys, key, value):
    tmp, cfg = workspace
    code, _, err = run_cli(["--config", str(cfg), "--set", f"{key}={value}", "train"],
                           capsys)
    assert code == 1 and f"bad value for {key}" in err, err
    assert not (tmp / "model.ckpt").exists()


def test_config_line_without_equals_exits_one_naming_it(workspace, capsys):
    tmp, cfg = workspace
    cfg.write_text(cfg.read_text() + "# a comment\nbatch_size 10\n")
    lineno = len(cfg.read_text().splitlines())
    code, _, err = run_cli(["--config", str(cfg), "train"], capsys)
    assert code == 1 and f"{cfg}:{lineno}: expected key=value" in err, err
    assert not (tmp / "model.ckpt").exists()


@pytest.mark.parametrize("key", ["config", "corpus", "checkpoint"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_directory_where_a_file_belongs_exits_two(workspace, capsys, command, key):
    tmp, cfg = workspace
    if command == "evaluate" and key == "corpus":
        run_cli(["--config", str(cfg), "train"], capsys)  # a checkpoint to load first
    folder = tmp / "folder"
    folder.mkdir()
    argv = (["--config", str(folder)] if key == "config"
            else ["--config", str(cfg), "--set", f"{key}={folder}"])
    code, _, err = run_cli(argv + [command], capsys)
    assert code == 2 and err.startswith("postpop: error:"), err
    assert "Is a directory" in err and "Traceback" not in err
    assert not list(tmp.glob(".*.tmp"))


@pytest.mark.parametrize("command,key,target,kind", [
    ("train", "checkpoint", "folder", "directory"),
    ("train", "checkpoint", "missing/m.ckpt", None),
    ("train", "out", "taken", "file"),
    ("ablate", "out", "taken", "file"),
    ("ablate", "out", "taken/ablation.csv", "directory"),
])
def test_unwritable_output_exits_two_before_training(workspace, capsys, monkeypatch,
                                                     command, key, target, kind):
    # the paths are checked before any training: a run that could not save
    # its results must not first spend its epochs
    tmp, cfg = workspace
    import postpop.cli as cli_mod

    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr(cli_mod, "train", no_training)
    monkeypatch.setattr(cli_mod, "ablate", no_training)
    path = tmp / target
    if kind == "directory":
        path.mkdir(parents=True)
    elif kind == "file":
        path.write_text("")
    value = path.parent if target.endswith("ablation.csv") else path
    argv = ["--config", str(cfg), "--set", f"{key}={value}", command]
    code, _, err = run_cli(argv + (["--variant", "full"] if command == "ablate" else []),
                           capsys)
    assert code == 2 and err.startswith("postpop: error:"), err
    assert str(path) in err and "Traceback" not in err
    assert not list(tmp.rglob("history.csv")) and not list(tmp.rglob("*.ckpt"))
    assert not [p for p in tmp.rglob("ablation.csv") if p.is_file()]


def test_unwritable_checkpoint_directory_exits_two(workspace, capsys, monkeypatch):
    tmp, cfg = workspace
    import postpop.cli as cli_mod

    monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: Path(path) != tmp)
    code, _, err = run_cli(["--config", str(cfg), "train"], capsys)
    assert code == 2 and f"its directory {tmp} is not writable" in err, err
    assert not (tmp / "model.ckpt").exists()


class TestEvaluate:
    def test_json_contains_all_metrics(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "train"], capsys)
        code, out, _ = run_cli(["--config", str(cfg), "evaluate",
                                "--split", "val"], capsys)
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert set(payload) >= {"mse", "mae", "srcc", "pcc", "n"}

    def test_dropout_override_ignored_by_evaluate(self, workspace, capsys):
        tmp, cfg = workspace  # trained at dropout=0.1
        run_cli(["--config", str(cfg), "train"], capsys)
        code, plain, _ = run_cli(["--config", str(cfg), "evaluate"], capsys)
        assert code == 0
        code, other, err = run_cli(["--config", str(cfg), "--set", "dropout=0.3",
                                    "evaluate"], capsys)
        assert code == 0, err
        assert other.strip().splitlines()[-1] == plain.strip().splitlines()[-1]

    def test_memorized_train_split_near_zero_mse(self, tmp_path, capsys):
        # 12 distinct feature patterns replicated 5x, so the held-out split
        # has exact twins in training and memorization carries over to it
        from dataclasses import replace
        from postpop.corpora import make_linear_social_corpus
        from postpop.data import Dataset
        base = make_linear_social_corpus(n=12, seed=3).posts
        ds = Dataset(tuple(replace(p, post_id=f"{p.post_id}r{r}")
                           for r in range(5) for p in base))
        corpus = tmp_path / "corpus.jsonl"
        save_dataset(ds, corpus)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus={corpus}\n"
                       f"checkpoint={tmp_path / 'm.ckpt'}\n"
                       f"out={tmp_path / 'out'}\n" + DESK_KEYS
                       + "learning_rate=0.02\nbatch_size=20\nmax_epochs=120\n"
                       + "patience=120\nseed=0\ndropout=0.0\n")
        assert run_cli(["--config", str(cfg), "train"], capsys)[0] == 0
        code, out, _ = run_cli(["--config", str(cfg), "evaluate",
                                "--split", "train"], capsys)
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["mse"] < 0.01

    def test_degenerate_split_exits_two(self, workspace, tmp_path, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "train"], capsys)
        tiny = tmp_path / "tiny.jsonl"
        save_dataset(make_sample_corpus(n=2, seed=0), tiny)
        code, _, err = run_cli(["--config", str(cfg), "--corpus", str(tiny),
                                "evaluate", "--split", "val"], capsys)
        assert code == 2

    def test_empty_test_split_exits_two(self, workspace, capsys):
        _, cfg = workspace
        fractions = ["--set", "train_frac=0.5", "--set", "val_frac=0.5",
                     "--set", "test_frac=1e-10"]
        code, _, err = run_cli(["--config", str(cfg), *fractions, "train"], capsys)
        assert code == 0, err
        code, _, err = run_cli(["--config", str(cfg), *fractions, "evaluate",
                                "--split", "test"], capsys)
        assert code == 2 and "test split is empty" in err, err

    def test_init_scale_override_ignored_by_evaluate(self, workspace, capsys):
        tmp, cfg = workspace  # trained at init_scale=0.3
        run_cli(["--config", str(cfg), "train"], capsys)
        code, plain, _ = run_cli(["--config", str(cfg), "evaluate"], capsys)
        assert code == 0
        code, other, err = run_cli(["--config", str(cfg), "--set", "init_scale=0.5",
                                    "evaluate"], capsys)
        assert code == 0, err
        assert other.strip().splitlines()[-1] == plain.strip().splitlines()[-1]

    def test_truncated_checkpoint_exits_two(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "train"], capsys)
        ckpt = tmp / "model.ckpt"
        raw = ckpt.read_bytes()
        for size in (10, len(raw) - 3):
            ckpt.write_bytes(raw[:size])
            code, _, err = run_cli(["--config", str(cfg), "evaluate"], capsys)
            assert code == 2 and "truncated" in err and "re-train" in err
            assert "Traceback" not in err

    def test_non_finite_predictions_exit_two_naming_posts(self, workspace, capsys):
        from postpop.model import load_checkpoint, save_checkpoint
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "train"], capsys)
        params, config = load_checkpoint(tmp / "model.ckpt")
        params["head.dense2.b"][0] = np.nan
        save_checkpoint(params, config, tmp / "model.ckpt")
        code, _, err = run_cli(["--config", str(cfg), "evaluate", "--split", "test"],
                               capsys)
        assert code == 2 and err.startswith("postpop: error:")
        assert "prediction(s) are not finite" in err and "(posts sample" in err
        assert "Traceback" not in err

    def test_overflowing_metric_exits_two(self, workspace, capsys):
        # a huge but finite feature in one test post gives a finite
        # prediction whose squared error overflows float64
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "train"], capsys)
        _, _, te = _load_splits(resolve_config(cfg))
        corpus = tmp / "corpus.jsonl"
        rows = [json.loads(line) for line in corpus.read_text().splitlines()]
        for row in rows:
            if row["post_id"] == te.posts[0].post_id:
                row["metadata"]["avg_views"] = 1e308
        corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, out, err = run_cli(["--config", str(cfg), "evaluate", "--split", "test"],
                                 capsys)
        assert code == 2 and err.startswith("postpop: error: MSE over")
        assert "Infinity" not in out and "Traceback" not in err

    def test_format3_checkpoint_exits_two_asking_to_retrain(self, workspace, capsys,
                                                           monkeypatch):
        # format 3 was trained on the stub features of the older draw rule
        import postpop.model as model_mod
        tmp, cfg = workspace
        monkeypatch.setattr(model_mod, "_CKPT_VERSION", 3)
        run_cli(["--config", str(cfg), "train"], capsys)
        monkeypatch.undo()
        code, _, err = run_cli(["--config", str(cfg), "evaluate"], capsys)
        assert code == 2 and "unsupported checkpoint version 3" in err
        assert "re-train" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["missing", "format2", "corrupt"])
    def test_unreadable_checkpoint_exits_two(self, workspace, capsys, damage):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "train"], capsys)
        ckpt = tmp / "model.ckpt"
        raw = bytearray(ckpt.read_bytes())
        if damage == "missing":
            ckpt.unlink()
        elif damage == "format2":
            ckpt.write_bytes(b"PPCKPT1\n" + (2).to_bytes(4, "little") + bytes(raw[12:]))
        else:
            raw[len(raw) // 2] ^= 0xFF  # inside a parameter array
            ckpt.write_bytes(bytes(raw))
        code, _, err = run_cli(["--config", str(cfg), "evaluate"], capsys)
        assert code == 2 and err.startswith("postpop: error:")
        assert "Traceback" not in err


class TestAblate:
    def test_report_rows_match_variant_order(self, workspace, capsys):
        tmp, cfg = workspace
        code, out, _ = run_cli(["--config", str(cfg), "ablate",
                                "--variant", "na", "--variant", "full",
                                "--seeds", "0"], capsys)
        assert code == 0
        lines = (tmp / "out" / "ablation.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["na", "full"]

    def test_seeds_logged(self, workspace, capsys):
        tmp, cfg = workspace
        code, out, _ = run_cli(["--config", str(cfg), "ablate",
                                "--variant", "full", "--seeds", "0,1"], capsys)
        assert code == 0
        assert "seeds=[0, 1]" in out
        lines = (tmp / "out" / "ablation.csv").read_text().splitlines()
        assert len(lines) == 3  # header + one row per seed

    @pytest.mark.parametrize("flags,message", [
        (["--seeds", "x"], "--seeds"), (["--seeds", "-1"], "--seeds"),
        (["--seeds", "0,,1"], "--seeds"), (["--seeds", ""], "--seeds"),
        (["--variant", "bogus"], "--variant"),
        (["--variant", "full", "--variant", "bogus"], "--variant"),
    ])
    def test_bad_flags_exit_one_before_loading(self, workspace, capsys, monkeypatch,
                                               flags, message):
        tmp, cfg = workspace
        import postpop.cli as cli_mod

        def no_load(*args, **kwargs):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli_mod, "load_dataset", no_load)
        code, out, err = run_cli(["--config", str(cfg), "ablate", *flags], capsys)
        assert code == 1 and message in err, err
        assert "ablation over" not in out
        assert not (tmp / "out" / "ablation.csv").exists()


class TestSkippedLines:
    @pytest.mark.parametrize("command", [["train"], ["ablate", "--variant", "na"]])
    def test_each_skipped_line_named_with_its_reason(self, workspace, capsys, command):
        tmp, cfg = workspace
        corpus = tmp / "corpus.jsonl"
        lines = corpus.read_text().splitlines()
        nan_views, no_popularity = json.loads(lines[1]), json.loads(lines[2])
        nan_views["metadata"]["avg_views"] = float("nan")
        del no_popularity["popularity"]
        lines[1:3] = [json.dumps(nan_views), json.dumps(no_popularity)]
        lines[5:5] = ["not json", ""]
        lines.insert(8, "[1, 2]")
        corpus.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["--config", str(cfg), *command], capsys)
        assert code == 0, err
        assert f"skipped 4 malformed line(s) of {corpus}" in err
        assert "  line 2: avg_views must be finite and >= 0\n" in err
        assert "  line 3: missing field 'popularity'\n" in err
        assert "  line 6: not valid JSON: Expecting value at column 1\n" in err
        assert "  line 9: a record is a JSON object, not list\n" in err
        assert "more" not in err

    def test_at_most_ten_shown(self, workspace, capsys):
        tmp, cfg = workspace
        corpus = tmp / "corpus.jsonl"
        with corpus.open("a") as fh:
            fh.write("{\n" * 13)
        code, _, err = run_cli(["--config", str(cfg), "train"], capsys)
        assert code == 0, err
        assert "skipped 13 malformed line(s)" in err
        shown = [line for line in err.splitlines() if line.startswith("  line ")]
        assert shown == [f"  line {41 + i}: not valid JSON: Expecting property name "
                         f"enclosed in double quotes at column 2" for i in range(10)]
        assert "  ... and 3 more" in err


class TestInspectAttention:
    @pytest.fixture
    def trained(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "train"], capsys)
        return tmp, cfg

    def test_weights_sum_to_one_and_padding_absent(self, trained, capsys):
        tmp, cfg = trained
        # sample0012 caption has fewer tokens than m=6 in some corpora; use
        # whichever post exists and count listed tokens vs caption tokens
        from postpop.data import load_dataset
        corpus = resolve_corpus(cfg)
        ds, _ = load_dataset(corpus)
        post = next(p for p in ds.posts if p.hashtags)
        code, out, _ = run_cli(["--config", str(cfg), "inspect-attention",
                                "--post-id", post.post_id], capsys)
        assert code == 0
        assert "token attention (sum=1.000000)" in out
        assert "region attention (sum=1.000000)" in out
        from postpop.providers import tokenize
        listed = [l for l in out.splitlines() if l.startswith("   ")]
        n_tokens = min(len(tokenize(post.caption)), 6)
        assert len(listed) == n_tokens + 4  # tokens + k=4 regions

    def test_no_hashtag_post_labeled(self, trained, capsys):
        tmp, cfg = trained
        from postpop.data import load_dataset
        ds, _ = load_dataset(resolve_corpus(cfg))
        post = next(p for p in ds.posts if not p.hashtags)
        code, out, _ = run_cli(["--config", str(cfg), "inspect-attention",
                                "--post-id", post.post_id], capsys)
        assert code == 0
        assert "hashtag influence: none" in out

    def test_na_checkpoint_has_no_attention_to_inspect(self, workspace, capsys):
        _, cfg = workspace
        na = ["--config", str(cfg), "--set", "attention=na"]
        assert run_cli([*na, "train"], capsys)[0] == 0
        code, _, err = run_cli([*na, "inspect-attention", "--post-id", "sample0001"],
                               capsys)
        assert code == 1 and "no attention stage" in err, err

    def test_unknown_post_exits_two(self, trained, capsys):
        tmp, cfg = trained
        code, _, err = run_cli(["--config", str(cfg), "inspect-attention",
                                "--post-id", "ghost"], capsys)
        assert code == 2


def resolve_corpus(cfg_path) -> str:
    for line in Path(cfg_path).read_text().splitlines():
        if line.startswith("corpus="):
            return line.split("=", 1)[1]
    raise AssertionError("corpus key missing")
