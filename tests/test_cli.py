import json
from pathlib import Path

import pytest

from postpop.cli import main, resolve_config, UsageError
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


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_dataset(make_sample_corpus(n=40, seed=13), corpus)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"corpus={corpus}\n"
        f"cache_dir={tmp_path / 'cache'}\n"
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


class TestTopLevel:
    def test_help_exits_zero_and_documents_keys(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "prepare" in out and "inspect-attention" in out
        from postpop.cli import DEFAULTS
        for key in DEFAULTS:
            assert key in out, key

    def test_unknown_command_usage_error(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1

    def test_unknown_config_key_exits_one(self, workspace, capsys):
        _, cfg = workspace
        code, _, err = run_cli(["--config", str(cfg), "--set", "nope=1",
                                "prepare"], capsys)
        assert code == 1 and "unknown configuration key" in err

    def test_missing_corpus_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(["--set", "corpus=/nonexistent.jsonl",
                                "--set", "cache_dir=" + str(tmp_path / "c"),
                                "prepare"], capsys)
        assert code == 2 and "not found" in err


class TestPrepare:
    def test_creates_cache_files(self, workspace, capsys):
        tmp, cfg = workspace
        code, out, _ = run_cli(["--config", str(cfg), "prepare"], capsys)
        assert code == 0
        cache = tmp / "cache"
        for name in ("graph.tsv", "node_embeddings.tsv", "pca.tsv",
                     "social_stats.tsv", "manifest.json"):
            assert (cache / name).exists(), name

    def test_idempotent_byte_for_byte(self, workspace, capsys):
        tmp, cfg = workspace
        assert run_cli(["--config", str(cfg), "prepare"], capsys)[0] == 0
        cache = tmp / "cache"
        first = {p.name: p.read_bytes() for p in cache.iterdir()}
        assert run_cli(["--config", str(cfg), "prepare"], capsys)[0] == 0
        second = {p.name: p.read_bytes() for p in cache.iterdir()}
        assert first == second

    def test_empty_hashtag_corpus_empty_graph(self, tmp_path, capsys):
        ds = make_sample_corpus(n=20, seed=1)
        stripped = [p.__class__(**{**p.__dict__, "hashtags": (),
                                   "metadata": p.metadata.__class__(
                                       **{**p.metadata.__dict__, "tag_count": 0})})
                    for p in ds.posts]
        from postpop.data import Dataset
        corpus = tmp_path / "nohash.jsonl"
        save_dataset(Dataset(tuple(stripped)), corpus)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus={corpus}\ncache_dir={tmp_path / 'cache'}\n"
                       + DESK_KEYS)
        code, _, _ = run_cli(["--config", str(cfg), "prepare"], capsys)
        assert code == 0
        assert (tmp_path / "cache" / "graph.tsv").read_text() == ""

    def test_manifest_records_cache_hash(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
        manifest = json.loads((tmp / "cache" / "manifest.json").read_text())
        assert "cache_digest" in manifest
        import hashlib
        for name, digest in manifest["files"].items():
            actual = hashlib.sha256((tmp / "cache" / name).read_bytes()).hexdigest()
            assert actual == digest


class TestTrain:
    def test_missing_cache_actionable_error(self, workspace, capsys):
        _, cfg = workspace
        code, _, err = run_cli(["--config", str(cfg), "train"], capsys)
        assert code == 2 and "postpop prepare" in err

    def test_digest_mismatch_rejected(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
        code, _, err = run_cli(["--config", str(cfg), "--set", "d=4",
                                "--set", "a=4", "--set", "n=4", "train"], capsys)
        assert code == 2 and "digest mismatch" in err

    def test_writes_checkpoint_and_history(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
        code, out, _ = run_cli(["--config", str(cfg), "train"], capsys)
        assert code == 0
        assert (tmp / "model.ckpt").exists()
        history = (tmp / "out" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_mse"
        assert len(history) >= 2

    def test_default_hyperparameters_echoed(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        save_dataset(make_sample_corpus(n=40, seed=13), corpus)
        cfg = tmp_path / "run.cfg"
        # no learning_rate/batch_size keys: defaults must appear in the header
        cfg.write_text(f"corpus={corpus}\ncache_dir={tmp_path / 'cache'}\n"
                       f"checkpoint={tmp_path / 'm.ckpt'}\n"
                       f"out={tmp_path / 'out'}\n" + DESK_KEYS
                       + "max_epochs=1\npatience=1\n")
        run_cli(["--config", str(cfg), "prepare"], capsys)
        code, out, _ = run_cli(["--config", str(cfg), "train"], capsys)
        assert code == 0
        assert "learning_rate=0.0001" in out and "batch_size=20" in out

    def test_same_seed_identical_history(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
        run_cli(["--config", str(cfg), "--seed", "5", "train"], capsys)
        h1 = (tmp / "out" / "history.csv").read_bytes()
        run_cli(["--config", str(cfg), "--seed", "5", "train"], capsys)
        h2 = (tmp / "out" / "history.csv").read_bytes()
        assert h1 == h2


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_two_without_checkpoint(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
        code, _, err = run_cli(["--config", str(cfg), "--set", "learning_rate=1e150",
                                "train"], capsys)
        assert code == 2 and "diverged" in err
        assert not (tmp / "model.ckpt").exists()

    @pytest.mark.parametrize("key,value", [
        ("batch_size", "0"), ("max_epochs", "0"), ("patience", "0"),
        ("learning_rate", "nan"), ("learning_rate", "0"), ("learning_rate", "-0.1"),
    ])
    def test_nonsense_hyperparameter_exits_one(self, workspace, capsys, key, value):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
        code, _, err = run_cli(["--config", str(cfg), "--set", f"{key}={value}",
                                "train"], capsys)
        assert code == 1 and key in err
        assert not (tmp / "model.ckpt").exists()


class TestEvaluate:
    def test_json_contains_all_metrics(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
        run_cli(["--config", str(cfg), "train"], capsys)
        code, out, _ = run_cli(["--config", str(cfg), "evaluate",
                                "--split", "val"], capsys)
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert set(payload) >= {"mse", "mae", "srcc", "pcc", "n"}

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
        cfg.write_text(f"corpus={corpus}\ncache_dir={tmp_path / 'cache'}\n"
                       f"checkpoint={tmp_path / 'm.ckpt'}\n"
                       f"out={tmp_path / 'out'}\n" + DESK_KEYS
                       + "learning_rate=0.02\nbatch_size=20\nmax_epochs=120\n"
                       + "patience=120\nseed=0\ndropout=0.0\n")
        run_cli(["--config", str(cfg), "prepare"], capsys)
        assert run_cli(["--config", str(cfg), "train"], capsys)[0] == 0
        code, out, _ = run_cli(["--config", str(cfg), "evaluate",
                                "--split", "train"], capsys)
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["mse"] < 0.01

    def test_degenerate_split_exits_two(self, workspace, tmp_path, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
        run_cli(["--config", str(cfg), "train"], capsys)
        tiny = tmp_path / "tiny.jsonl"
        save_dataset(make_sample_corpus(n=2, seed=0), tiny)
        code, _, err = run_cli(["--config", str(cfg), "--corpus", str(tiny),
                                "evaluate", "--split", "val"], capsys)
        assert code == 2


    def test_truncated_checkpoint_exits_two(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
        run_cli(["--config", str(cfg), "train"], capsys)
        ckpt = tmp / "model.ckpt"
        raw = ckpt.read_bytes()
        for size in (10, len(raw) - 3):
            ckpt.write_bytes(raw[:size])
            code, _, err = run_cli(["--config", str(cfg), "evaluate"], capsys)
            assert code == 2 and "truncated checkpoint" in err
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


class TestInspectAttention:
    @pytest.fixture
    def trained(self, workspace, capsys):
        tmp, cfg = workspace
        run_cli(["--config", str(cfg), "prepare"], capsys)
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
