"""The benchmark's expected spans stay called.

A traced benchmark run marks a workload incorrect when one of its expected
spans is never called, but only CI's traced step runs it. This runs the
benchmark's own tracer, unchanged, over the calls its gated workloads make:
a load_dataset() of a saved corpus, one desk train() step with hga attention
and one with na, a batch and a one-post evaluate(), and a one-post
extract_features() on a 5-tag post. Every expected span of every gated
workload, featurization and model layers alike, must be called at least once.
A one-post pass reaches `providers.vector` through its image, the one key of
its dim, so the benchmark's configs must keep that dim apart from the others.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_post
from postpop import corpora, data, training
from postpop.model import extract_features

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GATED = ("desk_train", "signal_ablate", "graph_featurize")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
        yield spans, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_expected_spans_called(bench, tmp_path):
    spans, workloads = bench
    expected = {name for w in GATED for name in workloads.WORKLOADS[w].expected_spans}
    assert {"providers.vector", "data.load_dataset", "model.branch_forward",
            "model.branch_backward", "attention.na_content",
            "attention.na_backward"} <= expected
    for name in ("desk.cfg", "signal.cfg"):
        cfg = workloads.config(name)[0]
        assert cfg.k * cfg.n not in (cfg.d, cfg.topic_dim), name
    mc, tc = workloads.config("desk.cfg")
    corpus = tmp_path / "corpus.jsonl"
    data.save_dataset(corpora.make_sample_corpus(n=40, seed=1), corpus)
    five_tags = make_post(caption="one two", hashtags=("a", "b", "c", "d", "e"))
    step = replace(tc, max_epochs=1, patience=1)
    with spans.Tracer() as tracer:
        ds, skipped = data.load_dataset(corpus)
        assert skipped == 0
        tr, va, te = data.split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        batch, val = data.Dataset(tr.posts[:tc.batch_size]), data.Dataset(va.posts[:5])
        result = training.train(batch, val, mc, step)
        training.train(batch, val, training.apply_variant(mc, "na"), step,
                       caches=result.checkpoint.caches)
        training.evaluate(result.checkpoint, te)
        training.evaluate(result.checkpoint, data.Dataset(te.posts[:1]))
        extract_features(five_tags, result.checkpoint.caches, mc)
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    assert not tracer.absent & expected
    assert [name for name in sorted(expected) if calls.get(name, 0) == 0] == []
    with spans.Tracer() as one_post:  # its tokens and tags are drawn in batches
        extract_features(five_tags, result.checkpoint.caches, mc)
    assert one_post.summary()["providers.vector"]["calls"] == 1
