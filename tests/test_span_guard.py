"""The benchmark's featurization spans stay called.

A traced benchmark run marks a workload incorrect when one of its expected
spans is never called, but only CI's traced step runs it. This runs the
benchmark's own tracer, unchanged, over the calls its gated workloads make:
one desk train() step, a batch and a one-post evaluate(), and a one-post
extract_features() on a 5-tag post.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_post
from postpop import corpora, data, providers, training
from postpop.model import extract_features

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GATED = ("desk_train", "signal_ablate", "graph_featurize")
FEATURIZATION = ("providers.", "hashtag_graph.", "features.", "model.build_caches",
                 "model.extract_features")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
        yield spans, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_featurization_spans_called(bench):
    spans, workloads = bench
    expected = {name for w in GATED for name in workloads.WORKLOADS[w].expected_spans
                if name.startswith(FEATURIZATION)}
    assert "providers.vector" in expected
    mc, tc = workloads.config("desk.cfg")
    ds = corpora.make_sample_corpus(n=40, seed=1)
    tr, va, te = data.split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
    # one post of few draws: a one-post pass reaches `vector` only through
    # the per-key fallback of `vectors` below BATCH_DRAWS
    five_tags = make_post(caption="one two", hashtags=("a", "b", "c", "d", "e"))
    assert mc.d == mc.topic_dim and 2 + 5 + 1 < providers.BATCH_DRAWS
    with spans.Tracer() as tracer:
        result = training.train(data.Dataset(tr.posts[:tc.batch_size]),
                                data.Dataset(va.posts[:5]), mc,
                                replace(tc, max_epochs=1, patience=1))
        training.evaluate(result.checkpoint, te)
        training.evaluate(result.checkpoint, data.Dataset(te.posts[:1]))
        extract_features(five_tags, result.checkpoint.caches, mc)
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    assert not tracer.absent & expected
    assert [name for name in sorted(expected) if calls[name] == 0] == []
