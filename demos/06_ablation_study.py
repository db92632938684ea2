"""Reproduce the hashtag-guided vs no-attention comparison on a corpus with
a planted hashtag-keyed signal, plus a feature correlation table.

Each post's popularity is the projection of one caption token's embedding;
that token is named by the post's hashtag. Guided attention can isolate it,
mean pooling cannot, so the HGA variant's validation MSE collapses while
the NA variant stays near the caption-mean floor. Takes a minute or two.
"""

import numpy as np

from postpop import (PAPER_BRANCH_SPECS, ModelConfig, TrainConfig, ablate,
                     correlate_features)
from postpop.corpora import make_hashtag_signal_corpus
from postpop.model import BranchSpec

ds = make_hashtag_signal_corpus(n=400, n_targets=24, caption_tokens=5,
                                d=8, embed_seed=0, seed=0)
print(f"corpus: {len(ds)} posts, target variance {ds.popularity().var():.4f}")

spec = BranchSpec(widths=(2, 2, 2), channels=(2, 2, 2))
config = ModelConfig(
    m=5, k=4, l=2, d=8, a=8, n=8, topic_dim=8, structure_dim=4, pca_k=4,
    use_hashtags=False, use_social=False,
    use_demographics=False, use_sentiment_text=False,
    use_sentiment_hashtags=False,
    branch_specs={n: spec for n in PAPER_BRANCH_SPECS},
    head_sizes=(16, 8, 1))
tconfig = TrainConfig(learning_rate=1e-2, batch_size=20, max_epochs=40,
                      patience=40, dropout=0.0, seed=0, init_scale=0.3)

report = ablate(ds, config, tconfig, ["hga", "na"], seeds=[0, 1, 2])
print()
print(report.to_table())
print(f"\nmedian val MSE: hga={report.median('hga'):.4f} "
      f"na={report.median('na'):.4f}")

print("\nfeature correlations with popularity (planted-signal corpus):")
small = ModelConfig(m=5, k=4, l=2, d=8, a=8, n=8, topic_dim=8,
                    structure_dim=4, pca_k=4, branch_specs=config.branch_specs,
                    head_sizes=(8, 4, 1))
for name, srcc in correlate_features(ds, config=small):
    label = "undefined (constant)" if np.isnan(srcc) else f"{srcc:+.3f}"
    print(f"  {name:<22} {label}")
