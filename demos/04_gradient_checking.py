"""Verify every analytic backward pass against central finite differences.

Builds the full model at tiny dimensions, computes the batch loss gradient
analytically, then compares each parameter tensor against the
finite-difference oracle.
"""

from dataclasses import fields

import numpy as np

from postpop.model import (PAPER_BRANCH_SPECS, BranchSpec, FeatureBundle, ModelConfig,
                           batch_loss_and_grads, forward_bundle, init_model_params,
                           loss_mse)
from postpop.numeric import finite_difference_grad, relative_error

config = ModelConfig(
    m=3, k=4, l=2, d=5, a=6, n=6, topic_dim=8, structure_dim=4, pca_k=4,
    demographic_mode="ordinal",
    branch_specs={name: BranchSpec(widths=(2, 2, 2), channels=(2, 2, 2))
                  for name in PAPER_BRANCH_SPECS},
    head_sizes=(8, 4, 1))

rng = np.random.default_rng(7)
mask = np.array([1.0, 1.0, 0.0])
hmask = np.array([1.0, 0.0])
bundle = FeatureBundle(
    post_id="demo",
    tokens=rng.uniform(-1, 1, (3, 5)) * mask[:, None],
    token_mask=mask,
    regions=rng.uniform(-1, 1, (4, 6)),
    hashtag_mat=rng.uniform(-1, 1, (2, 5)) * hmask[:, None],
    hashtag_mask=hmask,
    f_social=rng.uniform(-1, 1, 4),
    f_demographic=rng.uniform(0, 1, 4),
    f_hashtag=rng.uniform(-1, 1, 12),
    f_sentiment_text=rng.dirichlet(np.ones(5)),
    f_sentiment_hashtags=rng.dirichlet(np.ones(5)),
    target=0.37,
)

params = init_model_params(config, seed=3)
print(f"parameters: {sum(v.size for _, v in params.items())} across "
      f"{len(params)} tensors")

# a stacked batch of this one post: every field gains a leading axis of 1
batch = FeatureBundle(**{f.name: np.asarray(getattr(bundle, f.name))[None]
                         for f in fields(bundle)})
_, analytic, _ = batch_loss_and_grads(batch, params, config)
# the dropout-free batch loss, differentiated one coordinate at a time
numeric = finite_difference_grad(
    lambda st: loss_mse(forward_bundle(batch, st, config)[0], batch.target),
    params, eps=1e-5)

worst = 0.0
for name in params:
    err = relative_error(analytic[name], numeric[name])
    worst = max(worst, err)
    print(f"  {name:<36} rel err {err:.2e}")
print(f"\nworst relative error: {worst:.2e} (tolerance 1e-4)")
