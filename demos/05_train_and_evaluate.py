"""Train the desk-scale model on the bundled corpus and report metrics.

Uses small dimensions (captions of 6 tokens, 8-dim embeddings) so the whole
run takes seconds; prints the per-epoch history and the evaluation metrics
on every split.
"""

from postpop import (PAPER_BRANCH_SPECS, ModelConfig, TrainConfig, evaluate,
                     load_dataset, split_dataset, train)
from postpop.model import BranchSpec

ds, _ = load_dataset("data/sample_corpus.jsonl")
tr, va, te = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)

spec = BranchSpec(widths=(2, 2, 2), channels=(4, 4, 4))
config = ModelConfig(
    m=6, k=4, l=4, d=8, a=8, n=8, topic_dim=8, structure_dim=4, pca_k=6,
    branch_specs={n: spec for n in PAPER_BRANCH_SPECS},
    head_sizes=(16, 8, 1))
tconfig = TrainConfig(learning_rate=5e-3, batch_size=20, max_epochs=20,
                      patience=6, dropout=0.1, seed=0, init_scale=0.3)

result = train(tr, va, config, tconfig)
print("epoch  train_loss  val_mse")
for epoch, loss, val_mse in result.history:
    print(f"{epoch:5d}  {loss:10.4f}  {val_mse:7.4f}")

for name, split in (("train", tr), ("val", va), ("test", te)):
    m = evaluate(result.checkpoint, split)
    print(f"{name:>5}: n={m.n:2d}  MSE={m.mse:.4f}  MAE={m.mae:.4f}  "
          f"SRCC={m.srcc:+.3f}  PCC={m.pcc:+.3f}")
