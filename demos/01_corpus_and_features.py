"""Walk through the data model and the batched feature encoders.

Loads the bundled sample corpus, splits it deterministically, then shows the
demographic one-hot encoding, the two-block sentiment vector, and the social
vector before and after PCA. Each encoder takes a batch of posts; here the
batch is one post.
"""

import numpy as np

from postpop import (SentimentLexicon, SocialStats, demographic_vector,
                     load_dataset, sentiment_feature, social_vector,
                     split_dataset, tokenize)
from postpop.features import fit_social_pca, apply_pca, social_numerics

ds, skipped = load_dataset("data/sample_corpus.jsonl")
print(f"loaded {len(ds)} posts ({skipped} malformed lines skipped)")

train, val, test = split_dataset(ds, (0.8, 0.1, 0.1), seed=7)
print(f"split sizes: train={len(train)} val={len(val)} test={len(test)}")

post = next(p for p in train.posts if p.faces and p.hashtags)
print(f"\nexample post {post.post_id}")
print(f"  caption:  {post.caption!r}")
print(f"  hashtags: {post.hashtags}")
print(f"  faces:    {[f'{f.gender}/{f.age}/{f.emotion}/{f.race}' for f in post.faces]}")

# demographic block layout: gender 2 | age 101 | emotion 7 | race 6 = 116
demo = demographic_vector([post])[0]
print(f"\ndemographic vector: dim={demo.shape[0]}, "
      f"nonzero at {np.nonzero(demo)[0].tolist()}")

lexicon = SentimentLexicon.bundled()
caption_dist, hashtag_dist = sentiment_feature([post], [tokenize(post.caption)], lexicon)
print(f"sentiment caption block:  {np.round(caption_dist[0], 3)}")
print(f"sentiment hashtag block:  {np.round(hashtag_dist[0], 3)}")
print(f"combined dim: {caption_dist.shape[1] + hashtag_dist.shape[1]}")

# social vector: 9 z-scored numerics + day(7) + month(12) + segment(4) + duration
numerics = social_numerics(train.posts)
stats = SocialStats.fit(numerics)
raw = social_vector([post], stats)[0]
pca = fit_social_pca(train.posts, stats, numerics, k=6)
reduced = apply_pca(pca, raw)
print(f"\nsocial vector: raw dim={raw.shape[0]} -> reduced dim={reduced.shape[0]}")
print(f"explained variance: {np.round(pca.explained_variance, 3)}")
print(f"reduced social features: {np.round(reduced, 3)}")
