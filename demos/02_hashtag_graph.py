"""Build the hashtag co-occurrence graph and derive the 818-dim hashtag
feature (768 topic dims + 50 structural dims) for a post.
"""

import numpy as np

from postpop import (EmbeddingProvider, build_cooccurrence_graph,
                     hashtag_feature, load_dataset, node_embeddings,
                     split_dataset)

ds, _ = load_dataset("data/sample_corpus.jsonl")
train, _, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=7)

provider = EmbeddingProvider(kind="deterministic_stub", seed=0)
graph = build_cooccurrence_graph(train, provider)
print(f"graph: {len(graph.nodes)} hashtags, {len(graph.edges)} weighted edges")

heaviest = sorted(graph.edges.items(), key=lambda kv: -kv[1])[:5]
for (a, b), w in heaviest:
    print(f"  #{a} -- #{b}: co-occurs in {w} posts")

emb = node_embeddings(graph, dim=50, hops=2)
tag = heaviest[0][0][0]
print(f"\nnode embedding for #{tag}: dim={emb[tag].shape[0]}, "
      f"norm={np.linalg.norm(emb[tag]):.6f}")

post = next(p for p in train.posts if len(p.hashtags) >= 2)
# a batch of one post: its hashtags' 768-dim topic vectors, one row per tag
# (the table's last row is the zero row that padding gathers)
topic_rows = provider.tables({768: post.hashtags})[768][None, :-1]
hf = hashtag_feature([post], emb, topic_rows, [len(post.hashtags)])
print(f"\npost {post.post_id} hashtags {post.hashtags}")
print(f"  topic dim: {hf.topic.shape[1]}")
print(f"  structure dim: {hf.structure.shape[1]}")
print(f"  combined dim: {hf.combined.shape[1]}")
