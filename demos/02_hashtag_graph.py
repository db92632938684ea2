"""Build the hashtag co-occurrence graph and derive the 818-dim hashtag
feature (768 topic dims + 50 structural dims) for a post.

The graph numbers its tags once, in sorted order: `graph.nodes` maps each
tag to its node, the edges are keyed by node pairs, and the node embeddings
are the rows of one table in that same numbering.
"""

import numpy as np

from postpop import (EmbeddingProvider, build_cooccurrence_graph,
                     hashtag_feature, load_dataset, node_embeddings,
                     split_dataset)

ds, _ = load_dataset("data/sample_corpus.jsonl")
train, _, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=7)

provider = EmbeddingProvider(kind="deterministic_stub", seed=0)
graph = build_cooccurrence_graph(train, provider)
print(f"graph: {len(graph.nodes)} hashtags, {len(graph.edges)} weighted edges, "
      f"base features {graph.node_features.shape}")

tags = list(graph.nodes)  # node -> tag
heaviest = sorted(graph.edges.items(), key=lambda kv: -kv[1])[:5]
for (i, j), w in heaviest:
    print(f"  #{tags[i]} -- #{tags[j]} (nodes {i}, {j}): co-occurs in {w} posts")

emb = node_embeddings(graph, dim=50, hops=2)
node = heaviest[0][0][0]
print(f"\nnode embedding for #{tags[node]}: row {emb.rows[tags[node]]} of a "
      f"{emb.table.shape} table, norm={np.linalg.norm(emb.table[node]):.6f}")

post = next(p for p in train.posts if len(p.hashtags) >= 2)
# a batch of one post: its hashtags numbered once, through the graph's nodes,
# then their 768-dim topic vectors, one row per tag (the table's last row is
# the zero row that padding gathers)
index, lengths, _ = emb.index([post.hashtags], 0)
topic_rows = provider.tables({768: post.hashtags})[768][None, :-1]
known = [sum(tag in emb.rows for tag in post.hashtags)]
feature = hashtag_feature(emb, index, known, topic_rows, lengths)
print(f"\npost {post.post_id} hashtags {post.hashtags}")
print(f"  hashtag feature: {feature.shape[1]} dims "
      f"(topic {topic_rows.shape[2]} + structure {emb.table.shape[1]})")
