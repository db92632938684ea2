"""Show hashtag-guided attention redistributing weight over caption tokens.

Uses an untrained model at small dimensions: the same caption is scored
under two different hashtag sets and under the self-attention and
no-attention ablations, illustrating how the pooled hashtag vector shifts
the token weights.
"""

import numpy as np

from postpop import EmbeddingProvider
from postpop.attention import (hga_attention, init_attention_params,
                               na_content, sa_attention)
from postpop.numeric import ParamStore
from postpop.providers import tokenize

D, A, M, K, L = 8, 8, 6, 4, 4
provider = EmbeddingProvider(kind="deterministic_stub", seed=0)
rng = np.random.default_rng(3)
params = ParamStore()
init_attention_params(params, rng, D, A, scale=0.8)



def embed(keys, rows):
    """The keys' provider vectors as a zero-padded (rows, D) matrix, and its mask."""
    keys = keys[:rows]
    mat = np.zeros((rows, D))
    mat[:len(keys)] = provider.tables({D: keys})[D][:-1]
    return mat, (np.arange(rows) < len(keys)).astype(np.float64)


caption = "colorful festival crowd in the rain"
tokens, mask = embed(tokenize(caption), M)
image = rng.uniform(-1, 1, (K, D))
words = caption.split()

print(f"caption: {caption!r}\n")
for tags in (["festival", "music"], ["rain", "weather"]):
    hmat, hmask = embed(tags, L)
    out, _ = hga_attention(tokens, mask, image, hmat, hmask, params)
    print(f"hashtags {tags}:")
    for w, a in zip(words, out.alpha_text):
        print(f"  {w:<10} {a:.4f}")
    print(f"  (sum {out.alpha_text.sum():.6f})\n")

sa, _ = sa_attention(tokens, mask, image, params)
print("self-attention (no hashtag signal):")
for w, a in zip(words, sa.alpha_text):
    print(f"  {w:<10} {a:.4f}")

na = na_content(tokens, mask, image)
print(f"\nno-attention content vector = token mean + region mean, dim {na.shape[0]}")
print(f"content additivity: content == attended_text + attended_image -> "
      f"{np.array_equal(sa.content, sa.attended_text + sa.attended_image)}")
