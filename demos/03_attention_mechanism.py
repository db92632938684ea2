"""Show hashtag-guided attention redistributing weight over caption tokens.

Uses an untrained model at small dimensions: the same caption is scored
under two different hashtag sets and under the self-attention and
no-attention ablations, illustrating how the pooled hashtag vector shifts
the token weights.
"""

import numpy as np

from postpop import EmbeddingProvider
from postpop.attention import (attention_param_shapes, hga_attention, na_content,
                               sa_attention)
from postpop.numeric import uniform_params
from postpop.providers import tokenize

D, A, M, K, L = 8, 8, 6, 4, 4
provider = EmbeddingProvider(kind="deterministic_stub", seed=0)
rng = np.random.default_rng(3)
params = uniform_params(rng, attention_param_shapes(D, A), scale=0.8)



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
    _, cache = hga_attention(tokens, mask, image, hmat, hmask, params)
    print(f"hashtags {tags}:")
    for w, a in zip(words, cache.alpha_text):
        print(f"  {w:<10} {a:.4f}")
    print(f"  (sum {cache.alpha_text.sum():.6f})\n")

sa, sa_cache = sa_attention(tokens, mask, image, params)
print("self-attention (no hashtag signal):")
for w, a in zip(words, sa_cache.alpha_text):
    print(f"  {w:<10} {a:.4f}")

na = na_content(tokens, mask, image)
print(f"\nno-attention content vector = token mean + region mean, dim {na.shape[0]}")
attended_text = (sa_cache.alpha_text[None] @ tokens)[0]
attended_image = (sa_cache.alpha_image[None] @ image)[0]
print(f"content additivity: content == attended_text + attended_image -> "
      f"{np.array_equal(sa, attended_text + attended_image)}")
