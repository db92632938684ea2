import math

import numpy as np

from postpop.attention import (attention_param_shapes, hga_attention, hga_backward,
                               masked_mean, na_backward, na_content, sa_attention)
from postpop.numeric import uniform_params


def attention_params(rng, d, a, scale=0.7):
    return uniform_params(rng, attention_param_shapes(d, a), scale)


def attended(alpha, rows):
    """sum_i alpha[..., i] * rows[..., i, :], as the attention layer sums it."""
    return (alpha[..., None, :] @ rows)[..., 0, :]


def loop_hga(text, text_mask, image, hashtag_mat, hashtag_mask,
             ut, vt, wt, ui, vi, wi):
    """Step-by-step scalar reimplementation used as the oracle."""
    m, d = text.shape
    k = image.shape[0]
    a = ut.shape[1]

    n_tags = sum(hashtag_mask)
    hbar = [0.0] * d
    if n_tags > 0:
        for j in range(d):
            hbar[j] = sum(hashtag_mask[l] * hashtag_mat[l][j]
                          for l in range(len(hashtag_mask))) / n_tags

    def scores(rows, u, v, w):
        out = []
        for row in rows:
            s = 0.0
            for q in range(a):
                z = sum(row[j] * u[j][q] for j in range(d)) \
                    + sum(hbar[j] * v[j][q] for j in range(d))
                s += math.tanh(z) * w[q]
            out.append(s)
        return out

    def masked_softmax(s, mask):
        live = [i for i in range(len(s)) if mask[i] > 0]
        mx = max(s[i] for i in live)
        exps = {i: math.exp(s[i] - mx) for i in live}
        total = sum(exps.values())
        return [exps.get(i, 0.0) / total for i in range(len(s))]

    alpha_t = masked_softmax(scores(text, ut, vt, wt), text_mask)
    alpha_i = masked_softmax(scores(image, ui, vi, wi), [1.0] * k)
    t_vec = [sum(alpha_t[x] * text[x][j] for x in range(m)) for j in range(d)]
    i_vec = [sum(alpha_i[x] * image[x][j] for x in range(k)) for j in range(d)]
    content = [t_vec[j] + i_vec[j] for j in range(d)]
    return (np.array(alpha_t), np.array(alpha_i), np.array(t_vec),
            np.array(i_vec), np.array(content))


class TestHgaForward:
    def test_constant_rows_uniform_alpha_without_hashtag_term(self, rng):
        d, a = 4, 3
        store = attention_params(rng, d, a)
        store["att.Vt"] = np.zeros((d, a))
        store["att.Vi"] = np.zeros((d, a))
        text = np.tile(rng.uniform(-1, 1, d), (5, 1))
        mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        text[3:] = 0.0
        image = rng.uniform(-1, 1, (3, d))
        hmat = rng.uniform(-1, 1, (2, d))
        _, cache = hga_attention(text, mask, image, hmat, np.ones(2), store)
        assert np.allclose(cache.alpha_text[:3], 1.0 / 3.0)
        assert np.all(cache.alpha_text[3:] == 0.0)

    def test_tiny_case_matches_scalar_oracle(self):
        # hand-set parameters, M=2, K=2, L=1, D=2, A=1
        store = {"att.Ut": np.array([[0.3], [-0.5]]), "att.Vt": np.array([[0.2], [0.7]]),
                 "att.wt": np.array([0.9]), "att.Ui": np.array([[-0.4], [0.6]]),
                 "att.Vi": np.array([[0.1], [-0.8]]), "att.wi": np.array([-1.1])}
        text = np.array([[0.5, -0.2], [0.1, 0.9]])
        mask = np.ones(2)
        image = np.array([[-0.7, 0.3], [0.2, 0.4]])
        hmat = np.array([[0.6, -0.6]])
        hmask = np.ones(1)
        content, cache = hga_attention(text, mask, image, hmat, hmask, store)
        a_t, a_i, t_vec, i_vec, expected = loop_hga(
            text, mask, image, hmat, hmask,
            store["att.Ut"], store["att.Vt"], store["att.wt"],
            store["att.Ui"], store["att.Vi"], store["att.wi"])
        assert np.allclose(cache.alpha_text, a_t, atol=1e-12)
        assert np.allclose(cache.alpha_image, a_i, atol=1e-12)
        assert np.allclose(attended(cache.alpha_text, text), t_vec, atol=1e-12)
        assert np.allclose(attended(cache.alpha_image, image), i_vec, atol=1e-12)
        assert np.allclose(content, expected, atol=1e-12)

    def test_random_cases_match_scalar_oracle(self, rng):
        for _ in range(5):
            d, a, m, k, l = 3, 4, 4, 3, 2
            store = attention_params(rng, d, a)
            mask = np.array([1.0] * 2 + [0.0] * 2)
            text = rng.uniform(-1, 1, (m, d)) * mask[:, None]
            image = rng.uniform(-1, 1, (k, d))
            hmask = np.array([1.0, 0.0])
            hmat = rng.uniform(-1, 1, (l, d)) * hmask[:, None]
            content, cache = hga_attention(text, mask, image, hmat, hmask, store)
            expected = loop_hga(text, mask, image, hmat, hmask,
                                store["att.Ut"], store["att.Vt"], store["att.wt"],
                                store["att.Ui"], store["att.Vi"], store["att.wi"])
            assert np.allclose(cache.alpha_text, expected[0], atol=1e-12)
            assert np.allclose(content, expected[4], atol=1e-12)

    def test_no_hashtags_equals_zeroed_v(self, rng):
        d, a = 4, 3
        store = attention_params(rng, d, a)
        text = rng.uniform(-1, 1, (3, d))
        image = rng.uniform(-1, 1, (2, d))
        content1, _ = hga_attention(text, np.ones(3), image,
                                    np.zeros((2, d)), np.zeros(2), store)
        zeroed = {**store, "att.Vt": np.zeros((d, a)), "att.Vi": np.zeros((d, a))}
        content2, _ = hga_attention(text, np.ones(3), image,
                                    rng.uniform(-1, 1, (2, d)), np.zeros(2), zeroed)
        assert np.allclose(content1, content2, atol=1e-12)

    def test_fully_masked_caption_falls_back_to_image(self, rng):
        d = 4
        store = attention_params(rng, d, 3)
        image = rng.uniform(-1, 1, (2, d))
        content, cache = hga_attention(np.zeros((3, d)), np.zeros(3), image,
                                       rng.uniform(-1, 1, (2, d)), np.ones(2), store)
        assert np.all(cache.alpha_text == 0.0)
        assert np.allclose(content, attended(cache.alpha_image, image))


class TestInvariants:
    def test_simplex_and_masked_zeros(self, rng):
        d, a = 5, 4
        for _ in range(50):
            store = attention_params(rng, d, a)
            n_tok = int(rng.integers(1, 5))
            mask = np.zeros(4)
            mask[:n_tok] = 1.0
            text = rng.uniform(-1, 1, (4, d)) * mask[:, None]
            image = rng.uniform(-1, 1, (3, d))
            hmask = np.zeros(2)
            hmask[:rng.integers(0, 3)] = 1.0
            hmat = rng.uniform(-1, 1, (2, d)) * hmask[:, None]
            _, cache = hga_attention(text, mask, image, hmat, hmask, store)
            assert abs(cache.alpha_text.sum() - 1.0) < 1e-9
            assert abs(cache.alpha_image.sum() - 1.0) < 1e-9
            assert np.all(cache.alpha_text >= 0) and np.all(cache.alpha_image >= 0)
            assert np.all(cache.alpha_text[mask == 0] == 0.0)

    def test_hashtag_permutation_invariance(self, rng):
        d = 4
        store = attention_params(rng, d, 3)
        text = rng.uniform(-1, 1, (3, d))
        image = rng.uniform(-1, 1, (2, d))
        hmat = rng.uniform(-1, 1, (4, d))
        hmask = np.array([1.0, 1.0, 1.0, 0.0])
        content1, cache1 = hga_attention(text, np.ones(3), image, hmat, hmask, store)
        perm = np.array([2, 0, 1, 3])
        content2, cache2 = hga_attention(text, np.ones(3), image, hmat[perm],
                                         hmask[perm], store)
        assert np.allclose(content1, content2, atol=1e-12)
        assert np.allclose(cache1.alpha_text, cache2.alpha_text, atol=1e-12)

    def test_content_additivity(self, rng):
        d = 4
        store = attention_params(rng, d, 3)
        text, image = rng.uniform(-1, 1, (3, d)), rng.uniform(-1, 1, (2, d))
        content, cache = hga_attention(text, np.ones(3), image,
                                       rng.uniform(-1, 1, (2, d)), np.ones(2), store)
        attended_text = attended(cache.alpha_text, text)
        attended_image = attended(cache.alpha_image, image)
        assert np.array_equal(content, attended_text + attended_image)
        residual = content - attended_text - attended_image
        assert np.max(np.abs(residual)) < 1e-12

    def test_score_scale_preserves_argmax(self, rng):
        d = 4
        store = attention_params(rng, d, 3)
        text = rng.uniform(-1, 1, (4, d))
        image = rng.uniform(-1, 1, (2, d))
        hmat = rng.uniform(-1, 1, (2, d))
        _, cache1 = hga_attention(text, np.ones(4), image, hmat, np.ones(2), store)
        scaled = {**store, "att.wt": 3.7 * store["att.wt"]}
        _, cache2 = hga_attention(text, np.ones(4), image, hmat, np.ones(2), scaled)
        assert np.argmax(cache1.alpha_text) == np.argmax(cache2.alpha_text)

    def test_pooled_hashtag_masked_mean(self, rng):
        hmat = rng.uniform(-1, 1, (3, 4))
        hmask = np.array([1.0, 1.0, 0.0])
        assert np.allclose(masked_mean(hmat, hmask), hmat[:2].mean(axis=0))
        assert np.array_equal(masked_mean(hmat, np.zeros(3)), np.zeros(4))


class TestVariants:
    def test_na_constant_rows(self, rng):
        d = 4
        e = rng.uniform(-1, 1, d)
        v = rng.uniform(-1, 1, d)
        text = np.tile(e, (3, 1))
        image = np.tile(v, (2, 1))
        out = na_content(text, np.ones(3), image)
        assert out.shape == (d,)
        assert np.allclose(out, e + v, atol=1e-12)

    def test_na_empty_caption(self, rng):
        image = rng.uniform(-1, 1, (3, 4))
        out = na_content(np.zeros((2, 4)), np.zeros(2), image)
        assert np.allclose(out, image.mean(axis=0))

    def test_na_matches_hga_with_uniform_alphas(self, rng):
        d = 4
        mask = np.array([1.0, 1.0, 0.0])
        text = rng.uniform(-1, 1, (3, d)) * mask[:, None]
        image = rng.uniform(-1, 1, (2, d))
        uniform_t = mask / mask.sum()
        uniform_i = np.full(2, 0.5)
        forced = uniform_t @ text + uniform_i @ image
        assert np.allclose(na_content(text, mask, image), forced, atol=1e-12)

    def test_sa_equals_hga_without_hashtags(self, rng):
        d = 4
        store = attention_params(rng, d, 3)
        text = rng.uniform(-1, 1, (3, d))
        image = rng.uniform(-1, 1, (2, d))
        hga_content, _ = hga_attention(text, np.ones(3), image,
                                       np.zeros((2, d)), np.zeros(2), store)
        sa_content, _ = sa_attention(text, np.ones(3), image, store)
        assert np.allclose(hga_content, sa_content, atol=1e-12)

    def test_sa_matches_scalar_oracle_with_zero_pool(self, rng):
        d, a = 3, 2
        store = attention_params(rng, d, a)
        text = rng.uniform(-1, 1, (2, d))
        image = rng.uniform(-1, 1, (2, d))
        content, cache = sa_attention(text, np.ones(2), image, store)
        expected = loop_hga(text, np.ones(2), image,
                            np.zeros((1, d)), np.zeros(1),
                            store["att.Ut"], store["att.Vt"], store["att.wt"],
                            store["att.Ui"], store["att.Vi"], store["att.wi"])
        assert np.allclose(content, expected[4], atol=1e-12)
        assert abs(cache.alpha_text.sum() - 1.0) < 1e-12


class TestBatched:
    """(B, ...) inputs give every post's one-post result, on one code path."""

    def make_batch(self, rng, b=4, m=3, k=2, l=3, d=4):
        token_masks = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0], [1, 1, 0]], dtype=float)[:b]
        tag_masks = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 1], [1, 0, 0]], dtype=float)[:b]
        text = rng.uniform(-1, 1, (b, m, d)) * token_masks[..., None]
        image = rng.uniform(-1, 1, (b, k, d))
        hmat = rng.uniform(-1, 1, (b, l, d)) * tag_masks[..., None]
        return text, token_masks, image, hmat, tag_masks

    def test_hga_and_sa_batch_equal_one_post_calls(self, rng):
        store = attention_params(rng, 4, 3)
        text, tmask, image, hmat, hmask = self.make_batch(rng)
        d_content = rng.normal(size=(4, 4))
        hga = lambda i: hga_attention(text[i], tmask[i], image[i], hmat[i], hmask[i], store)
        sa = lambda i: sa_attention(text[i], tmask[i], image[i], store)
        for attend in (hga, sa):
            content, cache = attend(slice(None))
            grads, d_text, d_image = hga_backward(d_content, cache, store)
            if attend is sa:  # no hashtag signal reaches the V weights
                assert not grads["att.Vt"].any() and not grads["att.Vi"].any()
            summed = {name: 0.0 for name in grads}
            for i in range(4):
                one, one_cache = attend(i)
                assert np.allclose(content[i], one, rtol=0, atol=1e-12)
                for field in ("alpha_text", "alpha_image"):
                    assert np.allclose(getattr(cache, field)[i], getattr(one_cache, field),
                                       rtol=0, atol=1e-12), field
                g, dt, di = hga_backward(d_content[i], one_cache, store)
                assert np.allclose(d_text[i], dt, rtol=0, atol=1e-12)
                assert np.allclose(d_image[i], di, rtol=0, atol=1e-12)
                for name in g:
                    summed[name] = summed[name] + g[name]
            for name in grads:
                assert np.allclose(grads[name], summed[name], rtol=0, atol=1e-12), name

    def test_empty_caption_row_contributes_nothing(self, rng):
        store = attention_params(rng, 4, 3)
        text, tmask, image, hmat, hmask = self.make_batch(rng)
        _, cache = hga_attention(text, tmask, image, hmat, hmask, store)
        assert np.all(cache.alpha_text[2] == 0.0)
        assert np.all(attended(cache.alpha_text, text)[2] == 0.0)
        np.testing.assert_allclose(cache.alpha_text.sum(axis=-1), [1.0, 1.0, 0.0, 1.0])
        d_content = np.zeros((4, 4))
        d_content[2] = rng.normal(size=4)
        grads, d_text, _ = hga_backward(d_content, cache, store)
        assert np.all(d_text[2] == 0.0)
        for name in ("att.Ut", "att.Vt", "att.wt"):
            assert np.all(grads[name] == 0.0), name

    def test_sa_batch_matches_one_post(self, rng):
        store = attention_params(rng, 4, 3)
        text, tmask, image, _, _ = self.make_batch(rng)
        content, _ = sa_attention(text, tmask, image, store)
        for i in range(4):
            one, _ = sa_attention(text[i], tmask[i], image[i], store)
            assert np.allclose(content[i], one, rtol=0, atol=1e-12)

    def test_na_batch_equals_one_post_calls(self, rng):
        text, tmask, image, _, _ = self.make_batch(rng)
        d_content = rng.normal(size=(4, 4))
        content = na_content(text, tmask, image)
        d_text, d_image = na_backward(d_content, tmask, 3, 2)
        for i in range(4):
            assert np.allclose(content[i], na_content(text[i], tmask[i], image[i]),
                               rtol=0, atol=1e-12)
            dt, di = na_backward(d_content[i], tmask[i], 3, 2)
            assert np.allclose(d_text[i], dt, rtol=0, atol=1e-12)
            assert np.allclose(d_image[i], di, rtol=0, atol=1e-12)
