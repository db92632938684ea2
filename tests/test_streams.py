"""The batch-seeded PCG64 streams against numpy's own generators."""

from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from postpop import streams
from postpop.cli import model_config_from, resolve_config
from postpop.model import PAPER_HEAD_SIZES

REPO = Path(__file__).resolve().parents[1]
DESK_HEAD = model_config_from(resolve_config(REPO / "configs" / "desk.cfg")).head_sizes


def generator(entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


class TestSeeding:
    def test_entropy_words_as_numpy_coerces(self):
        assert streams.entropy_words([0]) == [0]
        assert streams.entropy_words([2 ** 32 - 1, 2 ** 32]) == [2 ** 32 - 1, 0, 1]
        assert streams.entropy_words([2 ** 64 + 5, np.int64(7)]) == [5, 0, 1, 7]
        assert streams.entropy_words([]) == []
        with pytest.raises(ValueError, match="non-negative"):
            streams.entropy_words([3, -1])
        with pytest.raises(TypeError):
            streams.entropy_words([1.5])

    @pytest.mark.parametrize("values", [[0], [7, 0], [2 ** 32], [1, 2, 3, 4, 5],
                                        [2 ** 64 + 5, 2 ** 32 - 1, 63], [2 ** 200 + 1, 9]])
    def test_entropy_words_seed_as_numpy_does(self, values):
        words = np.array(streams.entropy_words(values), dtype=np.uint32)[:, None]
        state = np.random.PCG64(np.random.SeedSequence(values)).state["state"]
        assert streams.pcg64_states(words) == [(state["state"], state["inc"])]

    @pytest.mark.parametrize("n_words", range(10))
    def test_states_equal_seedsequence_pcg64(self, n_words):
        # up to the pool (4 words) and past it
        rng = np.random.default_rng(n_words)
        words = rng.integers(0, 2 ** 32, size=(n_words, 40), dtype=np.uint32)
        words[:, 0] = 0
        words[:, 1] = 2 ** 32 - 1
        want = []
        for column in words.T:
            state = np.random.PCG64(np.random.SeedSequence(column.tolist())).state["state"]
            want.append((state["state"], state["inc"]))
        assert streams.pcg64_states(words) == want

    def test_raw_words_and_unit_floats_equal_the_generator(self):
        entropy = [[1, 2], [5, 6]]
        words = np.array([streams.entropy_words(e) for e in entropy], dtype=np.uint32).T
        # two streams, written out of order into one buffer
        raw = streams.read_raw(streams.pcg64_states(words), [(10, 7), (0, 3)], 17)
        assert np.array_equal(raw[10:], generator(entropy[0]).bit_generator.random_raw(7))
        assert np.array_equal(raw[:3], generator(entropy[1]).bit_generator.random_raw(3))
        want = generator(entropy[0]).random(7)
        assert streams.unit_floats(raw[10:]).tobytes() == want.tobytes()


class TestUniformRows:
    """Row i is `default_rng(SeedSequence([seed, step, i]))` drawn layer by
    layer, as each hidden head layer once drew its dropout mask."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
    @pytest.mark.parametrize("step", [0, 2 ** 32 - 1])
    @pytest.mark.parametrize("rows", [1, 20, 64])
    @pytest.mark.parametrize("head", ["desk", "paper"])
    def test_equal_to_per_post_generators(self, seed, step, rows, head):
        hidden = (DESK_HEAD if head == "desk" else PAPER_HEAD_SIZES)[:-1]
        got = streams.uniform_rows((seed, step), rows, sum(hidden))
        assert got.shape == (rows, sum(hidden)) and got.dtype == np.float64
        for i in range(rows):
            gen = generator([seed, step, i])
            want = np.concatenate([gen.random(width) for width in hidden])
            assert got[i].tobytes() == want.tobytes(), (seed, step, i)

    def test_tiny_head(self):
        cfg = tiny_config()
        got = streams.uniform_rows((5, 3), 4, sum(cfg.head_sizes[:-1]))
        want = [generator([5, 3, i]).random(sum(cfg.head_sizes[:-1])) for i in range(4)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_negative_prefix_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            streams.uniform_rows((-1, 0), 2, 3)
