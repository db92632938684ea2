"""The batch-seeded PCG64 streams against numpy's own generators."""

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import pcg64_ints, tiny_config
from postpop import streams
from postpop.cli import model_config_from, resolve_config
from postpop.model import PAPER_HEAD_SIZES

REPO = Path(__file__).resolve().parents[1]
DESK_HEAD = model_config_from(resolve_config(REPO / "configs" / "desk.cfg")).head_sizes
PAPER_WIDTH = sum(PAPER_HEAD_SIZES[:-1])  # 27092 dropout draws per post
PAPER_IMAGE = 49 * 512  # 25088: one image's k * n stub draws


def generator(entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def random_raw(entropy, count: int) -> np.ndarray:
    return np.random.PCG64(np.random.SeedSequence(entropy)).random_raw(count)


def read(entropy, starts, counts, size) -> np.ndarray:
    """The reader on the streams of `entropy`, a list of equal-length lists
    of uint32 words, one per stream."""
    words = np.array(entropy, dtype=np.uint32).reshape(len(entropy), -1).T
    return streams.read_raw(streams.pcg64_states(words), starts, counts, size)


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
        assert pcg64_ints(streams.pcg64_states(words)) == [(state["state"], state["inc"])]

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
        assert pcg64_ints(streams.pcg64_states(words)) == want

    def test_raw_words_and_unit_floats_equal_the_generator(self):
        entropy = [[1, 2], [5, 6]]
        # two streams, written out of order into one buffer
        raw = read(entropy, [10, 0], [7, 3], 17)
        assert np.array_equal(raw[10:], generator(entropy[0]).bit_generator.random_raw(7))
        assert np.array_equal(raw[:3], generator(entropy[1]).bit_generator.random_raw(3))
        want = generator(entropy[0]).random(7)
        assert streams.unit_floats(raw[10:]).tobytes() == want.tobytes()


class TestReader:
    """`read_raw` against `PCG64(SeedSequence(e)).random_raw(count)`."""

    @pytest.mark.parametrize("count", [1, 2, 3, 64, PAPER_IMAGE, PAPER_WIDTH])
    def test_counts_equal_random_raw(self, count):
        entropy = [[count, 0], [2 ** 32 - 1, count], [5, 6]]
        raw = read(entropy, [0, count, 2 * count], [count] * 3, 3 * count)
        for i, e in enumerate(entropy):
            assert np.array_equal(raw[i * count:(i + 1) * count], random_raw(e, count)), i

    def test_mixed_counts_and_out_of_order_slots(self):
        counts = [7, 3, 0, 1, 20, 64]
        starts = [100, 0, 25, 27, 4, 30]  # gaps, and not in stream order
        entropy = [[i, 2 * i + 1] for i in range(len(counts))]
        raw = read(entropy, starts, counts, 110)
        for e, start, count in zip(entropy, starts, counts):
            assert np.array_equal(raw[start:start + count], random_raw(e, count)), e

    @pytest.mark.parametrize("before", [streams._CHUNK - 5, streams._CHUNK,
                                        2 * streams._CHUNK - 1])
    def test_total_straddling_a_chunk_boundary(self, before):
        # stream 1 starts `before` words in, so its words span two chunks
        counts = [before, 10, 3]
        entropy = [[1], [2], [3]]
        starts = np.cumsum([0] + counts[:-1])
        raw = read(entropy, starts, counts, sum(counts))
        for e, start, count in zip(entropy, starts, counts):
            assert np.array_equal(raw[start:start + count], random_raw(e, count)), e

    @pytest.mark.parametrize("n_words", range(10))
    def test_entropy_lengths(self, n_words):
        rng = np.random.default_rng(100 + n_words)
        entropy = rng.integers(0, 2 ** 32, size=(6, n_words), dtype=np.uint32).tolist()
        words = np.array(entropy, dtype=np.uint32).reshape(6, n_words).T
        raw = streams.read_raw(streams.pcg64_states(words), np.arange(6) * 5, [5] * 6, 30)
        for i, e in enumerate(entropy):
            assert np.array_equal(raw[5 * i:5 * i + 5], random_raw(e, 5)), e

    def test_random_streams_carry_into_the_high_word(self):
        rng = np.random.default_rng(7)
        entropy = rng.integers(0, 2 ** 32, size=(10_000, 2), dtype=np.uint32).tolist()
        raw = read(entropy, np.arange(10_000) * 2, [2] * 10_000, 20_000)
        for i, e in enumerate(entropy):
            assert np.array_equal(raw[2 * i:2 * i + 2], random_raw(e, 2)), i
        # the low-word sum state + J_k z carries for some streams and not
        # for others
        seeded = streams.pcg64_states(np.array(entropy, dtype=np.uint32).T)
        states = [state & 2 ** 64 - 1 for state, _ in pcg64_ints(seeded)]
        for jump in streams._JUMPS.upto(2)[1:3, 1].tolist():  # steps 1 and 2
            carries = [state + (jump * base & 2 ** 64 - 1) >= 2 ** 64
                       for state, base in zip(states, seeded.base[1].tolist())]
            assert 0 < sum(carries) < len(carries)

    def test_no_warning_and_uint64_words(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            raw = read([[2 ** 32 - 1] * 3, [0] * 3], [0, 40], [40, 40], 80)
        assert raw.dtype == np.uint64

    def test_jump_table_is_grown_once_and_kept(self):
        big = PAPER_WIDTH + 1
        read([[1]], [0], [big], big)
        table = streams._JUMPS.upto(big)
        read([[2]], [0], [5], 5)
        assert streams._JUMPS.upto(big) is table  # not rebuilt by a smaller read
        # J_k = (M**k - 1) / 4 mod 2**128, and its low word's halves
        mult = streams._PCG_MULT
        for k in (0, 1, 2, 3, 100, 8193, big):
            hi, lo, lo_lo, lo_hi = table[k].tolist()
            assert hi << 64 | lo == (pow(mult, k, 2 ** 130) - 1) // 4 % 2 ** 128, k
            assert (lo_lo, lo_hi) == (lo & 2 ** 32 - 1, lo >> 32)


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

    def test_paper_scale_memory_is_bounded(self):
        # a paper-scale training step's draws: the reader works in chunks and
        # converts in place, so the peak stays near the output itself
        out_bytes = 64 * PAPER_WIDTH * 8
        tracemalloc.start()
        try:
            got = streams.uniform_rows((0, 0), 64, PAPER_WIDTH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.nbytes == out_bytes
        assert peak <= 2 * out_bytes + 2 * 2 ** 20, peak
