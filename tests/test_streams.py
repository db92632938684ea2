"""The counter-based draw rule against a pure-Python SplitMix64 reference."""

import hashlib
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from postpop import streams
from postpop.cli import model_config_from, resolve_config
from postpop.model import PAPER_HEAD_SIZES

REPO = Path(__file__).resolve().parents[1]
DESK_HEAD = model_config_from(resolve_config(REPO / "configs" / "desk.cfg")).head_sizes
PAPER_WIDTH = sum(PAPER_HEAD_SIZES[:-1])  # 27092 dropout draws per post
PAPER_IMAGE = 49 * 512  # 25088: one image's k * n stub draws
MASK64 = 2 ** 64 - 1


class SplitMix64:
    """Reference generator on Python ints: the state steps by GAMMA, and
    each output is the finalizer of the new state."""

    def __init__(self, key: int, skip: int = 0):
        self.state = (key + skip * streams.GAMMA) & MASK64

    def random_raw(self, count: int) -> list[int]:
        out = []
        for _ in range(count):
            self.state = (self.state + streams.GAMMA) & MASK64
            z = self.state
            z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK64
            z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK64
            out.append(z ^ z >> 31)
        return out

    def random(self, count: int) -> np.ndarray:
        return np.array([(w >> 11) * 2.0 ** -53 for w in self.random_raw(count)])


def row_key(seed: int, step: int, i: int) -> int:
    """The key of dropout row i at (seed, step)."""
    digest = hashlib.blake2b(f"dropout:{seed}:{step}:{i}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


class TestSeeding:
    def test_reference_gives_the_published_outputs(self):
        # the first outputs of splitmix64.c seeded with 1234567
        assert SplitMix64(1234567).random_raw(5) == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]

    def test_raw_words_and_unit_floats_equal_the_generator(self):
        keys = [1234567, 2 ** 64 - 1]
        raw = streams.words(keys, 7)
        floats = streams.unit_floats(keys, 7)
        for i, key in enumerate(keys):
            assert raw[i].tolist() == SplitMix64(key).random_raw(7)
            assert floats[i].tobytes() == SplitMix64(key).random(7).tobytes()

    def test_empty_draws(self):
        assert streams.words([], 5).shape == (0, 5)
        assert streams.unit_floats([3, 4], 0).shape == (2, 0)
        assert streams.uniform_rows((0, 0), 0, 4).shape == (0, 4)


class TestReader:
    """`words` against the reference's `random_raw(count)`."""

    @pytest.mark.parametrize("count", [1, 2, 3, 64, PAPER_IMAGE, PAPER_WIDTH])
    def test_counts_equal_random_raw(self, count):
        keys = [count, 2 ** 64 - 1, 5]
        raw = streams.words(keys, count)
        assert raw.shape == (3, count)
        for i, key in enumerate(keys):
            assert raw[i].tolist() == SplitMix64(key).random_raw(count), i

    @pytest.mark.parametrize("before", [streams._CHUNK - 5, streams._CHUNK,
                                        2 * streams._CHUNK - 1])
    def test_total_straddling_a_chunk_boundary(self, before):
        # one word per key: the keys past `before` span the next block
        keys = np.arange(before + 13, dtype=np.uint64) * np.uint64(0x1234_5678_9ABC_DEF1)
        raw = streams.words(keys, 1)
        assert raw[:, 0].tolist() == [SplitMix64(k).random_raw(1)[0] for k in keys.tolist()]

    def test_no_warning_and_uint64_words(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            raw = streams.words([2 ** 64 - 1, 0], 40)
            floats = streams.unit_floats([2 ** 64 - 1, 0], 40)
            rows = streams.uniform_rows((2 ** 64 + 5, 2 ** 32 - 1), 3, 40)
        assert raw.dtype == np.uint64
        assert floats.dtype == rows.dtype == np.float64
        assert np.all((floats >= 0) & (floats < 1)) and np.all((rows >= 0) & (rows < 1))


class TestUniformRows:
    """Row i is the stream keyed by (seed, step, i), read layer by layer as
    each hidden head layer reads its dropout mask."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
    @pytest.mark.parametrize("step", [0, 2 ** 32 - 1])
    @pytest.mark.parametrize("rows", [1, 20, 64])
    @pytest.mark.parametrize("head", ["desk", "paper"])
    def test_equal_to_per_post_generators(self, seed, step, rows, head):
        hidden = (DESK_HEAD if head == "desk" else PAPER_HEAD_SIZES)[:-1]
        got = streams.uniform_rows((seed, step), rows, sum(hidden))
        assert got.shape == (rows, sum(hidden)) and got.dtype == np.float64
        for i in range(rows):
            # each layer's first columns and its last, from post i's own
            # generator jumped to them
            start = 0
            for width in hidden:
                head_cols = min(width, 8)
                want = SplitMix64(row_key(seed, step, i), start).random(head_cols)
                assert got[i, start:start + head_cols].tobytes() == want.tobytes()
                last = SplitMix64(row_key(seed, step, i), start + width - 1).random(1)
                assert got[i, start + width - 1] == last[0], (seed, step, i)
                start += width

    def test_tiny_head(self):
        cfg = tiny_config()
        width = sum(cfg.head_sizes[:-1])
        got = streams.uniform_rows((5, 3), 4, width)
        want = [SplitMix64(row_key(5, 3, i)).random(width) for i in range(4)]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("width", [1, sum(DESK_HEAD[:-1]), PAPER_WIDTH])
    def test_first_rows_do_not_depend_on_the_batch(self, width):
        whole = streams.uniform_rows((7, 11), 20, width)
        for k in (1, 5, 19):
            assert streams.uniform_rows((7, 11), k, width).tobytes() == whole[:k].tobytes()
        assert streams.uniform_rows((7, 12), 1, width).tobytes() != whole[:1].tobytes()

    def test_paper_scale_memory_is_bounded(self):
        # a paper-scale training step's draws: the words are made and
        # converted in place a block at a time, so the peak stays near the
        # output itself
        out_bytes = 64 * PAPER_WIDTH * 8
        tracemalloc.start()
        try:
            got = streams.uniform_rows((0, 0), 64, PAPER_WIDTH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.nbytes == out_bytes
        assert peak <= 2 * out_bytes + 2 * 2 ** 20, peak
