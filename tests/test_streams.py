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
from postpop.providers import EmbeddingProvider

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


def keyed(keys) -> bytes:
    """Integer stream keys as `floats` reads them: little-endian 8-byte
    digests, concatenated."""
    return np.asarray(keys, dtype="<u8").tobytes()


def top_bits(values: np.ndarray) -> np.ndarray:
    """The words' top 53 bits that unit floats hold: exact, as u * 2**53 is
    an integer below 2**53."""
    return (values * 2.0 ** 53).astype(np.uint64)


class TestSeeding:
    def test_reference_gives_the_published_outputs(self):
        # the first outputs of splitmix64.c seeded with 1234567
        assert SplitMix64(1234567).random_raw(5) == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821]

    def test_raw_words_and_unit_floats_equal_the_generator(self):
        keys = [1234567, 2 ** 64 - 1, 0]
        floats = streams.floats(keyed(keys), 7)
        signed = streams.floats(keyed(keys), 7, signed=True)
        for i, key in enumerate(keys):
            want = SplitMix64(key).random(7)
            assert top_bits(floats[i]).tolist() == [w >> 11 for w in SplitMix64(key).random_raw(7)]
            assert floats[i].tobytes() == want.tobytes()
            assert signed[i].tobytes() == (2.0 * want - 1.0).tobytes()

    def test_empty_draws(self):
        assert streams.floats(b"", 5).shape == (0, 5)
        assert streams.floats(keyed([3, 4]), 0).shape == (2, 0)
        assert streams.uniform_rows((0, 0), 0, 4).shape == (0, 4)


class TestReader:
    """`floats` against the reference's `random_raw(count)`."""

    @pytest.mark.parametrize("count", [1, 2, 3, 64, PAPER_IMAGE, PAPER_WIDTH])
    def test_counts_equal_random_raw(self, count):
        keys = [count, 2 ** 64 - 1, 5]
        got = streams.floats(keyed(keys), count)
        assert got.shape == (3, count)
        for i, key in enumerate(keys):
            assert top_bits(got[i]).tolist() == [
                w >> 11 for w in SplitMix64(key).random_raw(count)], i

    @pytest.mark.parametrize("before", [streams._CHUNK - 5, streams._CHUNK,
                                        2 * streams._CHUNK - 1])
    def test_total_straddling_a_chunk_boundary(self, before):
        # one word per key: the keys past `before` span the next block
        keys = np.arange(before + 13, dtype=np.uint64) * np.uint64(0x1234_5678_9ABC_DEF1)
        got = streams.floats(keyed(keys), 1)
        assert top_bits(got[:, 0]).tolist() == [
            SplitMix64(k).random_raw(1)[0] >> 11 for k in keys.tolist()]

    @pytest.mark.parametrize("count", [3, 8])
    @pytest.mark.parametrize("signed", [False, True])
    def test_multi_word_rows_across_blocks(self, count, signed):
        # two whole blocks of rows and a few more: with count 3 a block
        # ends 2 words short of `_CHUNK`, so the flat word index of the
        # rows after it crosses each multiple of `_CHUNK` inside a row
        per_block = streams._CHUNK // count
        rows = 2 * per_block + 3
        keys = (np.arange(rows, dtype=np.uint64) * np.uint64(0x9E37_79B9_7F4A_7C15)
                ^ np.uint64(0xDEAD_BEEF))
        got = streams.floats(keyed(keys), count, signed=signed)
        assert got.shape == (rows, count)
        want = np.array([SplitMix64(k).random(count) for k in keys.tolist()])
        if signed:
            want = 2.0 * want - 1.0
        assert got.tobytes() == want.tobytes()

    def test_no_warning_on_wrapping_arithmetic(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            floats = streams.floats(keyed([2 ** 64 - 1, 0]), 40)
            signed = streams.floats(keyed([2 ** 64 - 1, 0]), 40, signed=True)
            rows = streams.uniform_rows((2 ** 64 + 5, 2 ** 32 - 1), 3, 40)
        assert floats.dtype == signed.dtype == rows.dtype == np.float64
        assert np.all((floats >= 0) & (floats < 1)) and np.all((rows >= 0) & (rows < 1))
        assert np.all((signed >= -1) & (signed < 1))


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


class TestPinnedBits:
    """sha256 digests of the stub's and the dropout masks' outputs, recorded
    before the draw kernel was last rewritten: any change to their bits
    fails here."""

    KEYS = ["", "tok", "é", "ünïcödé ☃ 🙂", "img0:3", "#sunset"]

    @staticmethod
    def sha(*arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            h.update(a.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("dim, want", [
        (1, "becd54bfe53d5bcc7412a13261dc394fa30627f37f93c21703c322df77404269"),
        (8, "600bccfe5d3ccc104c919f0d48312f4285f08ba866a04de0d758d0c2abb4d29f"),
        (16, "930f4d394a83177ffcf1773f776d84093d01e9ef8f776e127a5dd1ff90a04cf2"),
        (PAPER_IMAGE, "24070bb0ce05c1899ac0b75dea31101b66c5498133e9e393fd43a6f6545c76b6"),
    ])
    def test_vector(self, dim, want):
        provider = EmbeddingProvider(seed=7)
        assert self.sha(*(provider.vector(k, dim) for k in self.KEYS)) == want

    def test_tables_on_both_paths(self):
        provider = EmbeddingProvider(seed=3)
        batched = provider.tables({8: self.KEYS + [f"k{i}" for i in range(9)],
                                   1: self.KEYS[:3], 300: self.KEYS[::-1]})
        per_key = provider.tables({16: self.KEYS[:3], 2: self.KEYS[3:]})
        assert {d: self.sha(t) for d, t in batched.items()} == {
            8: "f563b5e3b6683268ee1172d93eedc3dcc45146c4d4330496fa8ab2ff941814c8",
            1: "527ba425789d50be3741479bf4f8a3dd8fa2a2ffff4734f9667b3e7c608ecbb4",
            300: "691b7d53fc014c274176f143a002021ebe5e7391be6ee5b9db438854065c7d57"}
        assert {d: self.sha(t) for d, t in per_key.items()} == {
            16: "c7c629f68333adf897355d8c656225581e653aa9f73bdc733855bb918cef65cd",
            2: "ceee39eb7fbcb63df7a31c55edbea39b7c43a945e7fcbd619b8fdd2a7f3e4244"}

    def test_uniform_rows(self):
        assert sum(DESK_HEAD[:-1]) == 24 and PAPER_WIDTH == 27092
        assert self.sha(streams.uniform_rows((1, 0), 64, sum(DESK_HEAD[:-1]))) == (
            "1f448af3c9030685a30cacfe4dfca8f269cafe4079c599b7aadacda34d1208e8")
        assert self.sha(streams.uniform_rows((2 ** 32, 7), 3, PAPER_WIDTH)) == (
            "7e4c54a0bb1cdff567cd97c08ed9d67ab0965bb40d57261b0bee3e34a81e215f")
