import json

import pytest

from conftest import make_post
from postpop.corpora import make_sample_corpus
from postpop.data import (CorpusError, Dataset, FaceAnnotation, PostMetadata,
                          load_dataset, save_dataset, split_dataset)


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(post_id="p0", **over):
    rec = {
        "post_id": post_id, "user_id": "u0", "caption": "hello world",
        "hashtags": ["sun", "beach"], "image_ref": "img0", "faces": [],
        "metadata": {"avg_views": 10.0, "group_count": 1, "avg_member_count": 4.0,
                     "tag_count": 2, "title_length": 2, "description_length": 0,
                     "tagged_people": 0, "comment_count": 3, "post_day": 2,
                     "post_month": 5, "post_hour": 14, "post_duration_days": 30.0},
        "popularity": 1.5,
    }
    rec.update(over)
    return rec


NUMERIC_METADATA = ("avg_views", "group_count", "avg_member_count", "tag_count",
                    "title_length", "description_length", "tagged_people",
                    "comment_count", "post_day", "post_month", "post_hour",
                    "post_duration_days")


class TestLoad:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", NUMERIC_METADATA)
    def test_non_finite_metadata_skipped(self, tmp_path, name, value):
        path = tmp_path / "c.jsonl"
        bad = record("p1")
        bad["metadata"][name] = value
        write_lines(path, [record("p0"), bad, record("p2")])
        ds, skipped = load_dataset(path)
        assert skipped == 1
        assert [p.post_id for p in ds] == ["p0", "p2"]

    @pytest.mark.parametrize("name", NUMERIC_METADATA + ("popularity",))
    def test_huge_integer_skipped(self, tmp_path, name):
        # 10**400 is finite as a Python int but overflows a float
        path = tmp_path / "c.jsonl"
        bad = record("p1")
        (bad if name == "popularity" else bad["metadata"])[name] = 10 ** 400
        write_lines(path, [record("p0"), bad, record("p2")])
        ds, skipped = load_dataset(path)
        assert skipped == 1
        assert [p.post_id for p in ds] == ["p0", "p2"]

    def test_infinite_face_age_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        face = {"gender": "female", "age": float("inf"), "emotion": "neutral",
                "race": "asian"}
        write_lines(path, [record("p0"), record("p1", faces=[face])])
        ds, skipped = load_dataset(path)
        assert skipped == 1
        assert [p.post_id for p in ds] == ["p0"]

    def test_three_wellformed_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [record(f"p{i}") for i in range(3)])
        ds, skipped = load_dataset(path)
        assert len(ds) == 3 and skipped == 0
        assert [p.post_id for p in ds] == ["p0", "p1", "p2"]

    def test_missing_popularity_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = record("p2")
        del bad["popularity"]
        write_lines(path, [record("p0"), record("p1"), bad])
        ds, skipped = load_dataset(path)
        assert len(ds) == 2 and skipped == 1

    def test_duplicate_post_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [record("p0"), record("p0")])
        with pytest.raises(CorpusError, match="duplicate"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_dataset(tmp_path / "nope.jsonl")

    def test_all_lines_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n{}\n")
        with pytest.raises(CorpusError, match="no valid records"):
            load_dataset(path)

    def test_hashtag_normalization(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [record("p0", hashtags=["#Sun", "BEACH"])])
        ds, _ = load_dataset(path)
        assert ds.posts[0].hashtags == ("sun", "beach")

    def test_whitespace_hashtag_is_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = record("p1", hashtags=["two words", "x"])
        bad["metadata"]["tag_count"] = 2
        write_lines(path, [record("p0"), bad])
        ds, skipped = load_dataset(path)
        assert len(ds) == 1 and skipped == 1

    def test_rejected_hashtags_are_exactly_the_whitespace_ones(self):
        # a tag is rejected when it is empty or holds a character that
        # str.isspace accepts, alone, leading, trailing or inside a word,
        # and a tag of any other code points is accepted
        space = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]
        bad = [""] + [t for c in space for t in (c, c + "a", "a" + c, "a" + c + "b")]
        for tag in bad:
            with pytest.raises(ValueError, match="empty or contains whitespace"):
                make_post(hashtags=[tag]).validate()
        others = "".join(chr(cp) for cp in range(0x110000) if not chr(cp).isspace())
        make_post(hashtags=[others[i:i + 4096]
                            for i in range(0, len(others), 4096)]).validate()

    def test_tag_count_mismatch_is_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = record("p1")
        bad["metadata"]["tag_count"] = 7
        write_lines(path, [record("p0"), bad])
        ds, skipped = load_dataset(path)
        assert len(ds) == 1 and skipped == 1

    def test_age_out_of_range_is_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = record("p1", faces=[{"gender": "male", "age": 130,
                                   "emotion": "neutral", "race": "white"}])
        write_lines(path, [record("p0"), bad])
        ds, skipped = load_dataset(path)
        assert len(ds) == 1 and skipped == 1

    def test_nonfinite_popularity_is_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [record("p0"), record("p1", popularity=float("nan"))])
        ds, skipped = load_dataset(path)
        assert len(ds) == 1 and skipped == 1


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        ds = make_sample_corpus(n=25, seed=11)
        path = tmp_path / "out.jsonl"
        save_dataset(ds, path)
        back, skipped = load_dataset(path, name=ds.name)
        assert skipped == 0
        assert back == ds  # frozen dataclasses compare field-by-field


class TestSplit:
    def test_paper_fractions(self):
        ds = Dataset(tuple(make_post(post_id=f"p{i}") for i in range(10)))
        tr, va, te = split_dataset(ds, (0.8, 0.1, 0.1), seed=7)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_same_seed_identical(self):
        ds = Dataset(tuple(make_post(post_id=f"p{i}") for i in range(10)))
        a = split_dataset(ds, (0.8, 0.1, 0.1), seed=7)
        b = split_dataset(ds, (0.8, 0.1, 0.1), seed=7)
        for x, y in zip(a, b):
            assert [p.post_id for p in x] == [p.post_id for p in y]

    def test_three_posts_one_each(self):
        ds = Dataset(tuple(make_post(post_id=f"p{i}") for i in range(3)))
        tr, va, te = split_dataset(ds, (0.34, 0.33, 0.33), seed=0)
        assert (len(tr), len(va), len(te)) == (1, 1, 1)

    def test_partition_properties(self):
        for seed in range(5):
            ds = Dataset(tuple(make_post(post_id=f"p{i}") for i in range(23)))
            tr, va, te = split_dataset(ds, (0.6, 0.2, 0.2), seed=seed)
            ids = [p.post_id for part in (tr, va, te) for p in part]
            assert len(ids) == 23 and len(set(ids)) == 23

    def test_input_order_irrelevant(self, rng):
        posts = tuple(make_post(post_id=f"p{i}") for i in range(12))
        shuffled = tuple(posts[i] for i in rng.permutation(12))
        a = split_dataset(Dataset(posts), seed=3)
        b = split_dataset(Dataset(shuffled), seed=3)
        for x, y in zip(a, b):
            assert [p.post_id for p in x] == [p.post_id for p in y]

    def test_bad_fractions(self):
        ds = Dataset(tuple(make_post(post_id=f"p{i}") for i in range(4)))
        with pytest.raises(ValueError):
            split_dataset(ds, (0.9, 0.1, 0.0), seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, (0.5, 0.3, 0.3), seed=0)


class TestValidation:
    def test_metadata_ranges(self):
        with pytest.raises(ValueError):
            PostMetadata(post_day=7).validate()
        with pytest.raises(ValueError):
            PostMetadata(post_month=12).validate()
        with pytest.raises(ValueError):
            PostMetadata(avg_views=-1).validate()

    def test_face_enums(self):
        with pytest.raises(ValueError):
            FaceAnnotation("male", 20, "joyful", "white").validate()
        FaceAnnotation("female", 30, "happiness", "asian").validate()
