import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import make_post
from postpop.corpora import make_sample_corpus
from postpop.data import (CorpusError, Dataset, FaceAnnotation, Post, PostMetadata,
                          load_dataset, save_dataset, split_dataset)

SAMPLE_CORPUS = Path(__file__).parents[1] / "data" / "sample_corpus.jsonl"


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


# Reference decoder and validators, written plainly: one `getattr` per
# checked field, a tag-by-tag whitespace check, a copied metadata dict and
# keyword construction. An integer field, a face's age included, must hold
# an int: a bool, a float (even 2.0) or a string is malformed.
# `load_dataset` must load the same posts and skip the same lines.

INTEGER_METADATA = ("group_count", "tag_count", "title_length", "description_length",
                    "tagged_people", "comment_count", "post_day", "post_month",
                    "post_hour")


def reference_metadata_validate(m):
    for name in ("avg_views", "group_count", "avg_member_count", "tag_count",
                 "title_length", "description_length", "comment_count",
                 "post_duration_days"):
        value = getattr(m, name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0")
    if m.tagged_people not in (0, 1):
        raise ValueError("tagged_people must be 0 or 1")
    if not 0 <= m.post_day <= 6:
        raise ValueError("post_day outside 0..6")
    if not 0 <= m.post_month <= 11:
        raise ValueError("post_month outside 0..11")
    if not 0 <= m.post_hour <= 23:
        raise ValueError("post_hour outside 0..23")
    for name in INTEGER_METADATA:
        if type(getattr(m, name)) is not int:
            raise ValueError(f"{name} must be an integer")


def reference_post_validate(post):
    for tag in post.hashtags:
        if tag.split() != [tag]:
            raise ValueError(f"hashtag {tag!r} is empty or contains whitespace")
    if not math.isfinite(post.popularity):
        raise ValueError("popularity must be finite")
    if post.metadata.tag_count != len(post.hashtags):
        raise ValueError("tag_count mismatch")
    for face in post.faces:
        if type(face.age) is not int:
            raise ValueError("age must be an integer")
        face.validate()
    reference_metadata_validate(post.metadata)


def reference_post_from_record(rec):
    faces = tuple(
        FaceAnnotation(gender=f["gender"], age=f["age"],
                       emotion=f["emotion"], race=f["race"])
        for f in rec.get("faces", []))
    meta = PostMetadata(**{k: rec["metadata"][k] for k in rec["metadata"]})
    post = Post(
        post_id=str(rec["post_id"]),
        user_id=str(rec["user_id"]),
        caption=str(rec["caption"]),
        hashtags=tuple(str(tag).lstrip("#").lower() for tag in rec["hashtags"]),
        image_ref=str(rec["image_ref"]),
        faces=faces,
        metadata=meta,
        popularity=float(rec["popularity"]),
    )
    reference_post_validate(post)
    return post


def reference_load(path):
    """(posts, skipped) of a corpus by the reference decoder."""
    posts, skipped = [], 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                posts.append(reference_post_from_record(json.loads(line)))
            except (ValueError, KeyError, TypeError, OverflowError):
                skipped += 1
    return tuple(posts), skipped


def assert_loads_like_reference(path):
    want_posts, want_skipped = reference_load(path)
    if not want_posts:
        with pytest.raises(CorpusError, match="no valid records"):
            load_dataset(path)
        return
    ds, skipped = load_dataset(path)
    assert skipped == want_skipped
    assert ds.posts == want_posts
    # equal floats could still differ in type or in the sign of a zero
    assert [repr(p) for p in ds.posts] == [repr(p) for p in want_posts]


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


def graph_corpus(n=300, vocabulary=400, tags_per_post=5, seed=1):
    """A sample corpus whose posts carry random tags from a large vocabulary,
    as the benchmark's graph workload builds it."""
    rng = np.random.default_rng([seed, 1])
    posts = []
    for post in make_sample_corpus(n=n, seed=seed).posts:
        ids = rng.choice(vocabulary, size=tags_per_post, replace=False)
        tags = tuple(f"tag{int(i):05d}" for i in ids)
        posts.append(dataclasses.replace(
            post, hashtags=tags,
            metadata=dataclasses.replace(post.metadata, tag_count=len(tags))))
    return Dataset(tuple(posts), name="graph")


def malformed(**change):
    """`record("bad")` with `change` applied: a key maps to a new value, or to
    `...` to delete it; a "metadata.<field>" key changes one metadata field."""
    rec = record("bad")
    for key, value in change.items():
        target, key = ((rec["metadata"], key.split(".", 1)[1]) if key.startswith("metadata.")
                       else (rec, key))
        if value is ...:
            del target[key]
        else:
            target[key] = value
    return json.dumps(rec)


FACE = {"gender": "female", "age": 30, "emotion": "neutral", "race": "asian"}

# Every malformed line of TestLoad, and more records near the rules' edges.
MALFORMED_LINES = {
    **{f"{name}={value!r}": malformed(**{f"metadata.{name}": value})
       for name in NUMERIC_METADATA for value in (math.nan, math.inf, -math.inf, 10 ** 400)},
    "popularity=10**400": malformed(popularity=10 ** 400),
    "popularity=nan": malformed(popularity=math.nan),
    "no popularity": malformed(popularity=...),
    "face age inf": malformed(faces=[{**FACE, "age": math.inf}]),
    "face age 130": malformed(faces=[{**FACE, "age": 130}]),
    "face age 99.7": malformed(faces=[{**FACE, "age": 99.7}]),
    "face age '7'": malformed(faces=[{**FACE, "age": "7"}]),
    "face emotion joyful": malformed(faces=[{**FACE, "emotion": "joyful"}]),
    "face without race": malformed(faces=[{k: v for k, v in FACE.items() if k != "race"}]),
    "faces a string": malformed(faces="x"),
    "faces null": malformed(faces=None),
    "hashtags ['two words', 'x']": malformed(hashtags=["two words", "x"]),
    "hashtags ['x', '']": malformed(hashtags=["x", ""]),
    "hashtags ['#', 'x']": malformed(hashtags=["#", "x"]),
    "hashtags ['a\u3000b', 'x']": malformed(hashtags=["a\u3000b", "x"]),
    "hashtags ['#Sun', 'BEACH']": malformed(hashtags=["#Sun", "BEACH"]),
    "hashtags [7, null]": malformed(hashtags=[7, None]),
    "hashtags 'ab'": malformed(hashtags="ab"),
    "hashtags 5": malformed(hashtags=5),
    "tag_count 7": malformed(**{"metadata.tag_count": 7}),
    "tag_count 2.0": malformed(**{"metadata.tag_count": 2.0}),
    "post_day 7": malformed(**{"metadata.post_day": 7}),
    "post_day 2.5": malformed(**{"metadata.post_day": 2.5}),
    "post_month 12": malformed(**{"metadata.post_month": 12}),
    "post_hour '3'": malformed(**{"metadata.post_hour": "3"}),
    "tagged_people 0.5": malformed(**{"metadata.tagged_people": 0.5}),
    "tagged_people true": malformed(**{"metadata.tagged_people": True}),
    **{f"{name} {value!r}": malformed(**{f"metadata.{name}": value})
       for name in INTEGER_METADATA for value in (True, False, 1.0, 1.5)},
    "tag_count true, one tag": malformed(hashtags=["x"], **{"metadata.tag_count": True}),
    "face age 30.0": malformed(faces=[{**FACE, "age": 30.0}]),
    "face age true": malformed(faces=[{**FACE, "age": True}]),
    "face age false": malformed(faces=[{**FACE, "age": False}]),
    "avg_views '3'": malformed(**{"metadata.avg_views": "3"}),
    "avg_views null": malformed(**{"metadata.avg_views": None}),
    "unknown metadata key": malformed(**{"metadata.likes": 3}),
    "no metadata": malformed(metadata=...),
    "no caption": malformed(caption=...),
    "post_id 12": malformed(post_id=12),
    "not json": "not json",
    "empty object": "{}",
    "two objects": json.dumps(record("bad")) + " {}",
    "non-JSON whitespace around": "\x0c" + json.dumps(record("bad")) + "\u3000",
}


class TestAgainstReference:
    def test_sample_corpus(self):
        assert_loads_like_reference(SAMPLE_CORPUS)

    def test_graph_corpus(self, tmp_path):
        path = tmp_path / "graph.jsonl"
        save_dataset(graph_corpus(), path)
        assert_loads_like_reference(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
    def test_malformed_line(self, tmp_path, case):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join([json.dumps(record("p0")), MALFORMED_LINES[case],
                                    "", json.dumps(record("p2"))]) + "\n",
                        encoding="utf-8")
        assert_loads_like_reference(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1, 1e308])
    def test_extreme_value_grid(self, tmp_path, value):
        # each numeric metadata field, the popularity and a face age in turn
        lines = [json.dumps(record("p0"))]
        for name in NUMERIC_METADATA:
            lines.append(malformed(post_id=name, **{f"metadata.{name}": value}))
        lines.append(malformed(post_id="popularity", popularity=value))
        lines.append(malformed(post_id="age", faces=[{**FACE, "age": value}]))
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_loads_like_reference(path)


class TestSkippedLines:
    def test_line_numbers_and_reasons(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join([
            json.dumps(record("p0")), "", "not json",
            malformed(post_id="p3", **{"metadata.avg_views": math.nan}),
            malformed(post_id="p4", popularity=...),
            malformed(post_id="p5", faces=[{**FACE, "age": math.inf}]),
            malformed(post_id="p6", hashtags=5),
            malformed(post_id="p7", **{"metadata.post_hour": "3"}),
            "[1, 2]",
        ]) + "\n", encoding="utf-8")
        problems = []
        ds, skipped = load_dataset(path, problems=problems)
        assert [p.post_id for p in ds] == ["p0"] and skipped == 7
        assert [n for n, _ in problems] == [3, 4, 5, 6, 7, 8, 9]
        reasons = [r for _, r in problems]
        assert reasons[0].startswith("not valid JSON")
        assert reasons[1] == "avg_views must be finite and >= 0"
        assert reasons[2] == "missing field 'popularity'"
        assert reasons[3].startswith("faces: ")
        assert reasons[4].startswith("hashtags: ")
        assert reasons[5] == "post_hour outside 0..23"
        assert reasons[6] == "a record is a JSON object, not list"

    def test_non_integers_in_integer_fields_are_named(self, tmp_path):
        # each was once loaded and silently rounded, or kept as a float or bool
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join([
            json.dumps(record("p0")),
            malformed(post_id="p1", **{"metadata.post_day": 2.5}),
            malformed(post_id="p2", faces=[{**FACE, "age": 99.7}]),
            malformed(post_id="p3", **{"metadata.tagged_people": True}),
            malformed(post_id="p4", **{"metadata.tag_count": 2.0}),
            malformed(post_id="p5", faces=[{**FACE, "age": 30.0}]),
        ]) + "\n", encoding="utf-8")
        problems = []
        ds, skipped = load_dataset(path, problems=problems)
        assert [p.post_id for p in ds] == ["p0"] and skipped == 5
        assert problems == [(2, "post_day must be an integer, not 2.5"),
                            (3, "faces: age must be an integer, not 99.7"),
                            (4, "tagged_people must be an integer, not True"),
                            (5, "tag_count must be an integer, not 2.0"),
                            (6, "faces: age must be an integer, not 30.0")]

    def test_deeply_nested_line_is_malformed(self, tmp_path):
        # json recurses once per nesting level
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record("p0")) + "\n" + "[" * 100_000 + "\n")
        problems = []
        ds, skipped = load_dataset(path, problems=problems)
        assert len(ds) == 1 and skipped == 1
        assert problems == [(2, "not valid JSON: nested too deeply")]

    def test_non_object_metadata_is_malformed(self, tmp_path):
        # the reference read a list or string as all-default metadata
        path = tmp_path / "c.jsonl"
        write_lines(path, [record("p0"), record("p1", hashtags=[], metadata=[]),
                           record("p2", hashtags=[], metadata="")])
        problems = []
        ds, skipped = load_dataset(path, problems=problems)
        assert [p.post_id for p in ds] == ["p0"] and skipped == 2
        assert all(reason.startswith("metadata: ") for _, reason in problems)


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
