import copy
import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import make_post
from postpop.corpora import make_sample_corpus
from postpop.data import (EMOTIONS, GENDERS, RACES, CorpusError, Dataset, FaceAnnotation,
                          Post, PostMetadata, _slot_init, load_dataset, save_dataset,
                          split_dataset)

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
# an int: a bool, a float (even 2.0) or a string is malformed. A float field,
# the popularity included, must not hold a bool. The metadata must be a
# JSON object. `load_dataset` must load the same posts and skip the same lines.

INTEGER_METADATA = ("group_count", "tag_count", "title_length", "description_length",
                    "tagged_people", "comment_count", "post_day", "post_month",
                    "post_hour")
FLOAT_METADATA = ("avg_views", "avg_member_count", "post_duration_days")


def reference_metadata_validate(m):
    for name in FLOAT_METADATA:
        if isinstance(getattr(m, name), bool):
            raise ValueError(f"{name} must be a number")
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


def reference_face_validate(face):
    if face.gender not in GENDERS:
        raise ValueError("unknown gender")
    if type(face.age) is not int:
        raise ValueError("age must be an integer")
    if not 0 <= face.age <= 100:
        raise ValueError("age outside [0, 100]")
    if face.emotion not in EMOTIONS:
        raise ValueError("unknown emotion")
    if face.race not in RACES:
        raise ValueError("unknown race")


def reference_post_validate(post):
    for tag in post.hashtags:
        if tag.split() != [tag]:
            raise ValueError(f"hashtag {tag!r} is empty or contains whitespace")
    if not math.isfinite(post.popularity):
        raise ValueError("popularity must be finite")
    if post.metadata.tag_count != len(post.hashtags):
        raise ValueError("tag_count mismatch")
    for face in post.faces:
        reference_face_validate(face)
    reference_metadata_validate(post.metadata)


def reference_post_from_record(rec):
    faces = tuple(
        FaceAnnotation(gender=f["gender"], age=f["age"],
                       emotion=f["emotion"], race=f["race"])
        for f in rec.get("faces", []))
    if not isinstance(rec["metadata"], dict):
        raise ValueError("metadata must be a JSON object")
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
    # a JSON number: neither a bool nor a string that float() would parse
    if isinstance(rec["popularity"], (bool, str)):
        raise ValueError("popularity must be a number")
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

    def test_rejected_hashtags_are_exactly_the_whitespace_ones(self, tmp_path):
        # a tag is rejected when it is empty or holds a character that
        # str.isspace accepts, alone, leading, trailing or inside a word,
        # and a tag of any other code points is accepted; the low surrogates
        # come before the high ones, as json reads an escaped high surrogate
        # followed by a low one as a single character
        space = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]
        bad = [""] + [t for c in space for t in (c, c + "a", "a" + c, "a" + c + "b")]
        order = [*range(0xD800), *range(0xE000, 0x110000), *range(0xDC00, 0xE000),
                 *range(0xD800, 0xDC00)]
        others = "".join(chr(cp) for cp in order if not chr(cp).isspace())
        good = [others[i:i + 4096] for i in range(0, len(others), 4096)]
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(
            [malformed(post_id="good", hashtags=good, **{"metadata.tag_count": len(good)})]
            + [malformed(post_id=f"bad{i}", hashtags=[tag], **{"metadata.tag_count": 1})
               for i, tag in enumerate(bad)]) + "\n", encoding="utf-8")
        problems = []
        ds, _ = load_dataset(path, problems=problems)
        assert problems == [(i, f"hashtag {tag!r} is empty or contains whitespace")
                            for i, tag in enumerate(bad, 2)]
        assert ds.posts[0].hashtags == tuple(tag.lower() for tag in good)

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
HUGE = 10 ** 400  # finite as a Python int, but too large for a float

# Every malformed line of TestLoad, and more records near the rules' edges.
MALFORMED_LINES = {
    **{f"{name}={value!r}": malformed(**{f"metadata.{name}": value})
       for name in NUMERIC_METADATA for value in (math.nan, math.inf, -math.inf, HUGE)},
    "popularity=10**400": malformed(popularity=HUGE),
    "popularity=nan": malformed(popularity=math.nan),
    "no popularity": malformed(popularity=...),
    "face age inf": malformed(faces=[{**FACE, "age": math.inf}]),
    "face age 130": malformed(faces=[{**FACE, "age": 130}]),
    "face age 99.7": malformed(faces=[{**FACE, "age": 99.7}]),
    "face age '7'": malformed(faces=[{**FACE, "age": "7"}]),
    "face emotion joyful": malformed(faces=[{**FACE, "emotion": "joyful"}]),
    "face gender robot": malformed(faces=[{**FACE, "gender": "robot"}]),
    "face race martian": malformed(faces=[{**FACE, "race": "martian"}]),
    "face a list": malformed(faces=[list(FACE.values())]),
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
    **{f"{name} {value!r}": malformed(**{f"metadata.{name}": value})
       for name in FLOAT_METADATA for value in (True, False)},
    "popularity true": malformed(popularity=True),
    "popularity false": malformed(popularity=False),
    "popularity '1.5'": malformed(popularity="1.5"),
    "popularity ' 2e0 '": malformed(popularity=" 2e0 "),
    "popularity 'nan'": malformed(popularity="nan"),
    "face age 30.0": malformed(faces=[{**FACE, "age": 30.0}]),
    "face age true": malformed(faces=[{**FACE, "age": True}]),
    "face age false": malformed(faces=[{**FACE, "age": False}]),
    "avg_views '3'": malformed(**{"metadata.avg_views": "3"}),
    "avg_views null": malformed(**{"metadata.avg_views": None}),
    "unknown metadata key": malformed(**{"metadata.likes": 3}),
    "no metadata": malformed(metadata=...),
    "metadata a list": malformed(metadata=[]),
    "no caption": malformed(caption=...),
    "post_id 12": malformed(post_id=12),
    "not json": "not json",
    "empty object": "{}",
    "two objects": json.dumps(record("bad")) + " {}",
    "non-JSON whitespace around": "\x0c" + json.dumps(record("bad")) + "\u3000",
}


# The reason `load_dataset` reports for each MALFORMED_LINES case, or None
# where the line loads. Recorded before the loader was rewritten as one
# check-then-build pass, and required byte for byte since; the faces and
# metadata shape reasons were re-recorded when the loader put them in its own
# words. Some reasons are still CPython's own text (an unknown metadata key,
# hashtags that are not a list, a huge popularity) and are pinned as CPython
# 3.11 prints them, the oldest version the package supports and the one CI
# runs.
MALFORMED_REASONS = {
    "avg_member_count False": "avg_member_count must be a number, not False",
    "avg_member_count True": "avg_member_count must be a number, not True",
    "avg_member_count=-inf": "avg_member_count must be finite and >= 0",
    "avg_member_count=inf": "avg_member_count must be finite and >= 0",
    "avg_member_count=nan": "avg_member_count must be finite and >= 0",
    f"avg_member_count={HUGE}": "avg_member_count must be finite and >= 0",
    "avg_views '3'": "avg_views must be finite and >= 0",
    "avg_views False": "avg_views must be a number, not False",
    "avg_views True": "avg_views must be a number, not True",
    "avg_views null": "avg_views must be finite and >= 0",
    "avg_views=-inf": "avg_views must be finite and >= 0",
    "avg_views=inf": "avg_views must be finite and >= 0",
    "avg_views=nan": "avg_views must be finite and >= 0",
    f"avg_views={HUGE}": "avg_views must be finite and >= 0",
    "comment_count 1.0": "comment_count must be an integer, not 1.0",
    "comment_count 1.5": "comment_count must be an integer, not 1.5",
    "comment_count False": "comment_count must be an integer, not False",
    "comment_count True": "comment_count must be an integer, not True",
    "comment_count=-inf": "comment_count must be finite and >= 0",
    "comment_count=inf": "comment_count must be finite and >= 0",
    "comment_count=nan": "comment_count must be finite and >= 0",
    f"comment_count={HUGE}": "comment_count must be finite and >= 0",
    "description_length 1.0": "description_length must be an integer, not 1.0",
    "description_length 1.5": "description_length must be an integer, not 1.5",
    "description_length False": "description_length must be an integer, not False",
    "description_length True": "description_length must be an integer, not True",
    "description_length=-inf": "description_length must be finite and >= 0",
    "description_length=inf": "description_length must be finite and >= 0",
    "description_length=nan": "description_length must be finite and >= 0",
    f"description_length={HUGE}": "description_length must be finite and >= 0",
    "empty object": "missing field 'metadata'",
    "face a list": "faces: must be a list of objects",
    "face age '7'": "faces: age must be an integer, not '7'",
    "face age 130": "faces: age 130 outside [0, 100]",
    "face age 30.0": "faces: age must be an integer, not 30.0",
    "face age 99.7": "faces: age must be an integer, not 99.7",
    "face age false": "faces: age must be an integer, not False",
    "face age inf": "faces: age must be an integer, not inf",
    "face age true": "faces: age must be an integer, not True",
    "face emotion joyful": "faces: unknown emotion 'joyful'",
    "face gender robot": "faces: unknown gender 'robot'",
    "face race martian": "faces: unknown race 'martian'",
    "face without race": "missing field 'race'",
    "faces a string": "faces: must be a list of objects",
    "faces null": "faces: must be a list of objects",
    "group_count 1.0": "group_count must be an integer, not 1.0",
    "group_count 1.5": "group_count must be an integer, not 1.5",
    "group_count False": "group_count must be an integer, not False",
    "group_count True": "group_count must be an integer, not True",
    "group_count=-inf": "group_count must be finite and >= 0",
    "group_count=inf": "group_count must be finite and >= 0",
    "group_count=nan": "group_count must be finite and >= 0",
    f"group_count={HUGE}": "group_count must be finite and >= 0",
    "hashtags 'ab'": None,
    "hashtags 5": "hashtags: 'int' object is not iterable",
    "hashtags ['#', 'x']": "hashtag '' is empty or contains whitespace",
    "hashtags ['#Sun', 'BEACH']": None,
    "hashtags ['a\u3000b', 'x']": "hashtag 'a\\u3000b' is empty or contains whitespace",
    "hashtags ['two words', 'x']": "hashtag 'two words' is empty or contains whitespace",
    "hashtags ['x', '']": "hashtag '' is empty or contains whitespace",
    "hashtags [7, null]": None,
    "metadata a list": "metadata: must be an object, not list",
    "no caption": "missing field 'caption'",
    "no metadata": "missing field 'metadata'",
    "no popularity": "missing field 'popularity'",
    "non-JSON whitespace around": None,
    "not json": "not valid JSON: Expecting value at column 1",
    "popularity ' 2e0 '": "popularity: must be a number, not ' 2e0 '",
    "popularity '1.5'": "popularity: must be a number, not '1.5'",
    "popularity 'nan'": "popularity: must be a number, not 'nan'",
    "popularity false": "popularity: must be a number, not False",
    "popularity true": "popularity: must be a number, not True",
    "popularity=10**400": "popularity: int too large to convert to float",
    "popularity=nan": "popularity must be finite",
    "post_day 1.0": "post_day must be an integer, not 1.0",
    "post_day 1.5": "post_day must be an integer, not 1.5",
    "post_day 2.5": "post_day must be an integer, not 2.5",
    "post_day 7": "post_day outside 0..6",
    "post_day False": "post_day must be an integer, not False",
    "post_day True": "post_day must be an integer, not True",
    "post_day=-inf": "post_day outside 0..6",
    "post_day=inf": "post_day outside 0..6",
    "post_day=nan": "post_day outside 0..6",
    f"post_day={HUGE}": "post_day outside 0..6",
    "post_duration_days False": "post_duration_days must be a number, not False",
    "post_duration_days True": "post_duration_days must be a number, not True",
    "post_duration_days=-inf": "post_duration_days must be finite and >= 0",
    "post_duration_days=inf": "post_duration_days must be finite and >= 0",
    "post_duration_days=nan": "post_duration_days must be finite and >= 0",
    f"post_duration_days={HUGE}": "post_duration_days must be finite and >= 0",
    "post_hour '3'": "post_hour outside 0..23",
    "post_hour 1.0": "post_hour must be an integer, not 1.0",
    "post_hour 1.5": "post_hour must be an integer, not 1.5",
    "post_hour False": "post_hour must be an integer, not False",
    "post_hour True": "post_hour must be an integer, not True",
    "post_hour=-inf": "post_hour outside 0..23",
    "post_hour=inf": "post_hour outside 0..23",
    "post_hour=nan": "post_hour outside 0..23",
    f"post_hour={HUGE}": "post_hour outside 0..23",
    "post_id 12": None,
    "post_month 1.0": "post_month must be an integer, not 1.0",
    "post_month 1.5": "post_month must be an integer, not 1.5",
    "post_month 12": "post_month outside 0..11",
    "post_month False": "post_month must be an integer, not False",
    "post_month True": "post_month must be an integer, not True",
    "post_month=-inf": "post_month outside 0..11",
    "post_month=inf": "post_month outside 0..11",
    "post_month=nan": "post_month outside 0..11",
    f"post_month={HUGE}": "post_month outside 0..11",
    "tag_count 1.0": "tag_count 1.0 != 2 hashtags",
    "tag_count 1.5": "tag_count 1.5 != 2 hashtags",
    "tag_count 2.0": "tag_count must be an integer, not 2.0",
    "tag_count 7": "tag_count 7 != 2 hashtags",
    "tag_count False": "tag_count False != 2 hashtags",
    "tag_count True": "tag_count True != 2 hashtags",
    "tag_count true, one tag": "tag_count must be an integer, not True",
    "tag_count=-inf": "tag_count -inf != 2 hashtags",
    "tag_count=inf": "tag_count inf != 2 hashtags",
    "tag_count=nan": "tag_count nan != 2 hashtags",
    f"tag_count={HUGE}": f"tag_count {HUGE} != 2 hashtags",
    "tagged_people 0.5": "tagged_people must be 0 or 1",
    "tagged_people 1.0": "tagged_people must be an integer, not 1.0",
    "tagged_people 1.5": "tagged_people must be 0 or 1",
    "tagged_people False": "tagged_people must be an integer, not False",
    "tagged_people True": "tagged_people must be an integer, not True",
    "tagged_people true": "tagged_people must be an integer, not True",
    "tagged_people=-inf": "tagged_people must be 0 or 1",
    "tagged_people=inf": "tagged_people must be 0 or 1",
    "tagged_people=nan": "tagged_people must be 0 or 1",
    f"tagged_people={HUGE}": "tagged_people must be 0 or 1",
    "title_length 1.0": "title_length must be an integer, not 1.0",
    "title_length 1.5": "title_length must be an integer, not 1.5",
    "title_length False": "title_length must be an integer, not False",
    "title_length True": "title_length must be an integer, not True",
    "title_length=-inf": "title_length must be finite and >= 0",
    "title_length=inf": "title_length must be finite and >= 0",
    "title_length=nan": "title_length must be finite and >= 0",
    f"title_length={HUGE}": "title_length must be finite and >= 0",
    "two objects": "not valid JSON: Extra data at column 398",
    "unknown metadata key": "metadata: PostMetadata.__init__() got an unexpected keyword argument 'likes'",
}

# The reason for each line of test_extreme_value_grid, by (line, value),
# or None where the line loads; recorded and pinned as MALFORMED_REASONS.
EXTREME_REASONS = {
    ("avg_views", "nan"): "avg_views must be finite and >= 0",
    ("group_count", "nan"): "group_count must be finite and >= 0",
    ("avg_member_count", "nan"): "avg_member_count must be finite and >= 0",
    ("tag_count", "nan"): "tag_count nan != 2 hashtags",
    ("title_length", "nan"): "title_length must be finite and >= 0",
    ("description_length", "nan"): "description_length must be finite and >= 0",
    ("tagged_people", "nan"): "tagged_people must be 0 or 1",
    ("comment_count", "nan"): "comment_count must be finite and >= 0",
    ("post_day", "nan"): "post_day outside 0..6",
    ("post_month", "nan"): "post_month outside 0..11",
    ("post_hour", "nan"): "post_hour outside 0..23",
    ("post_duration_days", "nan"): "post_duration_days must be finite and >= 0",
    ("popularity", "nan"): "popularity must be finite",
    ("age", "nan"): "faces: age must be an integer, not nan",
    ("avg_views", "inf"): "avg_views must be finite and >= 0",
    ("group_count", "inf"): "group_count must be finite and >= 0",
    ("avg_member_count", "inf"): "avg_member_count must be finite and >= 0",
    ("tag_count", "inf"): "tag_count inf != 2 hashtags",
    ("title_length", "inf"): "title_length must be finite and >= 0",
    ("description_length", "inf"): "description_length must be finite and >= 0",
    ("tagged_people", "inf"): "tagged_people must be 0 or 1",
    ("comment_count", "inf"): "comment_count must be finite and >= 0",
    ("post_day", "inf"): "post_day outside 0..6",
    ("post_month", "inf"): "post_month outside 0..11",
    ("post_hour", "inf"): "post_hour outside 0..23",
    ("post_duration_days", "inf"): "post_duration_days must be finite and >= 0",
    ("popularity", "inf"): "popularity must be finite",
    ("age", "inf"): "faces: age must be an integer, not inf",
    ("avg_views", "-inf"): "avg_views must be finite and >= 0",
    ("group_count", "-inf"): "group_count must be finite and >= 0",
    ("avg_member_count", "-inf"): "avg_member_count must be finite and >= 0",
    ("tag_count", "-inf"): "tag_count -inf != 2 hashtags",
    ("title_length", "-inf"): "title_length must be finite and >= 0",
    ("description_length", "-inf"): "description_length must be finite and >= 0",
    ("tagged_people", "-inf"): "tagged_people must be 0 or 1",
    ("comment_count", "-inf"): "comment_count must be finite and >= 0",
    ("post_day", "-inf"): "post_day outside 0..6",
    ("post_month", "-inf"): "post_month outside 0..11",
    ("post_hour", "-inf"): "post_hour outside 0..23",
    ("post_duration_days", "-inf"): "post_duration_days must be finite and >= 0",
    ("popularity", "-inf"): "popularity must be finite",
    ("age", "-inf"): "faces: age must be an integer, not -inf",
    ("avg_views", "-1"): "avg_views must be finite and >= 0",
    ("group_count", "-1"): "group_count must be finite and >= 0",
    ("avg_member_count", "-1"): "avg_member_count must be finite and >= 0",
    ("tag_count", "-1"): "tag_count -1 != 2 hashtags",
    ("title_length", "-1"): "title_length must be finite and >= 0",
    ("description_length", "-1"): "description_length must be finite and >= 0",
    ("tagged_people", "-1"): "tagged_people must be 0 or 1",
    ("comment_count", "-1"): "comment_count must be finite and >= 0",
    ("post_day", "-1"): "post_day outside 0..6",
    ("post_month", "-1"): "post_month outside 0..11",
    ("post_hour", "-1"): "post_hour outside 0..23",
    ("post_duration_days", "-1"): "post_duration_days must be finite and >= 0",
    ("popularity", "-1"): None,
    ("age", "-1"): "faces: age -1 outside [0, 100]",
    ("avg_views", "1e+308"): None,
    ("group_count", "1e+308"): "group_count must be an integer, not 1e+308",
    ("avg_member_count", "1e+308"): None,
    ("tag_count", "1e+308"): "tag_count 1e+308 != 2 hashtags",
    ("title_length", "1e+308"): "title_length must be an integer, not 1e+308",
    ("description_length", "1e+308"): "description_length must be an integer, not 1e+308",
    ("tagged_people", "1e+308"): "tagged_people must be 0 or 1",
    ("comment_count", "1e+308"): "comment_count must be an integer, not 1e+308",
    ("post_day", "1e+308"): "post_day outside 0..6",
    ("post_month", "1e+308"): "post_month outside 0..11",
    ("post_hour", "1e+308"): "post_hour outside 0..23",
    ("post_duration_days", "1e+308"): None,
    ("popularity", "1e+308"): None,
    ("age", "1e+308"): "faces: age must be an integer, not 1e+308",
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
        problems = []
        load_dataset(path, problems=problems)
        assert dict(problems).get(2) == MALFORMED_REASONS[case]

    def test_every_case_has_a_pinned_reason(self):
        assert MALFORMED_REASONS.keys() == MALFORMED_LINES.keys()

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
        problems = []
        load_dataset(path, problems=problems)
        reasons = dict(problems)
        names = NUMERIC_METADATA + ("popularity", "age")
        assert ({name: reasons.get(number) for number, name in enumerate(names, 2)}
                == {name: EXTREME_REASONS[name, repr(value)] for name in names})


# Values the fuzz below places in a field, a face or a hashtag; `...` deletes it.
POOL = (True, False, 0, 1, 2, 7, -1, 101, 0.0, -0.0, -0.5, 2.0, 30.5, math.nan, math.inf,
        -math.inf, 1e308, HUGE, "", "x", "3", "male", "two words", "#Tag", None, [],
        [1, "a"], {}, {"gender": "male"}, ...)
SITES = (("post_id",), ("user_id",), ("caption",), ("hashtags",), ("image_ref",),
         ("faces",), ("metadata",), ("popularity",), ("hashtags", 0), ("faces", 0),
         *(("faces", 0, key) for key in FACE), ("metadata", "likes"),
         *(("metadata", name) for name in NUMERIC_METADATA))


def mutation(rng, post_id):
    """One corpus line: `record(post_id)` with one face, and one or two
    of its SITES set to a POOL value each, or deleted."""
    rec = record(post_id, faces=[dict(FACE)])
    for site in rng.sample(SITES, rng.randint(1, 2)):
        value = copy.deepcopy(rng.choice(POOL))
        target = rec
        try:
            for key in site[:-1]:
                target = target[key]
            if value is ...:
                del target[site[-1]]
            else:
                target[site[-1]] = value
        except (KeyError, IndexError, TypeError):  # an earlier site replaced the container
            pass
    return rec


class TestDifferentialFuzz:
    def test_seeded_mutations(self, tmp_path):
        # each mutation is accepted or rejected as the reference decides,
        # into an equal record; a file holds distinct post ids, and starts
        # with one valid line so that it always loads
        rng = random.Random(20261020)
        files, ids = [[json.dumps(record("anchor"))]], set()
        for i in range(2000):
            rec = mutation(rng, f"m{i}")
            post_id = str(rec.get("post_id"))
            if post_id in ids:
                files.append([json.dumps(record("anchor"))])
                ids.clear()
            ids.add(post_id)
            files[-1].append(json.dumps(rec))
        accepted = 0
        for n, lines in enumerate(files):
            path = tmp_path / f"fuzz{n}.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert_loads_like_reference(path)
            accepted += len(reference_load(path)[0]) - 1
        assert 200 < accepted < 1800  # both outcomes are well exercised


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

    def test_bools_in_float_fields_are_named(self, tmp_path):
        # each was once loaded as 1.0, or kept as the bool itself
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join([
            json.dumps(record("p0")),
            malformed(post_id="p1", popularity=True),
            malformed(post_id="p2", **{"metadata.avg_views": True}),
            malformed(post_id="p3", **{"metadata.avg_member_count": False}),
            malformed(post_id="p4", **{"metadata.post_duration_days": False}),
            malformed(post_id="p5", **{"metadata.avg_views": True,
                                       "metadata.post_duration_days": True}),
        ]) + "\n", encoding="utf-8")
        problems = []
        ds, skipped = load_dataset(path, problems=problems)
        assert [p.post_id for p in ds] == ["p0"] and skipped == 5
        assert problems == [(2, "popularity: must be a number, not True"),
                            (3, "avg_views must be a number, not True"),
                            (4, "avg_member_count must be a number, not False"),
                            (5, "post_duration_days must be a number, not False"),
                            (6, "avg_views must be a number, not True")]

    def test_popularity_must_be_a_json_number(self, tmp_path):
        # each string was once loaded through float(): "1.5" as 1.5
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join([
            json.dumps(record("p0")),
            malformed(post_id="p1", popularity="1.5"),
            malformed(post_id="p2", popularity=" 2e0 "),
            malformed(post_id="p3", popularity="nan"),
            malformed(post_id="p4", popularity=None),
            malformed(post_id="p5", popularity=[1.5]),
            malformed(post_id="p6", popularity=2),
        ]) + "\n", encoding="utf-8")
        problems = []
        ds, skipped = load_dataset(path, problems=problems)
        assert [p.post_id for p in ds] == ["p0", "p6"] and skipped == 5
        assert ds.posts[1].popularity == 2.0 and type(ds.posts[1].popularity) is float
        assert problems == [(2, "popularity: must be a number, not '1.5'"),
                            (3, "popularity: must be a number, not ' 2e0 '"),
                            (4, "popularity: must be a number, not 'nan'"),
                            (5, "popularity: must be a number, not None"),
                            (6, "popularity: must be a number, not [1.5]")]

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
        with pytest.raises(ValueError, match=r"fractions must be \(train, val, test\)"):
            split_dataset(ds, (0.5, 0.5), seed=0)


class TestValidation:
    def test_metadata_ranges(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join([
            json.dumps(record("p0")),
            malformed(post_id="p1", **{"metadata.post_day": 7}),
            malformed(post_id="p2", **{"metadata.post_month": 12}),
            malformed(post_id="p3", **{"metadata.avg_views": -1}),
        ]) + "\n", encoding="utf-8")
        problems = []
        load_dataset(path, problems=problems)
        assert problems == [(2, "post_day outside 0..6"), (3, "post_month outside 0..11"),
                            (4, "avg_views must be finite and >= 0")]

    def test_face_enums(self, tmp_path):
        path = tmp_path / "c.jsonl"
        face = {"gender": "female", "age": 30, "emotion": "happiness", "race": "asian"}
        write_lines(path, [record("p0", faces=[face]),
                           record("p1", faces=[{**face, "emotion": "joyful"}])])
        problems = []
        ds, _ = load_dataset(path, problems=problems)
        assert ds.posts[0].faces == (FaceAnnotation("female", 30, "happiness", "asian"),)
        assert problems == [(2, "faces: unknown emotion 'joyful'")]


class TestRecords:
    def test_loaded_records_are_the_constructed_ones(self):
        # the loader fills slotted records through their slot descriptors;
        # each must be the record that keyword construction gives
        with open(SAMPLE_CORPUS, encoding="utf-8") as fh:
            built = [reference_post_from_record(json.loads(line)) for line in fh]
        ds, _ = load_dataset(SAMPLE_CORPUS)
        assert sum(len(p.faces) for p in ds) > 0
        for post, want in zip(ds.posts, built, strict=True):
            assert post == want and repr(post) == repr(want) and hash(post) == hash(want)
            assert dataclasses.asdict(post) == dataclasses.asdict(want)
            assert dataclasses.replace(post) == post
            assert (dataclasses.replace(post, caption="x", metadata=dataclasses.replace(
                post.metadata, post_day=0)) == dataclasses.replace(
                want, caption="x", metadata=dataclasses.replace(want.metadata, post_day=0)))
            for rec, name in ((post, "caption"), (post.metadata, "avg_views"),
                              *((face, "age") for face in post.faces)):
                assert not hasattr(rec, "__dict__")
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(rec, name, 0)

    def test_constructors_keep_the_dataclass_signature(self):
        assert PostMetadata() == PostMetadata(
            **{f.name: f.default for f in dataclasses.fields(PostMetadata)})
        assert PostMetadata(1.5, tag_count=3).tag_count == 3
        with pytest.raises(TypeError, match=r"^PostMetadata\.__init__\(\) got an "
                                            r"unexpected keyword argument 'likes'$"):
            PostMetadata(likes=3)
        with pytest.raises(TypeError, match=r"^FaceAnnotation\.__init__\(\) missing 1 "
                                            r"required positional argument: 'race'$"):
            FaceAnnotation("male", 30, "neutral")

    @pytest.mark.parametrize("spec", [
        {"field": dataclasses.field(default_factory=int)},
        {"field": dataclasses.field(default=0, init=False)},
        {"field": dataclasses.field(default=0, kw_only=True)},
        {"__post_init__": lambda self: None},
    ], ids=["default_factory", "init=False", "kw_only", "__post_init__"])
    def test_slot_init_refuses_what_it_cannot_store(self, spec):
        # the replacement __init__ stores each argument as given, so a field
        # whose value the generated __init__ makes or skips has no place in it
        namespace = {"__annotations__": {"plain": int, "field": int},
                     "field": spec.get("field", 0)}
        if "__post_init__" in spec:
            namespace["__post_init__"] = spec["__post_init__"]
        cls = dataclasses.dataclass(frozen=True, slots=True)(type("Rec", (), namespace))
        with pytest.raises(TypeError, match=r"^_slot_init cannot build Rec\.__init__$"):
            _slot_init(cls)
