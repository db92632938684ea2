"""Post records, JSON-lines corpus ingestion, and deterministic splitting.

A corpus line is one JSON object per post. `load_dataset` decodes each
line once with `json`, builds its frozen records positionally and
validates them; a malformed line is skipped, counted, and reported with
its line number and a reason that names the failing field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

GENDERS = ("male", "female")
EMOTIONS = ("fear", "sadness", "happiness", "anger", "disgust", "surprise", "neutral")
RACES = ("black", "white", "asian", "middle_eastern", "indian", "latino")


class CorpusError(ValueError):
    """Unrecoverable corpus problem (missing file, duplicate ids, nothing valid)."""


@dataclass(frozen=True)
class FaceAnnotation:
    gender: str
    age: int
    emotion: str
    race: str

    def validate(self):
        if self.gender not in GENDERS:
            raise ValueError(f"unknown gender {self.gender!r}")
        if type(self.age) is not int:  # a bool, float or string is not an age
            raise ValueError(f"age must be an integer, not {self.age!r}")
        if not 0 <= self.age <= 100:
            raise ValueError(f"age {self.age} outside [0, 100]")
        if self.emotion not in EMOTIONS:
            raise ValueError(f"unknown emotion {self.emotion!r}")
        if self.race not in RACES:
            raise ValueError(f"unknown race {self.race!r}")


# The PostMetadata fields that must be finite and >= 0, in `validate`'s order.
_NONNEGATIVE = ("avg_views", "group_count", "avg_member_count", "tag_count",
                "title_length", "description_length", "comment_count",
                "post_duration_days")
# The PostMetadata fields that must hold an int, in `validate`'s order.
_INTEGERS = ("group_count", "tag_count", "title_length", "description_length",
             "tagged_people", "comment_count", "post_day", "post_month", "post_hour")


@dataclass(frozen=True)
class PostMetadata:
    avg_views: float = 0.0
    group_count: int = 0
    avg_member_count: float = 0.0
    tag_count: int = 0
    title_length: int = 0
    description_length: int = 0
    tagged_people: int = 0
    comment_count: int = 0
    post_day: int = 0
    post_month: int = 0
    post_hour: int = 0
    post_duration_days: float = 0.0

    def validate(self):
        """Every field must be finite and in range; NaN fails every test below.
        Each integer field must hold an int: a bool, or a float even when
        it is integral (2.0), fails. A float field must not hold a bool.

        A failure raises ValueError naming the field, also for a value that
        is not a number or an integer too large for a float.
        """
        if (type(self.avg_views) is bool or type(self.avg_member_count) is bool
                or type(self.post_duration_days) is bool):
            name = next(n for n in ("avg_views", "avg_member_count", "post_duration_days")
                        if type(getattr(self, n)) is bool)
            raise ValueError(f"{name} must be a number, not {getattr(self, name)!r}")
        counts = (self.avg_views, self.group_count, self.avg_member_count, self.tag_count,
                  self.title_length, self.description_length, self.comment_count,
                  self.post_duration_days)
        try:
            for i, value in enumerate(counts):
                if not (math.isfinite(value) and value >= 0):
                    raise ValueError
        except (ValueError, TypeError, OverflowError):  # or a non-number, or a huge int
            raise ValueError(f"{_NONNEGATIVE[i]} must be finite and >= 0") from None
        if self.tagged_people not in (0, 1):
            raise ValueError("tagged_people must be 0 or 1")
        for name, value, high in (("post_day", self.post_day, 6),
                                  ("post_month", self.post_month, 11),
                                  ("post_hour", self.post_hour, 23)):
            try:
                ok = 0 <= value <= high
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"{name} outside 0..{high}")
        integers = (self.group_count, self.tag_count, self.title_length,
                    self.description_length, self.tagged_people, self.comment_count,
                    self.post_day, self.post_month, self.post_hour)
        for value in integers:
            if type(value) is not int:
                name = next(n for n, v in zip(_INTEGERS, integers) if type(v) is not int)
                raise ValueError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class Post:
    post_id: str
    user_id: str
    caption: str
    hashtags: tuple[str, ...]
    image_ref: str
    faces: tuple[FaceAnnotation, ...]
    metadata: PostMetadata
    popularity: float

    def validate(self):
        """Raise ValueError naming the first field out of range.

        Joining the tags with spaces and splitting on whitespace gives the
        tags back exactly when none is empty or holds a `str.isspace`
        character, so one split checks them all.
        """
        if " ".join(self.hashtags).split() != list(self.hashtags):
            bad = next(tag for tag in self.hashtags if tag.split() != [tag])
            raise ValueError(f"hashtag {bad!r} is empty or contains whitespace")
        if not math.isfinite(self.popularity):
            raise ValueError("popularity must be finite")
        if self.metadata.tag_count != len(self.hashtags):
            raise ValueError(
                f"tag_count {self.metadata.tag_count} != {len(self.hashtags)} hashtags")
        for face in self.faces:
            try:
                face.validate()
            except ValueError as exc:
                raise ValueError(f"faces: {exc}") from None
        self.metadata.validate()


@dataclass(frozen=True)
class Dataset:
    posts: tuple[Post, ...]
    name: str = "corpus"

    def __len__(self) -> int:
        return len(self.posts)

    def __iter__(self):
        return iter(self.posts)

    def popularity(self) -> np.ndarray:
        return np.array([p.popularity for p in self.posts], dtype=np.float64)


def _post_from_record(rec) -> Post:
    """The validated Post of one decoded corpus line.

    Hashtags lose a leading '#' and are lowercased; ids, caption and image
    reference are taken as strings. A bad record raises KeyError for a
    missing field, or ValueError whose message names the field.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"a record is a JSON object, not {type(rec).__name__}")
    field = "faces"
    try:
        faces = tuple([FaceAnnotation(f["gender"], f["age"], f["emotion"], f["race"])
                       for f in rec.get("faces", ())])
        field = "metadata"
        meta = PostMetadata(**rec["metadata"])
        field = "hashtags"
        hashtags = tuple([str(tag).lstrip("#").lower() for tag in rec["hashtags"]])
        field = "popularity"
        popularity = rec["popularity"]
        if type(popularity) not in (int, float):  # a bool or a string is not one
            raise ValueError(f"must be a number, not {popularity!r}")
        popularity = float(popularity)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{field}: {exc}") from None
    post = Post(str(rec["post_id"]), str(rec["user_id"]), str(rec["caption"]), hashtags,
                str(rec["image_ref"]), faces, meta, popularity)
    post.validate()
    return post


_JSON = json.JSONDecoder()


def load_dataset(path, name: str | None = None,
                 problems: list | None = None) -> tuple[Dataset, int]:
    """Load a JSON-lines corpus.

    Returns (dataset, skipped) where `skipped` counts malformed lines; blank
    lines are neither read nor counted. When `problems` is a list, each
    skipped line's (line number, reason) is appended to it; line numbers
    start at 1 and count blank lines. Raises CorpusError for a missing
    file, duplicate post ids, or a file with no valid records.
    """
    p = Path(path)
    if not p.exists():
        raise CorpusError(f"corpus file not found: {p}")
    posts: list[Post] = []
    seen: set[str] = set()
    skipped = 0
    with p.open("r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                # json.loads without its whitespace scans: the line is stripped
                rec, end = _JSON.raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                post = _post_from_record(rec)
            except json.JSONDecodeError as exc:
                reason = f"not valid JSON: {exc.msg} at column {exc.colno}"
            except RecursionError:
                reason = "not valid JSON: nested too deeply"
            except KeyError as exc:
                reason = f"missing field {exc}"
            except (ValueError, TypeError, OverflowError) as exc:
                reason = str(exc)
            else:
                if post.post_id in seen:
                    raise CorpusError(f"duplicate post_id {post.post_id!r} in {p}")
                seen.add(post.post_id)
                posts.append(post)
                continue
            skipped += 1
            if problems is not None:
                problems.append((number, reason))
    if not posts:
        raise CorpusError(f"no valid records in {p}")
    return Dataset(posts=tuple(posts), name=name or p.stem), skipped


def save_dataset(ds: Dataset, path) -> None:
    """Write a corpus back out as JSON lines; floats round-trip exactly."""
    p = Path(path)
    with p.open("w", encoding="utf-8") as fh:
        for post in ds.posts:
            rec = asdict(post)
            rec["hashtags"] = list(post.hashtags)
            rec["faces"] = [asdict(f) for f in post.faces]
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def split_dataset(ds: Dataset, fractions=(0.8, 0.1, 0.1),
                  seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic train/val/test partition.

    Posts are sorted by post_id, shuffled under `seed`, then cut at the
    floors of the cumulative fraction boundaries, so the partition depends
    only on (contents, fractions, seed) and not on storage order.
    """
    if len(fractions) != 3:
        raise ValueError("fractions must be (train, val, test)")
    if any(f <= 0 for f in fractions):
        raise ValueError(f"all fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    ordered = sorted(ds.posts, key=lambda p: p.post_id)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    shuffled = [ordered[i] for i in perm]
    n = len(shuffled)
    cut1 = math.floor(n * fractions[0])
    cut2 = math.floor(n * (fractions[0] + fractions[1]))
    return (
        Dataset(tuple(shuffled[:cut1]), name=f"{ds.name}-train"),
        Dataset(tuple(shuffled[cut1:cut2]), name=f"{ds.name}-val"),
        Dataset(tuple(shuffled[cut2:]), name=f"{ds.name}-test"),
    )
