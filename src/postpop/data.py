"""Post records, JSON-lines corpus ingestion, and deterministic splitting.

A corpus line is one JSON object per post. `load_dataset` decodes each
line once with `json`, checks the decoded values once, in a fixed order,
and only then builds the line's frozen, slotted records, each through its
slot descriptors; a malformed line is skipped, counted, and reported with
its line number and a reason that names the failing field.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import starmap
from pathlib import Path

import numpy as np

GENDERS = ("male", "female")
EMOTIONS = ("fear", "sadness", "happiness", "anger", "disgust", "surprise", "neutral")
RACES = ("black", "white", "asian", "middle_eastern", "indian", "latino")


class CorpusError(ValueError):
    """Unrecoverable corpus problem (missing file, duplicate ids, nothing valid)."""


def _slot_init(cls):
    """Give the frozen slotted dataclass `cls` an `__init__` with the same
    signature, defaults and qualname that stores each field through its
    slot descriptor: about half the time of the generated one, which calls
    `object.__setattr__` once a field. It stores the arguments as given, so
    a field with a default_factory, init=False or kw_only, or a
    `__post_init__`, is refused."""
    if hasattr(cls, "__post_init__") or any(
            f.default_factory is not MISSING or not f.init or f.kw_only for f in fields(cls)):
        raise TypeError(f"_slot_init cannot build {cls.__name__}.__init__")
    names = [f.name for f in fields(cls)]
    env = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    exec(f"def __init__(self, {', '.join(names)}):"
         + "".join(f"\n    _set_{name}(self, {name})" for name in names), env)
    init = env["__init__"]
    for attr in ("__defaults__", "__qualname__", "__module__", "__annotations__"):
        setattr(init, attr, getattr(cls.__init__, attr))
    cls.__init__ = init
    return cls


@_slot_init
@dataclass(frozen=True, slots=True)
class FaceAnnotation:
    gender: str
    age: int
    emotion: str
    race: str


@_slot_init
@dataclass(frozen=True, slots=True)
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


@_slot_init
@dataclass(frozen=True, slots=True)
class Post:
    post_id: str
    user_id: str
    caption: str
    hashtags: tuple[str, ...]
    image_ref: str
    faces: tuple[FaceAnnotation, ...]
    metadata: PostMetadata
    popularity: float


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


# Every PostMetadata field with its default, in field order.
_METADATA = {f.name: f.default for f in fields(PostMetadata)}
# The fields of each metadata rule, in the order they are checked.
_FLOATS = ("avg_views", "avg_member_count", "post_duration_days")
_NONNEGATIVE = ("avg_views", "group_count", "avg_member_count", "tag_count",
                "title_length", "description_length", "comment_count",
                "post_duration_days")
_INTEGERS = ("group_count", "tag_count", "title_length", "description_length",
             "tagged_people", "comment_count", "post_day", "post_month", "post_hour")
_CALENDAR = (("post_day", 6), ("post_month", 11), ("post_hour", 23))


def _post_from_record(rec) -> Post:
    """The Post of one decoded corpus line, checked before anything is built.

    Hashtags lose a leading '#' and are lowercased; ids, caption and image
    reference are taken as strings. The checks run in this order, and the
    first that fails raises KeyError for a missing field, or ValueError
    whose message names the field: the record is an object; the faces, if
    given, are an array whose every face has its four keys; the metadata is
    an object of PostMetadata fields; the hashtags are an array that can be
    read; the popularity is a JSON number; the ids, caption and image
    reference are present; no hashtag is empty or holds whitespace (joining
    the tags with spaces and splitting on whitespace gives them back exactly
    then); the popularity is finite; tag_count is the number of hashtags;
    each face's gender, age (an int in [0, 100]), emotion and race are
    known; no float field holds a bool; the counts are finite and >= 0;
    tagged_people is 0 or 1; the calendar fields are in range; and every
    integer field holds an int, not a bool or a float.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"a record is a JSON object, not {type(rec).__name__}")
    field = "faces"
    try:
        if type(faces := rec.get("faces", [])) is not list:
            raise TypeError
        faces = [(f["gender"], f["age"], f["emotion"], f["race"]) for f in faces]
        field = "metadata"
        meta = rec["metadata"]
        if type(meta) is not dict:
            raise ValueError(f"must be an object, not {type(meta).__name__}")
        if len(metadata := _METADATA | meta) != len(_METADATA):
            PostMetadata(**meta)  # raises the TypeError that names the unknown key
        field = "hashtags"
        if type(tags := rec["hashtags"]) is not list:
            raise ValueError("must be a list")
        hashtags = tuple([str(tag).lstrip("#").lower() for tag in tags])
        field = "popularity"
        popularity = rec["popularity"]
        if type(popularity) not in (int, float):  # a bool or a string is not one
            raise ValueError(f"must be a number, not {popularity!r}")
        popularity = float(popularity)
    except (TypeError, ValueError, OverflowError) as exc:
        reason = "must be a list of objects" if field == "faces" else exc  # not CPython's words
        raise ValueError(f"{field}: {reason}") from None
    post_id, user_id, caption = str(rec["post_id"]), str(rec["user_id"]), str(rec["caption"])
    image_ref = str(rec["image_ref"])
    if " ".join(hashtags).split() != list(hashtags):
        bad = next(tag for tag in hashtags if tag.split() != [tag])
        raise ValueError(f"hashtag {bad!r} is empty or contains whitespace")
    if not math.isfinite(popularity):
        raise ValueError("popularity must be finite")
    if (tag_count := metadata["tag_count"]) != len(hashtags):
        raise ValueError(f"tag_count {tag_count} != {len(hashtags)} hashtags")
    for gender, age, emotion, race in faces:
        if gender not in GENDERS:
            raise ValueError(f"faces: unknown gender {gender!r}")
        if type(age) is not int:  # a bool, float or string is not an age
            raise ValueError(f"faces: age must be an integer, not {age!r}")
        if not 0 <= age <= 100:
            raise ValueError(f"faces: age {age} outside [0, 100]")
        if emotion not in EMOTIONS:
            raise ValueError(f"faces: unknown emotion {emotion!r}")
        if race not in RACES:
            raise ValueError(f"faces: unknown race {race!r}")
    for name in _FLOATS:
        if type(value := metadata[name]) is bool:
            raise ValueError(f"{name} must be a number, not {value!r}")
    try:
        for name in _NONNEGATIVE:
            value = metadata[name]
            if not (math.isfinite(value) and value >= 0):
                raise ValueError
    except (ValueError, TypeError, OverflowError):  # or a non-number, or a huge int
        raise ValueError(f"{name} must be finite and >= 0") from None
    if metadata["tagged_people"] not in (0, 1):
        raise ValueError("tagged_people must be 0 or 1")
    try:
        for name, high in _CALENDAR:
            if not 0 <= metadata[name] <= high:
                raise ValueError
    except (ValueError, TypeError):
        raise ValueError(f"{name} outside 0..{high}") from None
    for name in _INTEGERS:
        if type(value := metadata[name]) is not int:
            raise ValueError(f"{name} must be an integer, not {value!r}")
    return Post(post_id, user_id, caption, hashtags, image_ref,
                tuple(starmap(FaceAnnotation, faces)), PostMetadata(*metadata.values()),
                popularity)


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
