"""Domain types for ground truth, detections and tracker output, plus file I/O.

File formats (the contract external tools must follow):

* Detection CSV, one row per detection::

      frame,-1,left,top,width,height,score,-1,-1,-1

* Track CSV, one row per box::

      frame,track_id,left,top,width,height

  ``track_id`` is a positive integer.

* Ground truth JSON::

      {sequence_id, frame_count, weather, difficulty,
       ignore_regions: [{left,top,width,height,first_frame?,last_frame?}],
       tracks: [{target_id, entries: [{frame,left,top,width,height,
                                       occlusion,truncation,category}]}]}

All values are immutable after construction and safe to share between
workers. Frames are 1-based everywhere.

Columns. Each format has one reader that turns a file into validated numpy
columns, one row per box:

* `read_tracks` -> `TrackColumns`: frame, track_id, left, top, width,
  height; rows sorted by (track_id, frame).
* `read_detections` -> `DetectionColumns`: frame, left, top, width,
  height, score; file order.
* `read_ground_truth` -> `GtColumns`: frame, target_id, left, top, width,
  height, occlusion, truncation, category, in file order (so each track's
  entries are consecutive), plus the sequence fields and the ignore regions
  as `IgnoreColumns`.

Each of these three column sets carries a frame column, so
`geometry.covered` can tell which of its rows lie inside the ignore regions:
the detection layer asks it of GT and detections, CLEAR of hypotheses.

Frames and ids are int64, geometry float64; every box column set also
gives ``right = left + width`` and ``bottom = top + height``, computed in
float64 so that they equal `BBox.right` / `BBox.bottom` bit for bit, and
every number equals what ``int(token)`` / ``float(token)`` gives.

Every invariant the domain types enforce (finite boxes with positive width
and height, frames and track ids >= 1, one box per (track, frame), strictly
increasing GT frames within a track, frames <= ``frame_count``, unique
``target_id``, categories and ratio ranges, ignore-region frame spans) is
checked once per file on whole columns. Only when a check fails does the
reader walk the rows one by one, through the domain constructors, to raise
the error of the first offending line or entry with the constructors'
message. Frames, ids, ``frame_count`` and ignore-region frame spans must
fit in int64; in the GT JSON they must be integers or floats with an
integral value (``2.0``, not ``1.9``, ``"2"`` or ``true``), never
truncated.

The dataclasses are the public construction types, and the oracles in
`synth` work on them. `GroundTruth.columns`, `DetectionSet.columns` and
`TrackSet.columns` derive the readers' columns from objects; they are the
one bridge between the two models, and nothing turns columns back into
objects. Every CLI subcommand, the threshold sweep and the trackers work on
columns and build no per-box object: a threshold is the mask
``score >= threshold`` applied with `DetectionColumns.take`, a tracker
takes `DetectionColumns` and returns `TrackColumns`, and
`write_detections` / `write_tracks` write columns. Every evaluation
function and tracker takes columns only, and a caller holding objects
passes their `.columns`; a function that takes GT and boxes takes them in
the order (GT, boxes). `write_detections` alone also takes a
`DetectionSet`, since `gen_scenario` returns one. `check_frame_count` is
the one check that a detection or track row lies at a frame <= the GT's
``frame_count``; the CLI's pair reader and every evaluation function that
scores boxes against a GT call it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

CATEGORIES = ("car", "bus", "van", "others")
WEATHERS = ("cloudy", "night", "sunny", "rainy")
DIFFICULTIES = ("easy", "medium", "hard")

_NUMBER = (int, float)
_INT64 = np.iinfo(np.int64)
_BOX_FIELDS = ("left", "top", "width", "height")


class ValidationError(ValueError):
    """A domain object or input file violates an invariant."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box, half-open real rectangle [left, left+width) x [top, top+height)."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self) -> None:
        left, top, width, height = self.left, self.top, self.width, self.height
        if not (isinstance(left, _NUMBER) and isinstance(top, _NUMBER)
                and isinstance(width, _NUMBER) and isinstance(height, _NUMBER)
                and math.isfinite(left) and math.isfinite(top)
                and math.isfinite(width) and math.isfinite(height)
                and width > 0 and height > 0):
            raise ValidationError(self._problem())

    def _problem(self) -> str:
        """Message for the first invariant the box breaks, in check order."""
        for name in _BOX_FIELDS:
            v = getattr(self, name)
            if not (isinstance(v, _NUMBER) and math.isfinite(v)):
                return f"BBox.{name} must be finite, got {v!r}"
        if not self.width > 0:
            return f"degenerate box: width must be > 0, got {self.width}"
        return f"degenerate box: height must be > 0, got {self.height}"

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class GtEntry:
    frame: int
    box: BBox
    occlusion_ratio: float = 0.0
    truncation_ratio: float = 0.0
    category: str = "car"

    def __post_init__(self) -> None:
        if not (self.frame >= 1
                and 0.0 <= self.occlusion_ratio <= 1.0
                and 0.0 <= self.truncation_ratio <= 1.0
                and self.category in CATEGORIES):
            raise ValidationError(self._problem())

    def _problem(self) -> str:
        if not self.frame >= 1:
            return f"GtEntry.frame must be >= 1, got {self.frame}"
        if not 0.0 <= self.occlusion_ratio <= 1.0:
            return f"occlusion_ratio out of range [0,1]: {self.occlusion_ratio}"
        if not 0.0 <= self.truncation_ratio <= 1.0:
            return f"truncation_ratio out of range [0,1]: {self.truncation_ratio}"
        return f"unknown category {self.category!r}, expected one of {CATEGORIES}"


@dataclass(frozen=True)
class GtTrack:
    target_id: int
    entries: tuple[GtEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        _check(len(self.entries) > 0, f"track {self.target_id}: empty track")
        frames = [e.frame for e in self.entries]
        _check(all(a < b for a, b in zip(frames, frames[1:])),
               f"track {self.target_id}: frames must be strictly increasing "
               f"(duplicate or unsorted frame)")


def _span(first, last) -> tuple[int | None, int | None]:
    """An ignore region's frame span, its bounds as ints; each bound
    follows the GT integer rule of `_as_int`. Raises ValidationError for an
    invalid span."""
    if (first is None) != (last is None):
        raise ValidationError(
            "ignore region: first_frame and last_frame must be given together")
    if first is None:
        return None, None
    first = _as_int(first, "ignore region: first_frame")
    last = _as_int(last, "ignore region: last_frame")
    if not first <= last:
        raise ValidationError(
            f"ignore region: first_frame {first} > last_frame {last}")
    return first, last


@dataclass(frozen=True)
class IgnoreRegion:
    box: BBox
    first_frame: int | None = None
    last_frame: int | None = None

    def __post_init__(self) -> None:
        first, last = _span(self.first_frame, self.last_frame)
        object.__setattr__(self, "first_frame", first)
        object.__setattr__(self, "last_frame", last)

    def active_at(self, frame: int) -> bool:
        if self.first_frame is None:
            return True
        return self.first_frame <= frame <= self.last_frame


@dataclass(frozen=True)
class GroundTruth:
    sequence_id: str
    frame_count: int
    tracks: tuple[GtTrack, ...]
    ignore_regions: tuple[IgnoreRegion, ...] = ()
    weather: str = "cloudy"
    difficulty: str = "medium"

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", tuple(self.tracks))
        object.__setattr__(self, "ignore_regions", tuple(self.ignore_regions))
        _check(self.frame_count >= 1,
               f"frame_count must be >= 1, got {self.frame_count}")
        _check(self.weather in WEATHERS,
               f"unknown weather {self.weather!r}, expected one of {WEATHERS}")
        _check(self.difficulty in DIFFICULTIES,
               f"unknown difficulty {self.difficulty!r}, expected one of {DIFFICULTIES}")
        seen: set[int] = set()
        for tr in self.tracks:
            _check(tr.target_id not in seen,
                   f"duplicate target_id {tr.target_id}")
            seen.add(tr.target_id)
            for e in tr.entries:
                _check(e.frame <= self.frame_count,
                       f"track {tr.target_id}: entry frame {e.frame} beyond "
                       f"frame_count {self.frame_count}")

    def entries_at(self, frame: int) -> dict[int, GtEntry]:
        """target_id -> entry for every track annotated at `frame`."""
        out: dict[int, GtEntry] = {}
        for tr in self.tracks:
            for e in tr.entries:
                if e.frame == frame:
                    out[tr.target_id] = e
                    break
        return out

    def total_boxes(self) -> int:
        return sum(len(tr.entries) for tr in self.tracks)

    @cached_property
    def columns(self) -> GtColumns:
        """The same data as `read_ground_truth` columns, computed once."""
        rows = [(tr.target_id, e) for tr in self.tracks for e in tr.entries]
        entries = [e for _, e in rows]
        regions = self.ignore_regions
        return GtColumns(
            **_box_columns([e.box for e in entries]),
            frame=_ints([e.frame for e in entries]),
            target_id=_ints([tid for tid, _ in rows]),
            occlusion=_floats([e.occlusion_ratio for e in entries]),
            truncation=_floats([e.truncation_ratio for e in entries]),
            category=tuple(e.category for e in entries),
            sequence_id=self.sequence_id, frame_count=self.frame_count,
            weather=self.weather, difficulty=self.difficulty,
            ignore=IgnoreColumns(
                **_box_columns([r.box for r in regions]),
                first_frame=tuple(r.first_frame for r in regions),
                last_frame=tuple(r.last_frame for r in regions)))


@dataclass(frozen=True)
class Detection:
    frame: int
    box: BBox
    score: float

    def __post_init__(self) -> None:
        _check(self.frame >= 1, f"Detection.frame must be >= 1, got {self.frame}")
        _check(math.isfinite(self.score),
               f"Detection.score must be finite, got {self.score!r}")


@dataclass(frozen=True)
class DetectionSet:
    detections: tuple[Detection, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", tuple(self.detections))

    def __len__(self) -> int:
        return len(self.detections)

    def __iter__(self):
        return iter(self.detections)

    @cached_property
    def columns(self) -> DetectionColumns:
        """The same data as `read_detections` columns, computed once."""
        dets = self.detections
        return DetectionColumns(**_box_columns([d.box for d in dets]),
                                frame=_ints([d.frame for d in dets]),
                                score=_floats([d.score for d in dets]))


@dataclass(frozen=True)
class OutTrack:
    track_id: int
    boxes: tuple[tuple[int, BBox], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))
        _check(self.track_id >= 1,
               f"track_id must be a positive integer, got {self.track_id}")
        frames = [f for f, _ in self.boxes]
        _check(all(a < b for a, b in zip(frames, frames[1:])),
               f"output track {self.track_id}: frames must be strictly increasing")
        _check(all(f >= 1 for f in frames),
               f"output track {self.track_id}: frames must be >= 1")


@dataclass(frozen=True)
class TrackSet:
    tracks: tuple[OutTrack, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", tuple(self.tracks))
        seen: set[int] = set()
        for tr in self.tracks:
            _check(tr.track_id not in seen,
                   f"duplicate track_id {tr.track_id} in TrackSet")
            seen.add(tr.track_id)

    def __len__(self) -> int:
        return len(self.tracks)

    def boxes_at(self, frame: int) -> dict[int, BBox]:
        out: dict[int, BBox] = {}
        for tr in self.tracks:
            for f, b in tr.boxes:
                if f == frame:
                    out[tr.track_id] = b
                elif f > frame:
                    break
        return out

    def total_boxes(self) -> int:
        return sum(len(tr.boxes) for tr in self.tracks)

    def relabel(self, mapping: dict[int, int]) -> "TrackSet":
        """Apply a bijective id relabeling."""
        return TrackSet(tuple(
            OutTrack(mapping[tr.track_id], tr.boxes) for tr in self.tracks))

    @cached_property
    def columns(self) -> TrackColumns:
        """Rows in track order, then box order, computed once."""
        rows = [(tr.track_id, f, b) for tr in self.tracks for f, b in tr.boxes]
        return TrackColumns(**_box_columns([b for _, _, b in rows]),
                            frame=_ints([f for _, f, _ in rows]),
                            track_id=_ints([tid for tid, _, _ in rows]))


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------

def _ints(values: Sequence) -> np.ndarray:
    return np.array(values, dtype=np.int64).reshape(len(values))


def _floats(values: Sequence) -> np.ndarray:
    return np.array(values, dtype=np.float64).reshape(len(values))


def _box_columns(boxes: Sequence[BBox]) -> dict[str, np.ndarray]:
    return {name: _floats([getattr(b, name) for b in boxes])
            for name in _BOX_FIELDS}


@dataclass(frozen=True, eq=False)
class BoxColumns:
    """One box per row as float64 columns."""

    left: np.ndarray
    top: np.ndarray
    width: np.ndarray
    height: np.ndarray

    def __len__(self) -> int:
        return len(self.left)

    @property
    def right(self) -> np.ndarray:
        return self.left + self.width

    @property
    def bottom(self) -> np.ndarray:
        return self.top + self.height

    def corners(self) -> np.ndarray:
        """(n, 4) rows of left, top, right, bottom, the layout of every
        `geometry` and `matching` kernel."""
        return np.column_stack((self.left, self.top, self.right, self.bottom))


@dataclass(frozen=True, eq=False)
class IgnoreColumns(BoxColumns):
    """Ignore regions; a region without a frame span has None in both
    `first_frame` and `last_frame`. `geometry.covered` reads them through
    `corners` and `active` to decide which boxes lie inside them."""

    first_frame: tuple[int | None, ...]
    last_frame: tuple[int | None, ...]

    def active(self, frames: Sequence[int]) -> np.ndarray:
        """(len(frames), regions) mask: region j is active at frames[i]
        (`IgnoreRegion.active_at`)."""
        spans = list(zip(self.first_frame, self.last_frame))
        return np.array([[first is None or first <= frame <= last
                          for first, last in spans] for frame in frames],
                        dtype=bool).reshape(len(frames), len(spans))


@dataclass(frozen=True, eq=False)
class TrackColumns(BoxColumns):
    frame: np.ndarray
    track_id: np.ndarray


@dataclass(frozen=True, eq=False)
class DetectionColumns(BoxColumns):
    frame: np.ndarray
    score: np.ndarray

    def take(self, rows: np.ndarray) -> DetectionColumns:
        """The rows a boolean mask or an index array selects, in its order."""
        return DetectionColumns(
            self.left[rows], self.top[rows], self.width[rows],
            self.height[rows], frame=self.frame[rows], score=self.score[rows])


@dataclass(frozen=True, eq=False)
class GtColumns(BoxColumns):
    frame: np.ndarray
    target_id: np.ndarray
    occlusion: np.ndarray
    truncation: np.ndarray
    category: tuple[str, ...]
    sequence_id: str
    frame_count: int
    weather: str
    difficulty: str
    ignore: IgnoreColumns


def check_frame_count(gt: GtColumns, boxes: DetectionColumns | TrackColumns,
                      name: str) -> None:
    """Raise `<name>: frame F beyond frame_count C` at the first row of
    `boxes` that lies past the sequence's last frame."""
    late = np.flatnonzero(boxes.frame > gt.frame_count)
    if late.size:
        raise ValidationError(f"{name}: frame {boxes.frame[late[0]]} beyond "
                              f"frame_count {gt.frame_count}")


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    """Canonical number formatting: shortest exact decimal, '.' separator."""
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _csv_lines(template: str, *columns: np.ndarray) -> Iterator[str]:
    """template % row for every row of the columns: integers as they are,
    floats through _fmt."""
    fields = [col.tolist() if col.dtype.kind == "i" else
              list(map(_fmt, col.tolist())) for col in columns]
    return (template % row for row in zip(*fields))


class _BadColumns(Exception):
    """A whole-column check failed; the row walk finds the first bad row."""


def _csv_rows(stream: Iterable[str]) -> tuple[list[str], list[str]]:
    """Every line stripped, and the non-blank ones."""
    lines = list(map(str.strip, stream))
    return lines, list(filter(None, lines))


def _numbered_rows(lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of every non-blank line; the row walk
    of the error path."""
    for line_no, line in enumerate(lines, start=1):
        if line:
            yield line_no, line.split(",")


def _csv_columns(rows: list[str], n_fields: int,
                 fields: dict[str, tuple[int, type]]) -> dict[str, np.ndarray]:
    """Field name -> column converted with int() or float(); raises
    _BadColumns on a wrong field count or a token that does not convert.

    The rows are split as one comma-joined string, so no per-row list is
    built: with n_fields - 1 commas on every row, field i of every row is
    every n_fields-th token from i on."""
    if set(map(str.count, rows, repeat(","))) - {n_fields - 1}:
        raise _BadColumns
    tokens = ",".join(rows).split(",") if rows else []
    try:
        return {name: (_ints if kind is int else _floats)(
                    list(map(kind, tokens[index::n_fields])))
                for name, (index, kind) in fields.items()}
    except (ValueError, OverflowError):
        raise _BadColumns from None


def _field_count(row: list[str], n_fields: int, line_no: int) -> None:
    if len(row) != n_fields:
        raise ValidationError(
            f"line {line_no}: expected {n_fields} comma-separated fields, "
            f"got {len(row)}")


def _convert(token: str, kind: type, line_no: int, what: str):
    try:
        value = kind(token)
    except ValueError:
        raise ValidationError(f"line {line_no}: malformed {what}: {token!r}") from None
    if kind is int and not _INT64.min <= value <= _INT64.max:
        raise ValidationError(f"line {line_no}: {what} out of range: {token!r}")
    return value


def _in_line(line_no: int, make, *args):
    """make(*args), with its ValidationError prefixed by the line number."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(f"line {line_no}: {exc}") from None


def _all(*conditions: np.ndarray) -> bool:
    return all(bool(np.all(c)) for c in conditions)


def _boxes_ok(left, top, width, height) -> bool:
    return _all(np.isfinite(left), np.isfinite(top), np.isfinite(width),
                np.isfinite(height), width > 0, height > 0)


_DETECTION_FIELDS = {"frame": (0, int), "left": (2, float), "top": (3, float),
                     "width": (4, float), "height": (5, float),
                     "score": (6, float)}
_TRACK_FIELDS = {"frame": (0, int), "track_id": (1, int), "left": (2, float),
                 "top": (3, float), "width": (4, float), "height": (5, float)}


def read_detections(stream: Iterable[str]) -> DetectionColumns:
    lines, rows = _csv_rows(stream)
    try:
        cols = _csv_columns(rows, 10, _DETECTION_FIELDS)
        if not (_boxes_ok(cols["left"], cols["top"], cols["width"], cols["height"])
                and _all(cols["frame"] >= 1, np.isfinite(cols["score"]))):
            raise _BadColumns
    except _BadColumns:
        _first_bad_detection(lines)
    return DetectionColumns(**cols)


def _first_bad_detection(lines: list[str]) -> NoReturn:
    for line_no, row in _numbered_rows(lines):
        _field_count(row, 10, line_no)
        frame, left, top, width, height, score = (
            _convert(row[index], kind, line_no, name)
            for name, (index, kind) in _DETECTION_FIELDS.items())
        box = _in_line(line_no, BBox, left, top, width, height)
        _in_line(line_no, Detection, frame, box, score)
    raise AssertionError("detection columns failed a check that no row fails")


def write_detections(dets: DetectionSet | DetectionColumns, stream: TextIO) -> None:
    """Detection CSV rows in row order. The one writer that also takes the
    objects: `gen-synthetic` and the benchmark's input generator write
    `gen_scenario`'s `DetectionSet` through it."""
    d = dets.columns if isinstance(dets, DetectionSet) else dets
    stream.writelines(_csv_lines("%s,-1,%s,%s,%s,%s,%s,-1,-1,-1\n", d.frame,
                                 d.left, d.top, d.width, d.height, d.score))


def read_tracks(stream: Iterable[str]) -> TrackColumns:
    """Track CSV rows sorted by (track_id, frame)."""
    lines, rows = _csv_rows(stream)
    try:
        cols = _csv_columns(rows, 6, _TRACK_FIELDS)
        frame, track_id = cols["frame"], cols["track_id"]
        order = np.lexsort((frame, track_id))
        cols = {name: col[order] for name, col in cols.items()}
        repeated = ((np.diff(cols["track_id"]) == 0)
                    & (np.diff(cols["frame"]) == 0))
        if not (_boxes_ok(cols["left"], cols["top"], cols["width"], cols["height"])
                and _all(track_id >= 1, ~repeated)):
            raise _BadColumns
    except _BadColumns:
        _first_bad_track_row(lines)
    early = cols["frame"] < 1
    if early.any():
        raise ValidationError(f"output track {cols['track_id'][early].min()}: "
                              f"frames must be >= 1")
    return TrackColumns(**cols)


def _first_bad_track_row(lines: list[str]) -> NoReturn:
    positions: dict[tuple[int, int], int] = {}
    for line_no, row in _numbered_rows(lines):
        _field_count(row, 6, line_no)
        frame = _convert(row[0], int, line_no, "frame")
        track_id = _convert(row[1], int, line_no, "track_id")
        if track_id < 1:
            raise ValidationError(
                f"line {line_no}: track_id must be a positive integer, got {track_id}")
        left, top, width, height = (_convert(row[i], float, line_no, name)
                                    for i, name in enumerate(_BOX_FIELDS, 2))
        if (track_id, frame) in positions:
            raise ValidationError(
                f"line {line_no}: track {track_id} already has a box at frame {frame} "
                f"(line {positions[(track_id, frame)]})")
        positions[(track_id, frame)] = line_no
        _in_line(line_no, BBox, left, top, width, height)
    raise AssertionError("track columns failed a check that no row fails")


def write_tracks(tracks: TrackColumns, stream: TextIO) -> None:
    """Rows by ascending track id, each track's rows in their order."""
    order = np.argsort(tracks.track_id, kind="stable")
    stream.writelines(_csv_lines("%s,%s,%s,%s,%s,%s\n", *(
        col[order] for col in (tracks.frame, tracks.track_id, tracks.left,
                               tracks.top, tracks.width, tracks.height))))


# ---------------------------------------------------------------------------
# Ground truth JSON
# ---------------------------------------------------------------------------

def _load_json(stream: TextIO | str):
    text = stream if isinstance(stream, str) else stream.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise ValidationError(f"ground truth is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("ground truth is not valid JSON: "
                              "nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"ground truth must be a JSON object, "
                              f"got {type(doc).__name__}")
    return doc


def _is_int(value) -> bool:
    """An int, or a float with an integral value; not a bool or a string."""
    return type(value) is int or (type(value) is float and value.is_integer())


def _int_column(values: list) -> np.ndarray:
    """Every value as int64; raises _BadColumns unless each one is
    `_is_int`, OverflowError beyond int64."""
    if set(map(type, values)) <= {int}:
        return _ints(values)
    if not all(map(_is_int, values)):
        raise _BadColumns
    return _ints(list(map(int, values)))


def _float_column(values: list) -> np.ndarray:
    if set(map(type, values)) <= {int, float}:
        return _floats(values)
    return _floats(list(map(float, values)))


def read_ground_truth(stream: TextIO | str) -> GtColumns:
    doc = _load_json(stream)
    try:
        columns = _gt_columns(doc)
    except (_BadColumns, KeyError, TypeError, ValueError, OverflowError):
        _first_gt_error(doc)
    return columns


def _gt_columns(doc: dict) -> GtColumns:
    regions, tracks = doc.get("ignore_regions", []), doc["tracks"]
    if type(regions) is not list or type(tracks) is not list:
        raise _BadColumns
    ignore = _ignore_columns(regions)
    if set(map(type, tracks)) - {dict}:
        raise _BadColumns
    per_track = [t["entries"] for t in tracks]
    if set(map(type, per_track)) - {list} or not all(per_track):
        raise _BadColumns
    entries = [e for es in per_track for e in es]
    if set(map(type, entries)) - {dict}:
        raise _BadColumns
    box = {name: _float_column([e[name] for e in entries]) for name in _BOX_FIELDS}
    frame = _int_column([e["frame"] for e in entries])
    occlusion = _float_column([e.get("occlusion", 0.0) for e in entries])
    truncation = _float_column([e.get("truncation", 0.0) for e in entries])
    category = tuple([e.get("category", "car") for e in entries])
    track_ids = _int_column([t["target_id"] for t in tracks])
    frame_count = int(_int_column([doc["frame_count"]])[0])
    columns = GtColumns(
        **box, frame=frame,
        target_id=np.repeat(track_ids, list(map(len, per_track))),
        occlusion=occlusion, truncation=truncation, category=category,
        sequence_id=str(doc["sequence_id"]), frame_count=frame_count,
        weather=doc.get("weather", "cloudy"),
        difficulty=doc.get("difficulty", "medium"), ignore=ignore)
    same_track = np.diff(columns.target_id) == 0
    if not (_boxes_ok(*box.values())
            and _all(frame >= 1, frame <= frame_count,
                     (np.diff(frame) > 0) | ~same_track,
                     (0.0 <= occlusion) & (occlusion <= 1.0),
                     (0.0 <= truncation) & (truncation <= 1.0))
            and len(np.unique(track_ids)) == len(track_ids)
            and set(category) <= set(CATEGORIES)
            and frame_count >= 1 and columns.weather in WEATHERS
            and columns.difficulty in DIFFICULTIES):
        raise _BadColumns
    return columns


def _ignore_columns(regions: list) -> IgnoreColumns:
    boxes, spans = [], []
    for robj in regions:
        if type(robj) is not dict:
            raise _BadColumns
        box = [float(robj[name]) for name in _BOX_FIELDS]
        if not (all(map(math.isfinite, box)) and box[2] > 0 and box[3] > 0):
            raise _BadColumns
        boxes.append(box)
        spans.append(_span(robj.get("first_frame"), robj.get("last_frame")))
    cols = np.array(boxes, dtype=np.float64).reshape(len(boxes), 4).T
    return IgnoreColumns(*cols, first_frame=tuple(s[0] for s in spans),
                         last_frame=tuple(s[1] for s in spans))


def _json_list(value, what: str) -> list:
    if type(value) is not list:
        raise ValidationError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _json_object(value, what: str) -> dict:
    if type(value) is not dict:
        raise ValidationError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _as_int(value, what: str) -> int:
    if not _is_int(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if not _INT64.min <= value <= _INT64.max:
        raise ValidationError(f"{what} out of range: {value!r}")
    return int(value)


def _as_float(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None


def _box_from_obj(obj: dict, what: str) -> BBox:
    try:
        return BBox(*(_as_float(obj[name], f"{what}: {name}")
                      for name in _BOX_FIELDS))
    except KeyError as exc:
        raise ValidationError(f"{what}: missing field {exc}") from None


def _first_gt_error(doc: dict) -> NoReturn:
    """Read `doc` entry by entry through the domain constructors, in the
    order they meet each field, and raise the first error."""
    try:
        regions = []
        for i, robj in enumerate(_json_list(doc.get("ignore_regions", []),
                                            "ignore_regions")):
            robj = _json_object(robj, f"ignore_regions[{i}]")
            box = _box_from_obj(robj, "ignore region")
            regions.append(IgnoreRegion(box, robj.get("first_frame"),
                                        robj.get("last_frame")))
        tracks = []
        for i, tobj in enumerate(_json_list(doc["tracks"], "tracks")):
            tobj = _json_object(tobj, f"tracks[{i}]")
            entries = []
            for k, eobj in enumerate(_json_list(tobj["entries"],
                                                f"tracks[{i}].entries")):
                where = f"tracks[{i}].entries[{k}]"
                eobj = _json_object(eobj, where)
                entries.append(GtEntry(
                    frame=_as_int(eobj["frame"], f"{where}.frame"),
                    box=_box_from_obj(eobj, f"track {tobj['target_id']}"),
                    occlusion_ratio=_as_float(eobj.get("occlusion", 0.0),
                                              f"{where}.occlusion"),
                    truncation_ratio=_as_float(eobj.get("truncation", 0.0),
                                               f"{where}.truncation"),
                    category=eobj.get("category", "car"),
                ))
            tracks.append(GtTrack(_as_int(tobj["target_id"],
                                          f"tracks[{i}].target_id"),
                                  tuple(entries)))
        GroundTruth(
            sequence_id=str(doc["sequence_id"]),
            frame_count=_as_int(doc["frame_count"], "frame_count"),
            tracks=tuple(tracks),
            ignore_regions=tuple(regions),
            weather=doc.get("weather", "cloudy"),
            difficulty=doc.get("difficulty", "medium"),
        )
    except KeyError as exc:
        raise ValidationError(f"ground truth: missing field {exc}") from None
    raise AssertionError("ground truth columns failed a check that no entry fails")


def write_ground_truth(gt: GroundTruth, stream: TextIO) -> None:
    doc = {
        "sequence_id": gt.sequence_id,
        "frame_count": gt.frame_count,
        "weather": gt.weather,
        "difficulty": gt.difficulty,
        "ignore_regions": [
            {"left": r.box.left, "top": r.box.top,
             "width": r.box.width, "height": r.box.height,
             **({"first_frame": r.first_frame, "last_frame": r.last_frame}
                if r.first_frame is not None else {})}
            for r in gt.ignore_regions
        ],
        "tracks": [
            {"target_id": tr.target_id,
             "entries": [
                 {"frame": e.frame, "left": e.box.left, "top": e.box.top,
                  "width": e.box.width, "height": e.box.height,
                  "occlusion": e.occlusion_ratio, "truncation": e.truncation_ratio,
                  "category": e.category}
                 for e in tr.entries]}
            for tr in gt.tracks
        ],
    }
    json.dump(doc, stream, indent=1)
    stream.write("\n")
