"""Domain types for ground truth, columns for every box file, plus file I/O.

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
  as `IgnoreColumns`. A category is an int8 code, its index in
  `CATEGORIES`: the category rule compares the values read with ``==``
  and the column is mapped to codes once, so no per-box string is kept.

Each of these three column sets carries a frame column, so
`geometry.covered` can tell which of its rows lie inside the ignore regions:
the detection layer asks it of GT and detections, CLEAR of hypotheses.

Frames and ids are int64, geometry float64, and every number equals what
``int(token)`` / ``float(token)`` gives. A CSV file's columns are
converted in one numpy pass (`np.loadtxt`, in C) where numpy reads every
token as ``int()`` / ``float()`` would (`_csv_columns`); on any other
text, and on any token it refuses or warns about, the rows are converted
one at a time with ``int()`` / ``float()`` (`_read_csv`), up to the first
value that fails, so numpy's grammar and version change no number and no
error.

A GT JSON text is decoded a piece at a time (`_gt_streamed`): the
members of the top-level object one at a time, and the ``tracks`` array
one track at a time, by the standard library's own scanner. The tracks
are converted by `_gt_columns` in batches of at least `_GT_BATCH_ENTRIES`
entries, the batches' columns are joined, and the rules run once on the
joined columns, so only one batch's entry objects exist at a time. A
text too short to hold a batch of valid entries, and anything that path
does not expect (a BOM, a repeated member, ``tracks`` missing, empty or
not an array, text after the object, a value that does not decode or
convert), is decoded whole by ``json.loads`` (`_gt_from_document`), as
before, so both paths give the same columns and the same errors.

Input rules. Each reader states the rules of its format once, in one
table (`_DETECTION_RULES`, `_TRACK_RULES`, `_GT_RULES`): finite boxes with
positive width and height, frames and track ids >= 1, one box per (track,
frame), GT categories and ratio ranges, non-empty tracks with strictly
increasing frames, unique ``target_id`` and frames <= ``frame_count``. A
rule is a row mask computed on whole columns and a message template, and
the table keeps the rules in check order. A file is first converted whole
columns at a time; when that fails, the reader converts it one value at a
time in check order up to the first value that fails (a wrong field
count, a token ``int()`` / ``float()`` rejects, a missing key, a wrong
JSON type, a GT integer that is not integral). Either way the masks then
run once on the columns converted, and the reader raises the error that
comes first in check order: the earliest row a mask flags, with the first
rule it breaks, or the conversion failure, which follows every rule its
own row had reached. The rules on a sequence's own fields
(`_check_sequence`) and on an ignore region's frame span (`_span`) are
checked where those fields are converted, by the reader and the
constructors alike. Frames, ids, ``frame_count`` and ignore-region frame
spans must fit in int64; in the GT JSON they must be integers or floats
with an integral value (``2.0``, not ``1.9``, ``"2"`` or ``true``), never
truncated. The GT constructors apply the same rule (`_as_int`, which also
takes numpy integers) to every frame, id and ``frame_count``, and keep
their own checks, so a `GroundTruth` is a reference built without the
reader.

The readers build no domain object. Detections and tracks have no
per-box type: `gen_scenario`, the fixtures and the trackers build their
columns directly, and `gen_scenario` checks its detections against
`_DETECTION_RULES` through `checked_detections`, as `read_detections`
does. The GT dataclasses are construction types only: `synth`, `fixtures`
and the tests build ground truth with them and pass `GroundTruth.columns`;
nothing turns columns back into objects. `GroundTruth.columns` is the GT
reader's whole-document conversion (`_gt_from_document`) of the document
that `write_ground_truth` writes (`_gt_document`), so it equals
`read_ground_truth` of the written file, and `_gt_checked`, behind both
of the reader's paths, is the one code that builds `GtColumns`. Every CLI subcommand, the
threshold sweep and the trackers work on columns and build no per-box
object: a threshold is the mask ``score >= threshold`` applied with
`DetectionColumns.take`, a tracker takes `DetectionColumns` and returns
`TrackColumns`, and `write_detections` / `write_tracks` write columns.
Every evaluation function and tracker takes columns only; a function that
takes GT and boxes takes them in the order (GT, boxes).
`check_frame_count` is the one check that a detection or track row lies
at a frame <= the GT's ``frame_count``; the CLI's pair reader and every
evaluation function that scores boxes against a GT call it.
"""

from __future__ import annotations

import json
import math
import operator
import threading
import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence, TextIO

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
        object.__setattr__(self, "frame", _as_int(self.frame, "GtEntry.frame"))
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
        object.__setattr__(self, "target_id",
                           _as_int(self.target_id, "GtTrack.target_id"))
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


def _check_sequence(frame_count: int, weather, difficulty) -> None:
    """The rules on a sequence's own fields, in check order, for
    `GroundTruth` and the GT reader alike."""
    _check(frame_count >= 1, f"frame_count must be >= 1, got {frame_count}")
    _check(weather in WEATHERS,
           f"unknown weather {weather!r}, expected one of {WEATHERS}")
    _check(difficulty in DIFFICULTIES,
           f"unknown difficulty {difficulty!r}, expected one of {DIFFICULTIES}")


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
        object.__setattr__(self, "frame_count", _as_int(
            self.frame_count, "GroundTruth.frame_count"))
        _check_sequence(self.frame_count, self.weather, self.difficulty)
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
        """`read_ground_truth` of what `write_ground_truth` writes, read
        from the document itself (no JSON text), computed once."""
        return _gt_from_document(_gt_document(self))


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

    def corners(self, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Left, top, right, bottom of the boxes at `rows` (all of them by
        default) along a last axis of 4, the layout of every `geometry` and
        `matching` kernel: (n, 4) for all rows, (k, w, 4) for a (k, w)
        index array. Right is ``left + width`` and bottom ``top + height``,
        in float64, so they equal `BBox.right` / `BBox.bottom` bit for bit."""
        left, top = self.left[rows], self.top[rows]
        return np.stack((left, top, left + self.width[rows],
                         top + self.height[rows]), axis=-1)


@dataclass(frozen=True, eq=False)
class IgnoreColumns(BoxColumns):
    """Ignore regions; a region without a frame span has None in both
    `first_frame` and `last_frame`. `geometry.covered` reads them through
    `corners` and the spans to decide which boxes lie inside them."""

    first_frame: tuple[int | None, ...]
    last_frame: tuple[int | None, ...]


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
    """`category` holds int8 codes, indices into `CATEGORIES`."""

    frame: np.ndarray
    target_id: np.ndarray
    occlusion: np.ndarray
    truncation: np.ndarray
    category: np.ndarray
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


def positions(order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The position of each of `rows` in the permutation `order`: where a
    row sits once the rows are sorted, as CLEAR and detection labeling
    read the input rows of an edge table."""
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return position[rows]


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of `values`, ascending: what a plain `np.unique`
    returns, by one sort and one comparison of neighbours. `np.unique`
    without `return_*` (and so `np.union1d`) imports `numpy.ma` on its
    first call, which costs a few milliseconds of every process."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def ordered_sum(values: Iterable, start=0):
    """The total of `values` added left to right from `start`, the way
    the builtin `sum` adds up to CPython 3.11; from 3.12 on, `sum` rounds
    float totals otherwise (compensated), so a total would depend on the
    interpreter. Every float total that reaches a report is added here:
    MOTP's IoU total, the PR arc length and the mean scores. The default
    start, the int 0, keeps an all-int total an int, as `sum` does; a
    running total passed as `start` continues the same fold."""
    return reduce(operator.add, values, start)


# Box pairs in one chunk of frame pairs of `geometry.iou_edges` (behind the
# GT x box edge table and the builtin tracker's link table), counted after
# padding. A chunk's temporaries are about 10 bytes a padded pair for its
# overlap tests plus about 120 a pair given to `geometry.iou_broadcast`: a
# full chunk took 0.6 MB at IoU 0.5 on 47 boxes a frame, and 7.6 MB at
# IoU 0, where every real pair goes to the kernel (`tracemalloc`).
EDGE_CHUNK_PAIRS = 1 << 16


def frame_chunks(a_n: np.ndarray, b_n: np.ndarray) -> Iterator[np.ndarray]:
    """The frame pairs k = 0 .. len(a_n) - 1, with a_n[k] boxes on one side
    and b_n[k] on the other, as index arrays in chunks. Pairs are ordered
    by their wider side, then by a_n * b_n, then by k, so a chunk holds
    pairs of like shape. A chunk takes as many pairs as fit
    `EDGE_CHUNK_PAIRS` when each is padded to the chunk's widest a and b
    side (at least one pair). Every pair has a box on each side."""
    wide = np.maximum(a_n, b_n)
    order = np.lexsort((a_n * b_n, wide))
    a_n, b_n, wide = a_n[order], b_n[order], wide[order]
    start = 0
    while start < len(order):
        # Each pair from here on pads to at least wide[start] boxes.
        end = min(len(order),
                  start + max(1, EDGE_CHUNK_PAIRS // int(wide[start])))
        padded = (np.arange(1, end - start + 1)
                  * np.maximum.accumulate(a_n[start:end])
                  * np.maximum.accumulate(b_n[start:end]))
        stop = start + max(1, int(np.searchsorted(padded, EDGE_CHUNK_PAIRS,
                                                  "right")))
        yield order[start:stop]
        start = stop


def padded_rows(lo: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows lo[k] .. lo[k] + n[k] - 1 of each frame k, padded with row 0 to
    the widest frame: a (frames, width) index array and its mask of real
    rows."""
    offset = np.arange(n.max())
    valid = offset < n[:, None]
    return np.where(valid, lo[:, None] + offset, 0), valid


@dataclass(frozen=True)
class Rows:
    """Report rows held as columns: column name -> a list of Python scalars
    or a 1-D int64 or float64 array, every column of one length.
    ``len(rows)`` is the row count and ``rows[name]`` a column. A
    detection report's PR points are `Rows` of arrays, and CLEAR's
    per-frame counts int64 arrays beside a list of IoU sums that mixes the
    int 0 with floats; the CLI writes them to JSON and CSV
    column by column, turning an array's values into Python scalars one
    chunk of rows at a time, and no per-row object is built on the way.
    An array of any other dtype is a TypeError, as `json.dump` refuses
    numpy scalars."""

    columns: dict[str, list | np.ndarray]

    def __post_init__(self) -> None:
        if len(set(map(len, self.columns.values()))) > 1:
            raise ValueError("Rows columns differ in length")
        for name, column in self.columns.items():
            if isinstance(column, np.ndarray) and column.dtype not in (
                    np.int64, np.float64):
                raise TypeError(f"Rows column {name!r}: an array must be "
                                f"int64 or float64, got {column.dtype}")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, name: str) -> list | np.ndarray:
        return self.columns[name]

    def __eq__(self, other) -> bool:
        """Equal column names and values; an array compares as its list."""
        if not isinstance(other, Rows):
            return NotImplemented
        return _column_lists(self) == _column_lists(other)


def _column_lists(rows: Rows) -> dict[str, list]:
    return {k: c.tolist() if isinstance(c, np.ndarray) else c
            for k, c in rows.columns.items()}


# ---------------------------------------------------------------------------
# Input rules
# ---------------------------------------------------------------------------

# Each reader states its format's rules once, in one table: level -> its
# rules in the format's check order. A rule is (after, bad, template):
# `bad(columns)` flags the level's rows that break it, on whole columns; a
# row is checked by it once its first `after` fields (in conversion order)
# are converted; `template` is the error, formatted with the row's values.

def _box_rules(after: int, prefix: str = "") -> tuple:
    """`BBox`'s invariants, in its check order."""
    return (*((after, lambda c, name=name: ~np.isfinite(c[name]),
               f"{prefix}BBox.{name} must be finite, got {{{name}!r}}")
              for name in _BOX_FIELDS),
            *((after, lambda c, name=name: c[name] <= 0,
               f"{prefix}degenerate box: {name} must be > 0, got {{{name}}}")
              for name in ("width", "height")))


_DETECTION_FIELDS = {"frame": (0, int), "left": (2, float), "top": (3, float),
                     "width": (4, float), "height": (5, float),
                     "score": (6, float)}
_DETECTION_RULES = {"row": (
    *_box_rules(6, "line {line}: "),
    (6, lambda c: c["frame"] < 1,
     "line {line}: Detection.frame must be >= 1, got {frame}"),
    (6, lambda c: ~np.isfinite(c["score"]),
     "line {line}: Detection.score must be finite, got {score!r}"))}

_TRACK_FIELDS = {"frame": (0, int), "track_id": (1, int), "left": (2, float),
                 "top": (3, float), "width": (4, float), "height": (5, float)}
# `before`: the line of the track's box before this one at the same frame.
_TRACK_RULES = {"row": (
    (2, lambda c: c["track_id"] < 1,
     "line {line}: track_id must be a positive integer, got {track_id}"),
    (6, lambda c: c["before"] > 0, "line {line}: track {track_id} already "
                                   "has a box at frame {frame} (line {before})"),
    *_box_rules(6, "line {line}: "))}

# The levels are laid out by `_gt_levels`; the rules on the document's own
# fields are `_check_sequence`, checked as the document is converted.
_GT_RULES = {
    "region": _box_rules(4),
    "entry": (
        *_box_rules(5),
        (8, lambda c: c["frame"] < 1, "GtEntry.frame must be >= 1, got {frame}"),
        *((8, lambda c, name=name: ~((c[name] >= 0) & (c[name] <= 1)),
           f"{name}_ratio out of range [0,1]: {{{name}}}")
          for name in ("occlusion", "truncation")),
        (8, lambda c: c["category"] < 0,
         f"unknown category {{category_value!r}}, expected one of {CATEGORIES}")),
    "track": (
        (2, lambda c: c["length"] == 0, "track {target_id}: empty track"),
        (2, lambda c: c["unsorted"], "track {target_id}: frames must be strictly "
                                     "increasing (duplicate or unsorted frame)")),
    "late_tracks": ((0, lambda c: ~np.isin(np.arange(len(c["target_id"])), np.unique(
        c["target_id"], return_index=True)[1]), "duplicate target_id {target_id}"),),
    "late_entries": ((0, lambda c: c["frame"] > c["frame_count"], "track {target_id}: "
                      "entry frame {frame} beyond frame_count {frame_count}"),)}


def _check_rules(table: dict, levels: dict, failure: tuple | None = None) -> None:
    """Raise the first error in check order: of a rule of `table` that a row
    breaks, or `failure`, a (place, error) of a value that did not convert.

    `levels` maps a level to its columns (each an array or a tuple with a
    value per row, or one value for all rows) and to `key(row)`, the row's
    place in the check order; a rule flagged at a row takes the place
    key(row) + (after,), and at one place the first rule in the table
    counts."""
    first = failure
    for level, (columns, key) in levels.items():
        for after, bad, template in table[level]:
            rows = np.flatnonzero(bad(columns))
            if rows.size and (first is None or (*key(rows[0]), after) < first[0]):
                row = rows[0]
                first = (*key(row), after), ValidationError(template.format(**{
                    name: value[row].item() if isinstance(value, np.ndarray) else
                    value[row] if isinstance(value, tuple) else value
                    for name, value in columns.items()}))
    if first is not None:
        raise first[1]


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
    """A whole-column conversion failed; converting one value at a time
    finds the first value that fails."""


# `catch_warnings` swaps the warning filters of the whole process; the lock
# keeps readers on several threads (a `cmd:` tracker's outputs, read on the
# sweep's threads, or a library caller's) from restoring each other's
# filters out of order. While a pass runs, a warning on another
# thread is an error too; nothing that runs beside a reader warns.
_LOADTXT = threading.Lock()


def _csv_columns(rows: list[str], n_fields: int,
                 fields: dict[str, tuple[int, type]]) -> dict | None:
    """Field name -> column, each value what int(token) or float(token)
    gives, from one `np.loadtxt` pass; None where the pass cannot say so.

    The pass converts every column in C, on ASCII text without the
    separators \\x1c-\\x1f only: there it reads a float with the parser of
    float(), and an int only from spaces, a sign and digits within int64.
    Elsewhere it does not read as Python does: it strips those four
    separators as spaces, which int() and float() refuse, and its int
    parser misreads non-ASCII characters as digits. The pass refuses some
    tokens that int() and float() take (underscores, ints beyond int64),
    and warns where it reads what they might not (no rows; on numpy 1.x, a
    float in an int column, truncated). On a wrong field count, on other
    text, and after a refusal or a warning, it gives None, and
    `_read_csv` converts the rows one at a time with int() and float(), so
    neither numpy's token grammar nor its version changes what a file
    gives."""
    text = ",".join(rows)
    if (set(map(str.count, rows, repeat(","))) - {n_fields - 1}
            or not text.isascii()
            or any(map(text.__contains__, "\x1c\x1d\x1e\x1f"))):
        return None
    try:
        with _LOADTXT, warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                rows, delimiter=",", comments=None, ndmin=1,
                dtype=[(name, np.int64 if kind is int else np.float64)
                       for name, (_, kind) in fields.items()],
                usecols=[index for index, _ in fields.values()])
    except (ValueError, OverflowError, Warning):
        return None
    return {name: table[name].copy() for name in fields}


def _convert(token: str, kind: type, line_no: int, what: str):
    try:
        value = kind(token)
    except ValueError:
        raise ValidationError(f"line {line_no}: malformed {what}: {token!r}") from None
    if kind is int and not _INT64.min <= value <= _INT64.max:
        raise ValidationError(f"line {line_no}: {what} out of range: {token!r}")
    return value


def _read_csv(stream: Iterable[str], n_fields: int, fields: dict) -> tuple:
    """(columns, line numbers, failure) of a CSV file for `_check_rules`,
    each row's place its index. Where `_csv_columns` gives None, the rows
    are converted one at a time; when a row does not convert, the columns
    end with that row, the fields it did not convert read as 0."""
    lines = list(map(str.strip, stream))
    rows = list(filter(None, lines))
    line = (np.arange(1, len(rows) + 1) if len(rows) == len(lines) else
            np.flatnonzero(np.fromiter(map(bool, lines), bool, len(lines))) + 1)
    columns = _csv_columns(rows, n_fields, fields)
    if columns is not None:
        return columns, line, None
    values: dict[str, list] = {name: [] for name in fields}
    failure = None
    for at, (line_no, row) in enumerate(zip(line.tolist(), rows)):
        tokens, converted = row.split(","), 0
        try:
            if len(tokens) != n_fields:
                raise ValidationError(f"line {line_no}: expected {n_fields} "
                                      f"comma-separated fields, got {len(tokens)}")
            for name, (index, kind) in fields.items():
                values[name].append(_convert(tokens[index], kind, line_no, name))
                converted += 1
        except ValidationError as exc:
            for column in values.values():
                column += [0] * (at + 1 - len(column))
            line, failure = line[:at + 1], ((at, converted + 0.5), exc)
            break
    return ({name: (_ints if kind is int else _floats)(values[name])
             for name, (_, kind) in fields.items()}, line, failure)


def checked_detections(cols: dict[str, np.ndarray], line: np.ndarray,
                       failure: tuple | None = None) -> DetectionColumns:
    """`cols` (frame, box and score columns) as `DetectionColumns` once
    they pass `_DETECTION_RULES`, row i named as line `line[i]`; `failure`
    as in `_check_rules`."""
    _check_rules(_DETECTION_RULES, {"row": ({**cols, "line": line},
                                            lambda row: (row,))}, failure)
    return DetectionColumns(**cols)


def read_detections(stream: Iterable[str]) -> DetectionColumns:
    return checked_detections(*_read_csv(stream, 10, _DETECTION_FIELDS))


def write_detections(dets: DetectionColumns, stream: TextIO) -> None:
    """Detection CSV rows in row order."""
    stream.writelines(_csv_lines("%s,-1,%s,%s,%s,%s,%s,-1,-1,-1\n", dets.frame,
                                 dets.left, dets.top, dets.width, dets.height,
                                 dets.score))


def read_tracks(stream: Iterable[str]) -> TrackColumns:
    """Track CSV rows sorted by (track_id, frame)."""
    cols, line, failure = _read_csv(stream, 6, _TRACK_FIELDS)
    order = np.lexsort((cols["frame"], cols["track_id"]))
    same = (np.diff(cols["track_id"][order]) == 0) & (np.diff(cols["frame"][order]) == 0)
    before = np.zeros_like(line)
    before[order[1:][same]] = line[order[:-1][same]]
    _check_rules(_TRACK_RULES, {"row": ({**cols, "line": line, "before": before},
                                        lambda row: (row,))}, failure)
    cols = {name: col[order] for name, col in cols.items()}
    early = cols["frame"] < 1
    if early.any():
        raise ValidationError(f"output track {cols['track_id'][early].min()}: "
                              f"frames must be >= 1")
    return TrackColumns(**cols)


def write_tracks(tracks: TrackColumns, stream: TextIO) -> None:
    """Rows by ascending track id, each track's rows in their order."""
    order = np.argsort(tracks.track_id, kind="stable")
    stream.writelines(_csv_lines("%s,%s,%s,%s,%s,%s\n", *(
        col[order] for col in (tracks.frame, tracks.track_id, tracks.left,
                               tracks.top, tracks.width, tracks.height))))


# ---------------------------------------------------------------------------
# Ground truth JSON
# ---------------------------------------------------------------------------

def _load_json(text: str):
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
    """A Python or numpy integer, or a float with an integral value; not a
    bool or a string."""
    return (type(value) is int or isinstance(value, np.integer)
            or (isinstance(value, float) and value.is_integer()))


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


def _box_floats(objects: list) -> dict[str, np.ndarray]:
    return {name: _float_column([o[name] for o in objects]) for name in _BOX_FIELDS}


_CATEGORY_CODES = {name: code for code, name in enumerate(CATEGORIES)}


def _category_codes(values: Sequence) -> np.ndarray:
    """Each value's index in `CATEGORIES` as int8, -1 where it equals none
    of them. Values compare with ==, as `in CATEGORIES` compares them, so an
    unhashable one (a JSON list) is a -1 too."""
    try:
        return np.fromiter(map(_CATEGORY_CODES.get, values, repeat(-1)),
                           np.int8, len(values))
    except TypeError:
        return np.fromiter((next((code for code, name in enumerate(CATEGORIES)
                                  if value == name), -1) for value in values),
                           np.int8, len(values))


def _gt_columns(regions: list, tracks: list) -> tuple[dict, dict, dict]:
    """The region, entry and track columns of the ignore regions and tracks;
    raises when a value does not convert (a region, track or entry that is
    not an object fails where a field is first read from it). An entry's
    category is its code (`_category_codes`), and its value as read is kept
    in `category_value` for the category rule's message."""
    per_track = [t["entries"] for t in tracks]
    if {type(regions), type(tracks), *map(type, per_track)} - {list}:
        raise _BadColumns
    entries = [e for es in per_track for e in es]
    return _box_floats(regions), {
        "frame": _int_column([e["frame"] for e in entries]), **_box_floats(entries),
        **{name: _float_column([e.get(name, 0.0) for e in entries])
           for name in ("occlusion", "truncation")},
        "category_value": (values := tuple([e.get("category", "car") for e in entries])),
        "category": _category_codes(values)}, {
        "target_id": _int_column([t["target_id"] for t in tracks]),
        "length": _ints(list(map(len, per_track)))}


def _document(doc: dict) -> dict:
    """The sequence fields of a GT document, converted and checked."""
    fields = {"sequence_id": str(doc["sequence_id"]),
              "frame_count": _as_int(doc["frame_count"], "frame_count"),
              "weather": doc.get("weather", "cloudy"),
              "difficulty": doc.get("difficulty", "medium")}
    _check_sequence(fields["frame_count"], fields["weather"], fields["difficulty"])
    return fields


def _gt_levels(region: dict, entry: dict, track: dict,
               document: dict | None = None) -> dict:
    """The GT rules' levels, keyed in check order: the ignore regions; each
    track's entries, then the track; then, given the checked `document`,
    each track's id (`late_tracks`) followed by its entries' frames
    (`late_entries`)."""
    owner = np.repeat(np.arange(len(track["length"])), track["length"])
    track = {**track, "unsorted": np.isin(np.arange(len(track["length"])), owner[1:][
        (np.diff(entry["frame"]) <= 0) & (np.diff(owner) == 0)])}
    levels = {"region": (region, lambda j: (0, j)),
              "entry": (entry, lambda e: (1, owner[e], 0, e)),
              "track": (track, lambda t: (1, t, 1))}
    if document is not None:
        levels.update(late_tracks=(track, lambda t: (2, t, 0)),
                      late_entries=({**entry, **document, "target_id": np.repeat(
                          track["target_id"], track["length"])},
                          lambda e: (2, owner[e], 1, e)))
    return levels


def _json(value, kind: type, what: str):
    """`value`, which must be a JSON array (`kind` list) or object (dict)."""
    if type(value) is kind:
        return value
    raise ValidationError(f"{what} must be a JSON {'array' if kind is list else 'object'}"
                          f", got {type(value).__name__}")


def _as_int(value, what: str) -> int:
    """`value` as an int when it is `_is_int` and fits in int64: the GT
    integer rule, which the GT constructors apply to every frame, id
    and frame count. Raises ValidationError naming `what` otherwise."""
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


def _numbers(obj: dict, what: str, out: dict) -> None:
    """Convert the box fields of `obj` into `out` as floats, one at a time."""
    for name in _BOX_FIELDS:
        if name not in obj:
            raise ValidationError(f"{what}: missing field {name!r}")
        out[name] = _as_float(obj[name], f"{what}: {name}")


# How many fields `_gt_walk` converts of a region, an entry and a track.
_GT_FIELD_COUNTS = {"region": 4, "entry": 8, "track": 2}


def _gt_walk(doc: dict) -> tuple:
    """`doc` converted one value at a time in check order, up to the first
    value that fails: the levels so far, and the failure with its place
    (`_check_rules`). Regions, entries and tracks are built as
    defaultdict(int), so the one the walk failed in reads 0 for the fields
    it did not reach and still makes a row for the rules it did reach."""
    regions, tracks, entries = [], [], []
    try:
        for i, robj in enumerate(_json(doc.get("ignore_regions", []), list,
                                       "ignore_regions")):
            regions.append(region := defaultdict(int))
            _numbers(_json(robj, dict, f"ignore_regions[{i}]"), "ignore region", region)
            _span(robj.get("first_frame"), robj.get("last_frame"))
        for i, tobj in enumerate(_json(doc["tracks"], list, "tracks")):
            tracks.append(track := defaultdict(int, entries=[]))
            for k, eobj in enumerate(_json(_json(tobj, dict, f"tracks[{i}]")["entries"],
                                           list, f"tracks[{i}].entries")):
                where = f"tracks[{i}].entries[{k}]"
                entries.append(entry := defaultdict(int))
                track["entries"].append(entry)
                entry["frame"] = _as_int(_json(eobj, dict, where)["frame"], f"{where}.frame")
                _numbers(eobj, f"track {tobj['target_id']}", entry)
                for name in ("occlusion", "truncation"):
                    entry[name] = _as_float(eobj.get(name, 0.0), f"{where}.{name}")
                entry["category"] = eobj.get("category", "car")
            track["target_id"] = _as_int(tobj["target_id"], f"tracks[{i}].target_id")
        _document(doc)
        raise AssertionError("ground truth failed to convert where no value fails")
    except KeyError as exc:
        error = ValidationError(f"ground truth: missing field {exc}")
    except ValidationError as exc:
        error = exc
    at = None
    for level, objects in (("region", regions), ("track", tracks), ("entry", entries)):
        if objects and len(objects[-1]) < _GT_FIELD_COUNTS[level]:
            at = level, len(objects) - 1, len(objects[-1])
    levels = _gt_levels(*_gt_columns(regions, tracks))
    place = (math.inf,) if at is None else (*levels[at[0]][1](at[1]), at[2] + 0.5)
    return levels, (place, error)


# What a GT document's values can raise while they are converted; the
# conversion then starts again on the whole document (`_gt_walk`, or the
# reader's whole-document path).
_UNCONVERTED = (_BadColumns, KeyError, TypeError, ValueError, OverflowError)


def _gt_fields(doc: dict) -> tuple[list, dict]:
    """The ignore regions' spans and the sequence fields of a GT document
    whose regions converted, each converted and checked."""
    return ([_span(r.get("first_frame"), r.get("last_frame"))
             for r in doc.get("ignore_regions", [])], _document(doc))


def _gt_checked(region: dict, entry: dict, track: dict, spans: list,
                document: dict) -> GtColumns:
    """Converted GT columns once they pass `_GT_RULES`: the one place that
    builds `GtColumns`."""
    _check_rules(_GT_RULES, _gt_levels(region, entry, track, document))
    del entry["category_value"]  # every code is a category's now
    first, last = zip(*spans) if spans else ((), ())
    return GtColumns(**entry, target_id=np.repeat(track["target_id"], track["length"]),
                     **document, ignore=IgnoreColumns(**region, first_frame=first,
                                                      last_frame=last))


def _gt_from_document(doc: dict) -> GtColumns:
    """A parsed GT document as checked columns: the GT reader's
    whole-document path after its JSON step."""
    try:
        columns = _gt_columns(doc.get("ignore_regions", []), doc["tracks"])
        fields = _gt_fields(doc)
    except _UNCONVERTED:
        _check_rules(_GT_RULES, *_gt_walk(doc))  # raises: the walk stops at a failure
    return _gt_checked(*columns, *fields)


# Entries that `_gt_streamed` gathers, whole tracks at a time, before it
# converts them: its batches hold at least this many (the last one may
# hold fewer), so only one batch's entry objects exist at a time.
_GT_BATCH_ENTRIES = 1 << 13
# The text of the shortest valid entry and its comma. A GT text shorter
# than `_GT_BATCH_ENTRIES` of them holds less than one batch of valid
# entries, so the reader decodes it whole.
_SHORTEST_ENTRY = len('{"frame":1,"left":1,"top":1,"width":1,"height":1},')

_WHITESPACE = json.decoder.WHITESPACE.match


class _Unstreamed(Exception):
    """The GT text is not a document that `_gt_streamed` reads."""


def _after(text: str, at: int, chars: str) -> tuple[str, int]:
    """The first character at or after `at` that is not JSON whitespace,
    which must be one of `chars`, and the position after it."""
    at = _WHITESPACE(text, at).end()
    char = text[at:at + 1]
    if not char or char not in chars:
        raise _Unstreamed
    return char, at + 1


def _gt_tracks(text: str, at: int, scan) -> tuple[list, int]:
    """The columns (`_gt_columns`) of the tracks array that starts at `at`,
    one set per batch of tracks, and the position after the array. Each
    track is decoded on its own; on an empty array the scanner raises
    StopIteration, and the whole-document path reads it."""
    batches, batch, entries = [], [], 0
    _, at = _after(text, at, "[")
    close = ","
    while close == ",":
        track, at = scan(text, _WHITESPACE(text, at).end())
        batch.append(track)
        entries += len(track["entries"])
        del track  # so that the batch's last track dies with the batch
        if entries >= _GT_BATCH_ENTRIES:
            batches.append(_gt_columns([], batch))
            batch, entries = [], 0
        close, at = _after(text, at, ",]")
    if batch:
        batches.append(_gt_columns([], batch))
    return batches, at


def _joined(batches: list) -> tuple[dict, dict, dict]:
    """The region, entry and track columns of `_gt_columns` batches, each
    column the batches' values in order."""
    return tuple({name: tuple(chain.from_iterable(c[name] for c in level))
                  if isinstance(column, tuple) else
                  np.concatenate([c[name] for c in level])
                  for name, column in level[0].items()}
                 for level in zip(*batches))


def _gt_streamed(text: str) -> tuple[dict, tuple]:
    """The members of the GT object in `text` other than ``tracks``, and
    the columns of its regions and tracks. The object is decoded one member
    at a time and ``tracks`` one track at a time, so no more than a batch
    of entry objects exists at once; the regions are converted after the
    object. Raises `_Unstreamed` on what it does not read (not an object,
    a BOM, a repeated member, ``tracks`` missing, empty or not an array,
    text after the object), and a JSON or conversion error as it meets
    one."""
    # A decoder of its own: the C scanner keeps a memo of keys while it
    # decodes, and readers may run on several threads.
    scan = json.JSONDecoder().scan_once
    members, batches = {}, None
    _, at = _after(text, 0, "{")
    close = ","
    while close == ",":
        _, at = _after(text, at, '"')
        key, at = json.decoder.scanstring(text, at)
        _, at = _after(text, at, ":")
        if key in members:
            raise _Unstreamed
        if key == "tracks":
            members[key] = None
            batches, at = _gt_tracks(text, at, scan)
        else:
            members[key], at = scan(text, _WHITESPACE(text, at).end())
        close, at = _after(text, at, ",}")
    if batches is None or _WHITESPACE(text, at).end() != len(text):
        raise _Unstreamed
    return members, _joined([*batches, _gt_columns(
        members.get("ignore_regions", []), [])])


def read_ground_truth(stream: TextIO | str) -> GtColumns:
    text = stream if isinstance(stream, str) else stream.read()
    if len(text) >= _GT_BATCH_ENTRIES * _SHORTEST_ENTRY:
        try:
            doc, columns = _gt_streamed(text)
            fields = _gt_fields(doc)
        except (_Unstreamed, StopIteration, RecursionError, *_UNCONVERTED):
            pass
        else:
            return _gt_checked(*columns, *fields)
    # A short text, and whatever the streamed path does not read, is read
    # whole, as json.loads reads it: the same columns or the same error.
    return _gt_from_document(_load_json(text))


def _gt_document(gt: GroundTruth) -> dict:
    """The GT document of `gt`, as `write_ground_truth` writes it."""
    return {
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


def write_ground_truth(gt: GroundTruth, stream: TextIO) -> None:
    json.dump(_gt_document(gt), stream, indent=1)
    stream.write("\n")
