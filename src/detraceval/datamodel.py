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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, TextIO

CATEGORIES = ("car", "bus", "van", "others")
WEATHERS = ("cloudy", "night", "sunny", "rainy")
DIFFICULTIES = ("easy", "medium", "hard")

# Samples this truncated are conventionally excluded from training sets;
# they stay in the files and are merely flagged.
TRUNCATION_FLAG_THRESHOLD = 0.5


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
        for name in ("left", "top", "width", "height"):
            v = getattr(self, name)
            _check(isinstance(v, (int, float)) and math.isfinite(v),
                   f"BBox.{name} must be finite, got {v!r}")
        _check(self.width > 0, f"degenerate box: width must be > 0, got {self.width}")
        _check(self.height > 0, f"degenerate box: height must be > 0, got {self.height}")

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
        _check(self.frame >= 1, f"GtEntry.frame must be >= 1, got {self.frame}")
        _check(0.0 <= self.occlusion_ratio <= 1.0,
               f"occlusion_ratio out of range [0,1]: {self.occlusion_ratio}")
        _check(0.0 <= self.truncation_ratio <= 1.0,
               f"truncation_ratio out of range [0,1]: {self.truncation_ratio}")
        _check(self.category in CATEGORIES,
               f"unknown category {self.category!r}, expected one of {CATEGORIES}")

    @property
    def truncation_flagged(self) -> bool:
        return self.truncation_ratio > TRUNCATION_FLAG_THRESHOLD


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


@dataclass(frozen=True)
class IgnoreRegion:
    box: BBox
    first_frame: int | None = None
    last_frame: int | None = None

    def __post_init__(self) -> None:
        if (self.first_frame is None) != (self.last_frame is None):
            raise ValidationError("ignore region: first_frame and last_frame "
                                  "must be given together")
        if self.first_frame is not None:
            _check(self.first_frame <= self.last_frame,
                   f"ignore region: first_frame {self.first_frame} > "
                   f"last_frame {self.last_frame}")

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

    def by_frame(self) -> dict[int, list[Detection]]:
        out: dict[int, list[Detection]] = {}
        for d in self.detections:
            out.setdefault(d.frame, []).append(d)
        return out

    def filter_score(self, threshold: float) -> "DetectionSet":
        """Keep detections with score >= threshold (input order preserved)."""
        return DetectionSet(tuple(d for d in self.detections if d.score >= threshold))

    def score_range(self) -> tuple[float, float]:
        _check(len(self.detections) > 0, "empty DetectionSet has no score range")
        scores = [d.score for d in self.detections]
        return min(scores), max(scores)


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


# ---------------------------------------------------------------------------
# CSV / JSON I/O
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    """Canonical number formatting: shortest exact decimal, '.' separator."""
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"line {line_no}: malformed {what}: {token!r}") from None


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"line {line_no}: malformed {what}: {token!r}") from None


def parse_detections(stream: Iterable[str]) -> DetectionSet:
    dets: list[Detection] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 10:
            raise ValidationError(
                f"line {line_no}: expected 10 comma-separated fields, got {len(fields)}")
        frame = _parse_int(fields[0], line_no, "frame")
        left = _parse_float(fields[2], line_no, "left")
        top = _parse_float(fields[3], line_no, "top")
        width = _parse_float(fields[4], line_no, "width")
        height = _parse_float(fields[5], line_no, "height")
        score = _parse_float(fields[6], line_no, "score")
        try:
            dets.append(Detection(frame, BBox(left, top, width, height), score))
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
    return DetectionSet(tuple(dets))


def write_detections(dets: DetectionSet, stream: TextIO) -> None:
    for d in dets:
        b = d.box
        stream.write(f"{d.frame},-1,{_fmt(b.left)},{_fmt(b.top)},"
                     f"{_fmt(b.width)},{_fmt(b.height)},{_fmt(d.score)},-1,-1,-1\n")


def parse_tracks(stream: Iterable[str]) -> TrackSet:
    rows: dict[int, list[tuple[int, BBox]]] = {}
    positions: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise ValidationError(
                f"line {line_no}: expected 6 comma-separated fields, got {len(fields)}")
        frame = _parse_int(fields[0], line_no, "frame")
        track_id = _parse_int(fields[1], line_no, "track_id")
        if track_id < 1:
            raise ValidationError(
                f"line {line_no}: track_id must be a positive integer, got {track_id}")
        left = _parse_float(fields[2], line_no, "left")
        top = _parse_float(fields[3], line_no, "top")
        width = _parse_float(fields[4], line_no, "width")
        height = _parse_float(fields[5], line_no, "height")
        if (track_id, frame) in positions:
            raise ValidationError(
                f"line {line_no}: track {track_id} already has a box at frame {frame} "
                f"(line {positions[(track_id, frame)]})")
        positions[(track_id, frame)] = line_no
        try:
            rows.setdefault(track_id, []).append((frame, BBox(left, top, width, height)))
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
    tracks = [OutTrack(tid, tuple(sorted(boxes, key=lambda fb: fb[0])))
              for tid, boxes in sorted(rows.items())]
    return TrackSet(tuple(tracks))


def write_tracks(tracks: TrackSet, stream: TextIO) -> None:
    for tr in sorted(tracks.tracks, key=lambda t: t.track_id):
        for frame, b in tr.boxes:
            stream.write(f"{frame},{tr.track_id},{_fmt(b.left)},{_fmt(b.top)},"
                         f"{_fmt(b.width)},{_fmt(b.height)}\n")


def _box_from_obj(obj: dict, what: str) -> BBox:
    try:
        return BBox(float(obj["left"]), float(obj["top"]),
                    float(obj["width"]), float(obj["height"]))
    except KeyError as exc:
        raise ValidationError(f"{what}: missing field {exc}") from None


def parse_ground_truth(stream: TextIO | str) -> GroundTruth:
    text = stream if isinstance(stream, str) else stream.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"ground truth is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"ground truth must be a JSON object, "
                              f"got {type(doc).__name__}")
    try:
        regions = []
        for robj in doc.get("ignore_regions", []):
            box = _box_from_obj(robj, "ignore region")
            first = robj.get("first_frame")
            last = robj.get("last_frame")
            regions.append(IgnoreRegion(box, first, last))
        tracks = []
        for tobj in doc["tracks"]:
            entries = []
            for eobj in tobj["entries"]:
                entries.append(GtEntry(
                    frame=int(eobj["frame"]),
                    box=_box_from_obj(eobj, f"track {tobj['target_id']}"),
                    occlusion_ratio=float(eobj.get("occlusion", 0.0)),
                    truncation_ratio=float(eobj.get("truncation", 0.0)),
                    category=eobj.get("category", "car"),
                ))
            tracks.append(GtTrack(int(tobj["target_id"]), tuple(entries)))
        return GroundTruth(
            sequence_id=str(doc["sequence_id"]),
            frame_count=int(doc["frame_count"]),
            tracks=tuple(tracks),
            ignore_regions=tuple(regions),
            weather=doc.get("weather", "cloudy"),
            difficulty=doc.get("difficulty", "medium"),
        )
    except KeyError as exc:
        raise ValidationError(f"ground truth: missing field {exc}") from None


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
