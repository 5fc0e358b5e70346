"""The columnar readers against the per-line parsers they replaced.

The `old_*` functions below are the parsers as they were before the
columnar readers, copied verbatim apart from their names; they build the
domain objects one line or entry at a time. On valid and corrupted inputs
each `read_*` function must give columns holding the old objects' values,
floats bit-identical (so equal to `float(token)`), or the same
`ValidationError` text. Where the old parser crashed with another
exception, the reader must raise `ValidationError`. The GT integer fields
(`frame_count`, `target_id`, `frame`) are the one deliberate difference:
the old parser truncated any value `int()` takes, the reader accepts only
an int or a float with an integral value, so where such a field holds a
value the old parser converted (`"7"`, `2.7`, `True`) the reader must
raise `ValidationError` whatever the old parser did.
"""

import copy
import itertools
import json
import math
import struct
from typing import Iterable, TextIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detraceval.datamodel import (CATEGORIES, DIFFICULTIES, WEATHERS, BBox,
                                  Detection, DetectionSet, GroundTruth,
                                  GtEntry, GtTrack, IgnoreRegion, OutTrack,
                                  TrackSet, ValidationError, _check,
                                  read_detections, read_ground_truth,
                                  read_tracks)


# ---------------------------------------------------------------------------
# Reference: the per-line parsers before the columnar readers
# ---------------------------------------------------------------------------

def old_parse_float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"line {line_no}: malformed {what}: {token!r}") from None


def old_parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"line {line_no}: malformed {what}: {token!r}") from None


def old_parse_detections(stream: Iterable[str]) -> DetectionSet:
    dets: list[Detection] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 10:
            raise ValidationError(
                f"line {line_no}: expected 10 comma-separated fields, got {len(fields)}")
        frame = old_parse_int(fields[0], line_no, "frame")
        left = old_parse_float(fields[2], line_no, "left")
        top = old_parse_float(fields[3], line_no, "top")
        width = old_parse_float(fields[4], line_no, "width")
        height = old_parse_float(fields[5], line_no, "height")
        score = old_parse_float(fields[6], line_no, "score")
        try:
            dets.append(Detection(frame, BBox(left, top, width, height), score))
        except ValidationError as exc:
            raise ValidationError(f"line {line_no}: {exc}") from None
    return DetectionSet(tuple(dets))


def old_parse_tracks(stream: Iterable[str]) -> TrackSet:
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
        frame = old_parse_int(fields[0], line_no, "frame")
        track_id = old_parse_int(fields[1], line_no, "track_id")
        if track_id < 1:
            raise ValidationError(
                f"line {line_no}: track_id must be a positive integer, got {track_id}")
        left = old_parse_float(fields[2], line_no, "left")
        top = old_parse_float(fields[3], line_no, "top")
        width = old_parse_float(fields[4], line_no, "width")
        height = old_parse_float(fields[5], line_no, "height")
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


def old_box_from_obj(obj: dict, what: str) -> BBox:
    try:
        return BBox(float(obj["left"]), float(obj["top"]),
                    float(obj["width"]), float(obj["height"]))
    except KeyError as exc:
        raise ValidationError(f"{what}: missing field {exc}") from None


def old_parse_ground_truth(stream: TextIO | str) -> GroundTruth:
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
            box = old_box_from_obj(robj, "ignore region")
            first = robj.get("first_frame")
            last = robj.get("last_frame")
            regions.append(IgnoreRegion(box, first, last))
        tracks = []
        for tobj in doc["tracks"]:
            entries = []
            for eobj in tobj["entries"]:
                entries.append(GtEntry(
                    frame=int(eobj["frame"]),
                    box=old_box_from_obj(eobj, f"track {tobj['target_id']}"),
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


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _canon(value):
    """A value with its type; floats by their bits, so -0.0 != 0.0."""
    if isinstance(value, float):
        return "float", struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(map(_canon, value))
    return type(value).__name__, value


def _outcome(parse, data):
    try:
        return "ok", parse(data)
    except ValidationError as exc:
        return "error", str(exc)
    except Exception as exc:  # the old parsers' crashes
        return "crash", type(exc).__name__


def _bits(column: np.ndarray) -> bytes:
    return column.tobytes()


def _same(old, read, data, columns_match, must_fail=False):
    """The reader agrees with the old parser as the module docstring says:
    `columns_match(columns, objects)` checks an accepted input, and
    `must_fail` marks an input the reader rejects whatever the old parser
    did. Returns the old outcome and the reader's."""
    want, got = _outcome(old, data), _outcome(read, data)
    if must_fail or want[0] == "crash":
        assert got[0] == "error", (want, got)
    elif want[0] == "error":
        assert got == want
    else:
        assert got[0] == "ok", (want, got)
        columns_match(got[1], want[1])
    return want, got


# ---------------------------------------------------------------------------
# CSV inputs
# ---------------------------------------------------------------------------

# Tokens int() / float() read in their own way, all valid floats.
ODD_NUMBERS = (" 7 ", "1e3", "1_0", "-0.0", "+2", "2.5", "3.")
ODD_TOKENS = ("oops", "nan", "inf", "-inf", "", "0", "-1", "1e400", "0x10",
              "1.5.", "1 0")
coords = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-50, 50).map(str),
                   st.sampled_from(ODD_NUMBERS))
sizes = st.one_of(st.floats(0.5, 100).map(repr), st.integers(1, 9).map(str),
                  st.sampled_from(tuple(t for t in ODD_NUMBERS if t != "-0.0")))
small_ints = st.one_of(st.integers(1, 6).map(str), st.sampled_from((" 2 ", "1_0", "+3")))


@st.composite
def csv_lines(draw, kind: str):
    """Track or detection CSV lines, mostly valid; about one line in six
    has an odd token or a wrong field count, and blank lines and repeated
    (track, frame) pairs occur."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        box = [draw(coords), draw(coords), draw(sizes), draw(sizes)]
        if kind == "tracks":
            fields = [draw(small_ints), draw(st.integers(1, 3).map(str)), *box]
        else:
            score = draw(st.one_of(st.floats(0, 1).map(repr), st.sampled_from(ODD_NUMBERS)))
            fields = [draw(small_ints), "-1", *box, score, "-1", "-1",
                      draw(st.sampled_from(("-1", "x", "")))]
        fault = draw(st.integers(0, 11))
        if fault == 0:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif fault == 1:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
        lines.append(",".join(fields))
        if not draw(st.integers(0, 7)):
            lines.append(draw(st.sampled_from(("", "   ", "\t"))))
    return lines


TRACK_LINES = ["1,1,10,20,30,40", "2,1,12.5,20,30,40", "1,2,100,0,5,5",
               "3,1,14,20,30,40"]
DETECTION_LINES = ["1,-1,10,20,30,40,0.9,-1,-1,-1", "1,-1,0,0,5,5,0.25,-1,-1,-1",
                   "2,-1,11,20,30,40,0.8,x,y,z"]


@pytest.mark.parametrize("kind", ["tracks", "detections"])
def test_every_single_token_fault_matches_old_parser(kind):
    """Each field of two lines replaced by each odd token: the reader
    rejects exactly what the old parser rejected, with its message."""
    if kind == "tracks":
        base, old, read, match = (TRACK_LINES, old_parse_tracks, read_tracks,
                                  _track_columns_match)
    else:
        base, old, read, match = (DETECTION_LINES, old_parse_detections,
                                  read_detections, _detection_columns_match)
    for line in (0, 2):
        for field in range(len(base[line].split(","))):
            for token in ODD_TOKENS + ODD_NUMBERS:
                fields = base[line].split(",")
                fields[field] = token
                lines = [*base[:line], ",".join(fields), *base[line + 1:]]
                _same(old, read, lines, match)


def _box_columns_match(cols, boxes: list[BBox]) -> None:
    for name in ("left", "top", "width", "height", "right", "bottom"):
        assert _bits(getattr(cols, name)) == _bits(
            np.array([getattr(b, name) for b in boxes], dtype=np.float64))


def _track_columns_match(cols, tracks: TrackSet) -> None:
    rows = [(tr.track_id, f, b) for tr in tracks.tracks for f, b in tr.boxes]
    assert cols.track_id.tolist() == [tid for tid, _, _ in rows]
    assert cols.frame.tolist() == [f for _, f, _ in rows]
    _box_columns_match(cols, [b for _, _, b in rows])


def _detection_columns_match(cols, dets: DetectionSet) -> None:
    assert cols.frame.tolist() == [d.frame for d in dets]
    assert _bits(cols.score) == _bits(np.array([d.score for d in dets],
                                               dtype=np.float64))
    _box_columns_match(cols, [d.box for d in dets])


@given(csv_lines("tracks"))
@settings(max_examples=400, deadline=None)
def test_parse_tracks_equals_old_parser(lines):
    _same(old_parse_tracks, read_tracks, lines, _track_columns_match)


@given(csv_lines("detections"))
@settings(max_examples=400, deadline=None)
def test_parse_detections_equals_old_parser(lines):
    _same(old_parse_detections, read_detections, lines, _detection_columns_match)


def test_csv_token_parsing_matches_float_and_int():
    lines = ["1_0, 7 ,-0.0,1e3,1_0.5, 2 "]
    cols = read_tracks(lines)
    _track_columns_match(cols, old_parse_tracks(lines))
    assert (cols.frame.tolist(), cols.track_id.tolist()) == ([10], [7])
    assert _bits(cols.left) == struct.pack("<d", -0.0)
    assert (cols.top.tolist(), cols.width.tolist(), cols.height.tolist()) == (
        [1000.0], [10.5], [2.0])


@pytest.mark.parametrize("lines,message", [
    (["1,1,0,0,5,5", "1,1,9,9,5,5"], "line 2: track 1 already has a box at frame 1 (line 1)"),
    (["1,1,0,0,0,5", "1,2,oops,0,5,5"], "line 1: degenerate box: width must be > 0, got 0.0"),
    (["", "1,0,oops,0,5,5"], "line 2: track_id must be a positive integer, got 0"),
    (["1,2,0,0,5,5", "0,3,0,0,5,5", "-1,2,0,0,5,5"], "output track 2: frames must be >= 1"),
    (["1,1,nan,0,5,5"], "line 1: BBox.left must be finite, got nan"),
    (["1,1,0,0,5"], "line 1: expected 6 comma-separated fields, got 5"),
])
def test_track_errors_name_the_first_offending_line(lines, message):
    for parse in (old_parse_tracks, read_tracks):
        with pytest.raises(ValidationError) as exc:
            parse(lines)
        assert str(exc.value) == message


def test_ids_beyond_int64_are_rejected():
    with pytest.raises(ValidationError, match="line 2: frame out of range"):
        read_tracks(["1,1,0,0,5,5", f"{2 ** 63},1,0,0,5,5"])
    with pytest.raises(ValidationError, match="target_id out of range"):
        read_ground_truth(json.dumps({
            "sequence_id": "s", "frame_count": 1, "tracks": [
                {"target_id": 2 ** 63, "entries": [
                    {"frame": 1, "left": 0, "top": 0, "width": 1, "height": 1}]}]}))


# ---------------------------------------------------------------------------
# Ground truth inputs
# ---------------------------------------------------------------------------

# Values that replace a field. Containers the old parser iterated
# silently (strings, objects) and ints beyond int64 are left out for the
# list-valued fields: there the new reader deliberately differs.
BAD_VALUES = ("x", None, "1.5", "7", " 3 ", 1e3, -0.0, math.nan, math.inf,
              -math.inf, 0, -1, 2.7, True, [1], {}, "car", 10)
BAD_LIST_VALUES = (1, None, 2.5, True, [1], ["x"], [[]])
LIST_KEYS = ("tracks", "entries", "ignore_regions")

numbers = st.one_of(st.floats(-500, 500), st.integers(-50, 50))
box_sizes = st.one_of(st.floats(0.5, 100), st.integers(1, 9))
ratios = st.one_of(st.floats(0, 1), st.sampled_from((0, 1, 0.0, 1.0)))


@st.composite
def gt_texts(draw):
    frame_count = draw(st.integers(1, 5))
    tracks = []
    for t in range(draw(st.integers(0, 3))):
        frames = sorted(draw(st.sets(st.integers(1, frame_count), min_size=1, max_size=3)))
        entries = [{"frame": f, "left": draw(numbers), "top": draw(numbers),
                    "width": draw(box_sizes), "height": draw(box_sizes),
                    "occlusion": draw(ratios), "truncation": draw(ratios),
                    "category": draw(st.sampled_from(CATEGORIES))}
                   for f in frames]
        tracks.append({"target_id": t + 1, "entries": entries})
    regions = []
    for _ in range(draw(st.integers(0, 2))):
        region = {"left": draw(numbers), "top": draw(numbers),
                  "width": draw(box_sizes), "height": draw(box_sizes)}
        if draw(st.booleans()):
            first = draw(st.integers(1, frame_count))
            region.update(first_frame=first, last_frame=first + draw(st.integers(0, 2)))
        regions.append(region)
    doc = {"sequence_id": "s", "frame_count": frame_count,
           "weather": draw(st.sampled_from(WEATHERS)),
           "difficulty": draw(st.sampled_from(DIFFICULTIES)),
           "ignore_regions": regions, "tracks": tracks}
    for _ in range(draw(st.integers(0, 2))):
        _corrupt(draw, doc)
    return json.dumps(doc)


def _objects(doc):
    """Every JSON object in the document, the document first."""
    yield doc
    for value in doc.values():
        for item in value if isinstance(value, list) else ():
            if isinstance(item, dict):
                yield from _objects(item)


def _corrupt(draw, doc) -> None:
    """Replace, delete or add one field, or swap a list item for a scalar."""
    target = draw(st.sampled_from(list(_objects(doc))))
    keys = sorted(target) + ["first_frame", "last_frame", "target_id", "frame"]
    key = draw(st.sampled_from(keys))
    action = draw(st.sampled_from(("replace", "delete", "item", "duplicate")))
    if action == "delete":
        target.pop(key, None)
    elif action == "item" and isinstance(target.get(key), list) and target[key]:
        target[key][draw(st.integers(0, len(target[key]) - 1))] = draw(
            st.sampled_from((1, "x", None, [1])))
    elif action == "duplicate" and isinstance(doc.get("tracks"), list) \
            and doc["tracks"]:
        # a repeated target id, and a repeated or unsorted frame
        track = draw(st.sampled_from(doc["tracks"]))
        if isinstance(track, dict) and isinstance(track.get("entries"), list) \
                and track["entries"]:
            entry = draw(st.sampled_from(track["entries"]))
            track["entries"].append(copy.deepcopy(entry))
        doc["tracks"].append(copy.deepcopy(track))
    else:
        pool = BAD_LIST_VALUES if key in LIST_KEYS else BAD_VALUES
        target[key] = draw(st.sampled_from(pool))


def _base_doc() -> dict:
    entry = {"left": 10, "top": 20.5, "width": 30, "height": 40.25,
             "occlusion": 0.25, "truncation": 0.0, "category": "bus"}
    return {"sequence_id": "s", "frame_count": 4, "weather": "night",
            "difficulty": "hard",
            "ignore_regions": [
                {"left": 0, "top": 0, "width": 50, "height": 50},
                {"left": 5, "top": 5, "width": 9, "height": 9,
                 "first_frame": 2, "last_frame": 3}],
            "tracks": [{"target_id": tid, "entries": [
                dict(entry, frame=f) for f in (1, 2, 4)]} for tid in (1, 2)]}


def _gt_single_faults():
    """Every field of the document, a track, an entry and a region set to
    each odd value or deleted, plus repeated ids and frames."""
    paths = [(), ("tracks", 1), ("tracks", 0, "entries", 0),
             ("tracks", 1, "entries", 1), ("ignore_regions", 1)]
    extra = ("first_frame", "last_frame", "frame", "target_id", "category")
    for path in paths:
        doc = _base_doc()
        target = doc
        for step in path:
            target = target[step]
        for key in sorted(set(target) | set(extra)):
            pool = BAD_LIST_VALUES if key in LIST_KEYS else BAD_VALUES
            for value in (*pool, "<delete>"):
                doc = _base_doc()
                target = doc
                for step in path:
                    target = target[step]
                if value == "<delete>":
                    target.pop(key, None)
                else:
                    target[key] = value
                yield doc
    for edit in ("repeat-id", "repeat-id-apart", "repeat-frame", "unsorted",
                 "late", "no-frames"):
        doc = _base_doc()
        entries = doc["tracks"][1]["entries"]
        if edit == "repeat-id":
            doc["tracks"][1]["target_id"] = 1
        elif edit == "repeat-id-apart":
            doc["tracks"].append(dict(doc["tracks"][0], entries=entries[2:]))
        elif edit == "no-frames":
            doc.update(tracks=[], frame_count=0)
        elif edit == "repeat-frame":
            entries[2]["frame"] = 2
        elif edit == "unsorted":
            entries.reverse()
        else:
            entries[2]["frame"] = 5
        yield doc


def _gt_columns_match(cols, gt: GroundTruth) -> None:
    rows = [(tr.target_id, e) for tr in gt.tracks for e in tr.entries]
    assert cols.target_id.tolist() == [tid for tid, _ in rows]
    assert cols.frame.tolist() == [e.frame for _, e in rows]
    assert list(cols.category) == [e.category for _, e in rows]
    for name, get in (("occlusion", lambda e: e.occlusion_ratio),
                      ("truncation", lambda e: e.truncation_ratio)):
        assert _bits(getattr(cols, name)) == _bits(
            np.array([get(e) for _, e in rows], dtype=np.float64))
    _box_columns_match(cols, [e.box for _, e in rows])
    regions = gt.ignore_regions
    _box_columns_match(cols.ignore, [r.box for r in regions])
    assert _canon((cols.ignore.first_frame, cols.ignore.last_frame)) == _canon(
        (tuple(r.first_frame for r in regions),
         tuple(r.last_frame for r in regions)))
    fields = ("sequence_id", "frame_count", "weather", "difficulty")
    assert _canon(tuple(getattr(cols, f) for f in fields)) == _canon(
        tuple(getattr(gt, f) for f in fields))


def _is_int(value) -> bool:
    return type(value) is int or (type(value) is float and value.is_integer())


def _converted(value) -> bool:
    """Whether the old parser's int() took a value the reader rejects."""
    try:
        int(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return not _is_int(value)


def _loose_int(text: str) -> bool:
    """Whether a GT integer field the reader reaches holds a value the old
    parser converted but the reader rejects ("7", " 3 ", 2.7, True)."""
    doc = json.loads(text)
    values = [doc.get("frame_count", 0)]
    tracks = doc.get("tracks")
    for track in tracks if type(tracks) is list else ():
        if type(track) is dict:
            values.append(track.get("target_id", 0))
            entries = track.get("entries")
            values.extend(e.get("frame", 0)
                          for e in (entries if type(entries) is list else ())
                          if type(e) is dict)
    return any(map(_converted, values))


def _same_gt(text: str):
    return _same(old_parse_ground_truth, read_ground_truth, text,
                 _gt_columns_match, must_fail=_loose_int(text))


def test_every_single_gt_fault_matches_old_parser():
    for doc in _gt_single_faults():
        _same_gt(json.dumps(doc))


# Where each GT integer field sits in `_base_doc`, and how its errors name it.
INT_FIELDS = [((), "frame_count", "frame_count"),
              (("tracks", 1), "target_id", "tracks[1].target_id"),
              (("tracks", 1, "entries", 2), "frame", "tracks[1].entries[2].frame")]


def _field(doc: dict, path: tuple) -> dict:
    for step in path:
        doc = doc[step]
    return doc


@pytest.mark.parametrize("path,key,where", INT_FIELDS)
@pytest.mark.parametrize("value", [1.9, 2.7, 3.9, "2", " 3 ", True, False,
                                   math.nan, math.inf, [1], None])
def test_gt_integer_fields_are_not_truncated(path, key, where, value):
    """An integer field holding anything but an int or an integral float
    is an error naming it; the old parser truncated 1.9, "2" and True."""
    doc = _base_doc()
    _field(doc, path)[key] = value
    with pytest.raises(ValidationError) as exc:
        read_ground_truth(json.dumps(doc))
    assert str(exc.value) == f"{where} must be an integer, got {value!r}"


@pytest.mark.parametrize("path,key,where", INT_FIELDS)
def test_gt_integral_floats_are_read_as_integers(path, key, where):
    doc = _base_doc()
    want = read_ground_truth(json.dumps(doc))
    _field(doc, path)[key] = float(_field(doc, path)[key])
    got = read_ground_truth(json.dumps(doc))
    assert (got.frame_count, got.target_id.tolist(), got.frame.tolist()) == (
        want.frame_count, want.target_id.tolist(), want.frame.tolist())
    assert type(got.frame_count) is int and got.frame.dtype == np.int64


@pytest.mark.parametrize("value,error", [
    (1.5, "must be an integer, got 1.5"), (True, "must be an integer, got True"),
    ("3", "must be an integer, got '3'"), (1e300, "out of range: 1e+300"),
    (3.0, None)])
def test_ignore_region_spans_follow_the_integer_rule(value, error):
    """An ignore-region span bound is an int or an integral float within
    int64, read as an int; the reader and `IgnoreRegion` give one text."""
    doc = _base_doc()
    doc["ignore_regions"][1]["first_frame"] = value
    outcomes = [_outcome(read_ground_truth, json.dumps(doc)),
                _outcome(lambda v: IgnoreRegion(BBox(5, 5, 9, 9), v, 3), value)]
    if error is not None:
        want = ("error", f"ignore region: first_frame {error}")
        assert outcomes == [want, want]
        return
    (kind, cols), (_, region) = outcomes
    assert kind == "ok" and cols.ignore.first_frame == (None, 3)
    assert type(cols.ignore.first_frame[1]) is int
    assert type(region.first_frame) is int and region.first_frame == 3


@given(gt_texts())
@settings(max_examples=500, deadline=None)
def test_parse_ground_truth_equals_old_parser(text):
    want, got = _same_gt(text)
    if got[0] == "ok":
        assert want[1].columns.frame.tolist() == got[1].frame.tolist()


# ---------------------------------------------------------------------------
# BBox and GtEntry checks
# ---------------------------------------------------------------------------

def _old_bbox_check(left, top, width, height) -> None:
    """BBox.__post_init__ before the combined check."""
    values = {"left": left, "top": top, "width": width, "height": height}
    for name in ("left", "top", "width", "height"):
        v = values[name]
        _check(isinstance(v, (int, float)) and math.isfinite(v),
               f"BBox.{name} must be finite, got {v!r}")
    _check(width > 0, f"degenerate box: width must be > 0, got {width}")
    _check(height > 0, f"degenerate box: height must be > 0, got {height}")


def _old_entry_check(frame, occlusion, truncation, category) -> None:
    """GtEntry.__post_init__ before the combined check."""
    _check(frame >= 1, f"GtEntry.frame must be >= 1, got {frame}")
    _check(0.0 <= occlusion <= 1.0,
           f"occlusion_ratio out of range [0,1]: {occlusion}")
    _check(0.0 <= truncation <= 1.0,
           f"truncation_ratio out of range [0,1]: {truncation}")
    _check(category in CATEGORIES,
           f"unknown category {category!r}, expected one of {CATEGORIES}")


def _result(make, *args):
    try:
        make(*args)
        return "ok"
    except ValidationError as exc:
        return "error", str(exc)
    except Exception as exc:
        return type(exc).__name__


BOX_VALUES = (0, 1, -1, 2.5, 0.0, -0.0, True, False, np.float64(3.0),
              np.float64("nan"), np.int64(4), math.nan, math.inf, -math.inf,
              "1", None, 10 ** 400)


def test_bbox_accept_set_and_messages_unchanged():
    for args in itertools.product(BOX_VALUES, repeat=4):
        assert _result(BBox, *args) == _result(_old_bbox_check, *args), args


def test_gt_entry_accept_set_and_messages_unchanged():
    box = BBox(0, 0, 1, 1)
    frames = (1, 0, -1, 2, True, False, 2.5, 0.5, np.int64(3), "1", None)
    ratios = (0.0, 1.0, 0.5, -0.1, 1.1, -0.0, math.nan, True, 2,
              np.float64(0.3), "x")
    categories = ("car", "others", "x", None, ["car"], 1)
    for frame, occ, trunc, cat in itertools.product(frames, ratios, ratios,
                                                    categories):
        assert (_result(GtEntry, frame, box, occ, trunc, cat)
                == _result(_old_entry_check, frame, occ, trunc, cat)), \
            (frame, occ, trunc, cat)
