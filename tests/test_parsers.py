"""The columnar readers against the per-line parsers they replaced.

The `old_*` functions below are the parsers as they were before the
columnar readers, copied verbatim apart from their names; they build the
domain objects one line or entry at a time (the detection and track
containers, which the library no longer has, from `reference_containers`).
On valid and corrupted inputs each `read_*` function must give columns
holding the old objects' values, floats bit-identical (so equal to
`float(token)`), or the same `ValidationError` text. Where the old parser
crashed with another exception, the reader must raise `ValidationError`.
The GT integer fields (`frame_count`, `target_id`, `frame`) are the one
deliberate difference: the old parser truncated any value `int()` takes,
the reader accepts only an int or a float with an integral value, so where
such a field holds a value the old parser converted (`"7"`, `2.7`, `True`)
the reader must raise `ValidationError` whatever the old parser did.
"""

import copy
import dataclasses
import itertools
import json
import math
import struct
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, TextIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detraceval import datamodel
from detraceval.datamodel import (CATEGORIES, DIFFICULTIES, WEATHERS, BBox,
                                  GroundTruth, GtEntry, GtTrack, IgnoreRegion,
                                  ValidationError, _check, read_detections,
                                  read_ground_truth, read_tracks)
from reference_containers import Detection, DetectionSet, OutTrack, TrackSet


@pytest.fixture(autouse=True)
def _small_gt_batches(monkeypatch):
    """The GT reader converts 2 entries a batch in every test here, so the
    GT fixtures and fuzz also join the columns of many batches."""
    monkeypatch.setattr(datamodel, "_GT_BATCH_ENTRIES", 2)


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
    corners = cols.corners()
    for name, column in (("left", cols.left), ("top", cols.top),
                         ("width", cols.width), ("height", cols.height),
                         ("right", corners[:, 2]), ("bottom", corners[:, 3])):
        assert _bits(column) == _bits(
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


def test_ids_beyond_int64_are_rejected():
    with pytest.raises(ValidationError, match="line 2: frame out of range"):
        read_tracks(["1,1,0,0,5,5", f"{2 ** 63},1,0,0,5,5"])
    with pytest.raises(ValidationError, match="target_id out of range"):
        read_ground_truth(json.dumps({
            "sequence_id": "s", "frame_count": 1, "tracks": [
                {"target_id": 2 ** 63, "entries": [
                    {"frame": 1, "left": 0, "top": 0, "width": 1, "height": 1}]}]}))


# ---------------------------------------------------------------------------
# The one-pass conversion against the per-token path
# ---------------------------------------------------------------------------

_INT64_EDGES = (2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1, 10 ** 30)
_SPACES = ("", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "　")


def _any_case(word: str):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper)))


# The token forms `int()` and `float()` accept or reject, numpy's loadtxt
# reading some of them otherwise: ints beyond int64, underscores and
# non-ASCII digits, which it refuses; a float in an int column, which
# numpy 1.x reads with a warning; the separators \x1c-\x1f, which it
# strips as spaces, and non-ASCII characters, which its int parser
# misreads as digits; and short texts of any characters.
_TOKENS = st.one_of(
    st.integers(-10, 10).map(str), st.sampled_from(_INT64_EDGES).map(str),
    st.floats(allow_nan=False).map(repr), st.floats(width=32).map(str),
    st.tuples(st.sampled_from(("", "+", "-")), st.integers(0, 99),
              st.sampled_from(("", ".", ".5")), st.sampled_from(("e", "E")),
              st.sampled_from(("", "+", "-")), st.integers(0, 400)).map(
        lambda t: f"{t[0]}{t[1]}{t[2]}{t[3]}{t[4]}{t[5]}"),
    st.tuples(st.sampled_from(("", "+", "-")),
              st.sampled_from(("inf", "infinity", "nan")).flatmap(_any_case)).map("".join),
    st.sampled_from(("1.0", "-0.0", "1_0", "1__0", "_1", "1_", "1_0.5", "1e1_0",
                     "5e-324", "2.4e-324", "4.9e-324", "1e-310",
                     "2.2250738585072014e-308", "1e400", "-1e400",
                     "١", "٣.٥", "１２", "१",
                     "", ".", "e5", "1e", "0x10", "1d5", "2j", "nan(1)",
                     "1 2", "#1", "1#", "#", '"1"', '"', "1\x00", "+-1",
                     "1\x1c", "\x1f-2", "1\u01fe", "\U00010112")),
    st.text(st.characters(codec="ascii", exclude_characters=",\n\r"), max_size=3),
    st.text(st.characters(exclude_characters=",\n\r", exclude_categories=("Cs",)),
            max_size=2))
_FIELD = st.tuples(st.sampled_from(_SPACES), _TOKENS,
                   st.sampled_from(_SPACES)).map("".join)


@st.composite
def _token_lines(draw, n_fields: int) -> list[str]:
    """Lines of plain fields with drawn tokens among them; a line may have
    a field more or less."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        fields = [draw(st.integers(1, 3).map(str)) for _ in range(n_fields)]
        for i in draw(st.sets(st.integers(0, n_fields - 1), max_size=3)):
            fields[i] = draw(_FIELD)
        extra = draw(st.sampled_from((0,) * 8 + (-1, 1)))
        lines.append(",".join(fields[:n_fields + extra] + ["1"] * extra))
    return lines


def _per_token(read, lines):
    """`read(lines)` with numpy's one-pass conversion refusing every file,
    so each token goes through int() or float()."""
    def refuse(*args, **kwargs):
        raise ValueError("refused")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        return _columns_or_error(read, lines)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(((read_tracks, 6), (read_detections, 10))).flatmap(
    lambda case: st.tuples(st.just(case[0]), _token_lines(case[1]))))
@example((read_tracks, []))
@example((read_tracks, ["1_0,1,0,0,5,5"]))
@example((read_tracks, ["1.0,1,0,0,5,5"]))
@example((read_tracks, [f"1,{2 ** 63},0,0,5,5"]))
@example((read_detections, ["1,-1,0,0,5,٥,0.5,-1,-1,-1"]))
@example((read_detections, ["1,-1,0,0,5,5,#1,-1,-1,-1"]))
@example((read_tracks, ["1,1\u01fe,0,0,5,5"]))
@example((read_detections, ["0\x1c,-1,0,0,5,5,0.5,-1,-1,-1"]))
def test_one_pass_conversion_equals_the_per_token_path(case):
    """For every token form, the readers give the columns, bit for bit, or
    the error text that converting each token with int() or float() gives."""
    read, lines = case
    assert _columns_or_error(read, lines) == _per_token(read, lines)


def test_plain_csv_is_converted_in_one_numpy_pass(monkeypatch):
    """A file of plain tokens takes numpy's one pass, whose result the
    reader keeps; a warning from it sends the file to the per-token path,
    as numpy 1.x warns where it reads a float into an int column."""
    calls = []

    def spy(*args, _loadtxt=np.loadtxt, **kwargs):
        calls.append(kwargs["usecols"])
        return _loadtxt(*args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", spy)
    want = [_per_token(read, lines) for read, lines in (
        (read_tracks, TRACK_LINES), (read_detections, DETECTION_LINES))]
    assert [_columns_or_error(read_tracks, TRACK_LINES),
            _columns_or_error(read_detections, DETECTION_LINES)] == want
    assert calls == [[0, 1, 2, 3, 4, 5], [0, 2, 3, 4, 5, 6]]

    def truncating(*args, _loadtxt=np.loadtxt, **kwargs):
        warnings.warn("parsing an integer via a float", DeprecationWarning)
        return _loadtxt([line.replace("1.5,", "1,", 1) for line in args[0]],
                        **kwargs)
    monkeypatch.setattr(np, "loadtxt", truncating)
    lines = ["1.5,1,0,0,5,5"]
    assert _columns_or_error(read_tracks, lines) == (
        "error", "line 1: malformed frame: '1.5'")


def test_readers_on_threads_leave_the_warning_filters_as_they_were():
    """The one pass turns warnings into errors for the whole process while
    it runs. Readers on more threads than cores, switching often, with
    every third file empty (numpy warns on it), give their own columns and
    leave the filters of the process as they found them."""
    filters = list(warnings.filters)
    files = [[], TRACK_LINES, ["1,1,0,0,5,5"]] * 40
    want = [_columns_or_error(read_tracks, lines) for lines in files]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda lines: _columns_or_error(read_tracks, lines),
                                files, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert warnings.filters == filters


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
        # a copy: a later "item" corruption must not write into the pool
        target[key] = copy.deepcopy(draw(st.sampled_from(pool)))


def test_corrupt_leaves_the_value_pools_unchanged():
    """Replace `tracks` with the pool's `[1]`, then set its item 0: the
    pools Hypothesis draws from later stay as they were."""
    pools = copy.deepcopy((BAD_VALUES, BAD_LIST_VALUES))
    doc = _base_doc()
    # what each `draw` returns, in turn (an item's new value before its
    # index); `sampled_from` gives the pool's own object
    script = iter([doc, "tracks", "replace", BAD_LIST_VALUES[4],
                   doc, "tracks", "item", "x", 0])
    for _ in range(2):
        _corrupt(lambda strategy: next(script), doc)
    assert doc["tracks"] == ["x"]
    assert (BAD_VALUES, BAD_LIST_VALUES) == pools


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
    assert [CATEGORIES[c] for c in cols.category] == [e.category for _, e in rows]
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


def _gt_text(*edits) -> str:
    """`_base_doc` as JSON with each (path, key, value) edit made; the
    value `...` deletes the key."""
    doc = _base_doc()
    for path, key, value in edits:
        if value is ...:
            del _field(doc, path)[key]
        else:
            _field(doc, path)[key] = value
    return json.dumps(doc)


ENTRY = ("tracks", 0, "entries", 0)
# Inputs that break several rules, each with the error of the first break
# in the format's check order: a row's rules come after the conversions
# they follow and before the ones that follow them, a track's rules after
# its entries, and the document's rules before the duplicate-id and
# beyond-frame_count rules, which go track by track.
ORDERING_CASES = {
    "gt-box-before-occlusion-conversion": (
        _gt_text((ENTRY, "width", -1), (ENTRY, "occlusion", "x")),
        "degenerate box: width must be > 0, got -1.0", read_ground_truth),
    "gt-entry-rules-before-next-entry": (
        _gt_text((ENTRY, "occlusion", 1.5), (("tracks", 0, "entries", 1), "frame", "x")),
        "occlusion_ratio out of range [0,1]: 1.5", read_ground_truth),
    "gt-track-rules-before-next-track": (
        _gt_text((("tracks", 0), "entries", _base_doc()["tracks"][0]["entries"][::-1]),
                 (("tracks", 1, "entries", 0), "left", ...)),
        "track 1: frames must be strictly increasing (duplicate or unsorted frame)",
        read_ground_truth),
    "gt-document-before-frame-count": (
        _gt_text((("tracks", 0, "entries", 2), "frame", 5), ((), "weather", "fog")),
        f"unknown weather 'fog', expected one of {WEATHERS}", read_ground_truth),
    "gt-duplicate-id-before-its-frames": (
        _gt_text((("tracks", 1), "target_id", 1), (("tracks", 1, "entries", 2), "frame", 5)),
        "duplicate target_id 1", read_ground_truth),
    "gt-entries-before-target-id-conversion": (
        _gt_text((("tracks", 1), "target_id", "x"), (("tracks", 1, "entries", 0), "width", 0)),
        "degenerate box: width must be > 0, got 0.0", read_ground_truth),
    "tracks-track-id-before-box-conversion": (
        ["1,0,oops,0,5,5"], "line 1: track_id must be a positive integer, got 0",
        read_tracks),
    "detections-conversion-before-box": (
        ["1,-1,0,0,0,5,x,-1,-1,-1"], "line 1: malformed score: 'x'", read_detections),
    "detections-frame-before-score": (
        ["0,-1,0,0,5,5,nan,-1,-1,-1", "1,-1,oops,0,5,5,0.5,-1,-1,-1"],
        "line 1: Detection.frame must be >= 1, got 0", read_detections),
}
OLD_PARSERS = {read_tracks: old_parse_tracks, read_detections: old_parse_detections,
               read_ground_truth: old_parse_ground_truth}


@pytest.mark.parametrize("lines,message,read", [
    (["1,1,0,0,5,5", "1,1,9,9,5,5"], "line 2: track 1 already has a box at frame 1 (line 1)",
     read_tracks),
    (["1,1,0,0,0,5", "1,2,oops,0,5,5"], "line 1: degenerate box: width must be > 0, got 0.0",
     read_tracks),
    (["", "1,0,oops,0,5,5"], "line 2: track_id must be a positive integer, got 0",
     read_tracks),
    (["1,2,0,0,5,5", "0,3,0,0,5,5", "-1,2,0,0,5,5"], "output track 2: frames must be >= 1",
     read_tracks),
    (["1,1,nan,0,5,5"], "line 1: BBox.left must be finite, got nan", read_tracks),
    (["1,1,0,0,5"], "line 1: expected 6 comma-separated fields, got 5", read_tracks),
    *(pytest.param(*case, id=name) for name, case in ORDERING_CASES.items()),
])
def test_track_errors_name_the_first_offending_line(lines, message, read):
    for parse in (OLD_PARSERS[read], read):
        with pytest.raises(ValidationError) as exc:
            parse(lines)
        assert str(exc.value) == message


def _columns_or_error(read, data):
    """A reader's columns as comparable values, or its error text."""
    def canon(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.tobytes()
        if dataclasses.is_dataclass(value):
            return tuple(canon(getattr(value, f.name))
                         for f in dataclasses.fields(value))
        return _canon(value)
    try:
        return "ok", canon(read(data))
    except ValidationError as exc:
        return "error", str(exc)


def test_readers_build_no_box_objects(monkeypatch):
    """The readers state their rules on columns and build no per-box
    object, on the error path too: with every container constructor
    refusing to run, each single-token and single-GT fault, each ordering
    case and each valid input gives the same columns or error text."""
    cases = [(read_tracks, TRACK_LINES), (read_detections, DETECTION_LINES),
             (read_ground_truth, json.dumps(_base_doc())),
             *((read, data) for data, _, read in ORDERING_CASES.values()),
             *((read_ground_truth, json.dumps(doc)) for doc in _gt_single_faults())]
    for read, base in ((read_tracks, TRACK_LINES), (read_detections, DETECTION_LINES)):
        for line, field, token in itertools.product(
                (0, 2), range(len(base[0].split(","))), ODD_TOKENS + ODD_NUMBERS):
            fields = base[line].split(",")
            fields[field] = token
            cases.append((read, [*base[:line], ",".join(fields), *base[line + 1:]]))
    want = [_columns_or_error(read, data) for read, data in cases]

    def refuse(self):
        raise AssertionError(f"a reader built a {type(self).__name__}")

    for cls in (BBox, GtEntry, GtTrack, GroundTruth, IgnoreRegion):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert [_columns_or_error(read, data) for read, data in cases] == want


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


@pytest.mark.parametrize("value", ["truck", "Car", "car ", "", 3, 1.5, None,
                                   True, [1], ["car"], {"car": 1}])
def test_a_category_outside_the_list_is_named(value):
    """A category that is none of CATEGORIES, of any JSON type, is named in
    the old parser's message."""
    text = _gt_text((("tracks", 1, "entries", 1), "category", value))
    assert _same_gt(text)[1] == (
        "error", f"unknown category {value!r}, expected one of {CATEGORIES}")


@pytest.mark.parametrize("category,error", [
    (..., "track 2: left must be a number, got 'x'"),
    ("car", "track 2: left must be a number, got 'x'"),
    ([1], f"unknown category [1], expected one of {CATEGORIES}")])
def test_categories_of_a_walked_document(category, error):
    """Where a later value does not convert, the walk reads a missing
    category as "car", and an unknown one is the error that comes first."""
    text = _gt_text((ENTRY, "category", category),
                    (("tracks", 1, "entries", 2), "left", "x"))
    assert _same_gt(text)[1] == ("error", error)


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
    """GtEntry.__post_init__ before the combined check, behind the GT
    integer rule on the frame (Python or numpy integers and integral
    floats; never a bool), which the constructor applies first."""
    _check((isinstance(frame, (int, np.integer)) and not isinstance(frame, bool))
           or (isinstance(frame, float) and frame.is_integer()),
           f"GtEntry.frame must be an integer, got {frame!r}")
    _check(frame >= 1, f"GtEntry.frame must be >= 1, got {int(frame)}")
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
    frames = (1, 0, -1, 2, True, False, 2.5, 0.5, 3.0, -0.0, np.int64(3),
              "1", None)
    ratios = (0.0, 1.0, 0.5, -0.1, 1.1, -0.0, math.nan, True, 2,
              np.float64(0.3), "x")
    categories = ("car", "others", "x", None, ["car"], 1)
    for frame, occ, trunc, cat in itertools.product(frames, ratios, ratios,
                                                    categories):
        assert (_result(GtEntry, frame, box, occ, trunc, cat)
                == _result(_old_entry_check, frame, occ, trunc, cat)), \
            (frame, occ, trunc, cat)


# ---------------------------------------------------------------------------
# The GT document read one track at a time
# ---------------------------------------------------------------------------

def _whole_document(text: str):
    """The GT reader's whole-document path: json.loads, then conversion."""
    return datamodel._gt_from_document(datamodel._load_json(text))


_ws = st.text(" \t\r\n", max_size=2)
DEEP = 100_000  # far beyond any recursion limit


@st.composite
def gt_member_texts(draw):
    """A fuzz document written member by member: any order, unknown and
    repeated members (two ``tracks`` arrays among them), JSON whitespace
    of every kind, a BOM, text after the object, a broken separator or
    bracket, and a track nested beyond the recursion limit."""
    members = draw(st.permutations(list(json.loads(draw(gt_texts())).items())))
    for _ in range(draw(st.integers(0, 2))):
        members.insert(draw(st.integers(0, len(members))), (
            draw(st.sampled_from(("note", "Tracks", "notes", "", "tracks",
                                  "ignore_regions", "weather"))),
            draw(st.sampled_from((1, None, [], {"a": [1]}, "x", math.nan,
                                  [{"target_id": 9, "entries": []}])))))
    if draw(st.sampled_from((False,) * 19 + (True,))):
        members.insert(0, ("tracks", [{"target_id": 1, "deep": "@deep@",
                                       "entries": []}]))
    indent = draw(st.one_of(st.none(), st.integers(0, 2), _ws))
    separators = (draw(_ws) + "," + draw(_ws), draw(_ws) + ":" + draw(_ws))
    body = separators[0].join(
        json.dumps(key) + separators[1]
        + json.dumps(value, indent=indent, separators=separators)
        for key, value in members)
    text = (draw(st.sampled_from(("",) * 19 + ("\ufeff",))) + draw(_ws) + "{"
            + draw(_ws) + body + draw(_ws) + "}" + draw(_ws)
            + draw(st.sampled_from(("",) * 16 + ("x", "{}", ",", "]"))))
    if draw(st.sampled_from((False,) * 9 + (True,))):
        # a separator or bracket of the object or of an array in it; no
        # string here holds one of them
        depth, marks = 0, []
        for at, char in enumerate(text):
            depth -= char in "]}"
            if char in ",:[]{}" and depth <= 2:
                marks.append(at)
            depth += char in "[{"
        at = draw(st.sampled_from(marks))
        text = text[:at] + draw(st.sampled_from(";= ")) + text[at + 1:]
    return text.replace('"@deep@"', "[" * DEEP + "]" * DEEP)


@given(gt_member_texts(), st.sampled_from((1, 2, 3)))
@settings(max_examples=500, deadline=None)
@example("{}", 1)
@example('{"tracks": []}', 1)
@example('\ufeff{"sequence_id": "s", "frame_count": 1, "tracks": []}', 1)
@example('{"sequence_id": "s", "frame_count": 1, "tracks": [] } {}', 1)
@example('{"sequence_id": "s", "frame_count": 1, "tracks": [{"target_id": 1, '
         '"entries": [], "x": ' + "[" * DEEP + "]" * DEEP + "}]}", 1)
def test_streamed_gt_read_equals_the_whole_document_read(text, batch):
    """Read a member and a track at a time, in batches of `batch` entries,
    a GT text gives the columns, or the error text, of the whole-document
    read (json.loads, then `_gt_from_document`)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datamodel, "_GT_BATCH_ENTRIES", batch)
        got = _columns_or_error(read_ground_truth, text)
    assert got == _columns_or_error(_whole_document, text)


def _long_gt_text(**members) -> str:
    doc = _base_doc()
    doc["tracks"] = [{"target_id": tid, "entries": [
        dict(doc["tracks"][0]["entries"][0], frame=f, left=f + tid / 8)
        for f in range(1, 2 + tid % 3)]} for tid in range(1, 60)]
    return json.dumps({**members, **doc, "frame_count": 9}, indent=1)


@pytest.mark.parametrize("order", ["regions-first", "regions-last", "no-regions"])
def test_a_valid_document_is_read_one_track_at_a_time(order, monkeypatch):
    """Every member read on its own, the regions before or after the
    tracks or missing: the same columns as the whole-document read, which
    never runs."""
    doc = json.loads(_long_gt_text(note={"any": [1, 2]}))
    regions = doc.pop("ignore_regions")
    if order == "regions-last":
        doc["ignore_regions"] = regions
    elif order == "regions-first":
        doc = {"ignore_regions": regions, **doc}
    text = json.dumps(doc, indent=1)
    want = _columns_or_error(_whole_document, text)
    batches = []
    real = datamodel._gt_columns
    monkeypatch.setattr(datamodel, "_gt_columns",
                        lambda regions, tracks: batches.append(len(tracks))
                        or real(regions, tracks))
    monkeypatch.setattr(datamodel, "_load_json", None)  # the whole read fails
    assert _columns_or_error(read_ground_truth, text) == want
    assert want[0] == "ok" and len(batches) > 20


def test_a_text_shorter_than_one_batch_is_read_whole(monkeypatch):
    """A text too short to hold a batch of valid entries is one json.loads
    and one conversion, as before the reader streamed."""
    text = _long_gt_text()
    want = _columns_or_error(_whole_document, text)
    monkeypatch.setattr(datamodel, "_GT_BATCH_ENTRIES",
                        len(text) // datamodel._SHORTEST_ENTRY + 1)
    calls = []
    real = datamodel._gt_columns
    monkeypatch.setattr(datamodel, "_gt_columns", lambda *args: calls.append(1)
                        or real(*args))
    monkeypatch.setattr(datamodel, "_gt_streamed", None)  # never streams
    assert _columns_or_error(read_ground_truth, text) == want
    assert want[0] == "ok" and calls == [1]
