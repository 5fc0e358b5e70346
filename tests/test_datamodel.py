import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from box_columns import det_columns, track_columns
from detraceval import datamodel
from detraceval.datamodel import (CATEGORIES, BBox, GroundTruth, GtEntry,
                                  GtTrack, IgnoreRegion, Rows,
                                  ValidationError, read_detections,
                                  read_ground_truth, read_tracks,
                                  write_detections, write_ground_truth,
                                  write_tracks)
from detraceval.synth import ScenarioConfig, gen_scenario


def _typed(value):
    """A value with its type, a tuple item by item, so 1 != 1.0."""
    if isinstance(value, tuple):
        return tuple(map(_typed, value))
    return type(value), value


def assert_same_columns(got, want) -> None:
    """Equal column sets: same class, arrays with the same dtype and bytes,
    other fields equal with the same types."""
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field.name
        elif dataclasses.is_dataclass(b):
            assert_same_columns(a, b)
        else:
            assert _typed(a) == _typed(b), field.name


def roundtrip_gt(gt):
    """The GT written to JSON and read back as columns."""
    buf = io.StringIO()
    write_ground_truth(gt, buf)
    return read_ground_truth(buf.getvalue())


def test_minimal_gt_roundtrip():
    gt = GroundTruth(
        sequence_id="s1", frame_count=1,
        tracks=(GtTrack(1, (GtEntry(1, BBox(10, 10, 20, 20)),)),))
    back = roundtrip_gt(gt)
    assert back.target_id.tolist() == [1] and back.frame.tolist() == [1]
    assert_same_columns(back, gt.columns)


def test_occlusion_ratio_out_of_range():
    with pytest.raises(ValidationError, match="out of range"):
        GtEntry(1, BBox(0, 0, 5, 5), occlusion_ratio=1.2)


def test_degenerate_box_rejected():
    with pytest.raises(ValidationError, match="degenerate box"):
        BBox(0, 0, 0, 10)


def test_gt_roundtrip_random_scenarios():
    for seed in range(100):
        gt, _ = gen_scenario(ScenarioConfig(
            n_targets=1 + seed % 4, n_frames=1 + seed % 7,
            drop_rate=0.2, clutter_rate=1.0, jitter_sigma=2.0, seed=seed))
        assert_same_columns(roundtrip_gt(gt), gt.columns)


def test_detection_line_mapping():
    d = read_detections(["1,-1,10,10,20,20,0.9,-1,-1,-1"])
    assert len(d) == 1
    assert d.frame.tolist() == [1] and d.score.tolist() == [0.9]
    assert d.corners().tolist() == [[10, 10, 30, 30]]


def test_detection_roundtrip_random():
    for seed in range(50):
        _, dets = gen_scenario(ScenarioConfig(
            n_targets=3, n_frames=5, drop_rate=0.3, clutter_rate=2.0,
            jitter_sigma=1.3, seed=seed))
        buf = io.StringIO()
        write_detections(dets, buf)
        assert_same_columns(read_detections(buf.getvalue().splitlines()),
                            dets)


def test_track_degenerate_box_error():
    with pytest.raises(ValidationError, match="degenerate box"):
        read_tracks(["1,1,10,10,0,20"])


def test_track_roundtrip():
    ts = track_columns(
        (1, ((1, BBox(0, 0, 5, 5)), (2, BBox(1, 1, 5, 5)))),
        (2, ((1, BBox(50, 50, 8, 8)),)),
    )
    buf = io.StringIO()
    write_tracks(ts, buf)
    assert_same_columns(read_tracks(buf.getvalue().splitlines()), ts)


def test_malformed_line_reports_line_number():
    with pytest.raises(ValidationError, match="line 2"):
        read_detections(["1,-1,1,1,2,2,0.5,-1,-1,-1", "1,-1,oops,1,2,2,0.5,-1,-1,-1"])


def test_duplicate_frame_in_track_rejected():
    with pytest.raises(ValidationError):
        GtTrack(1, (GtEntry(3, BBox(0, 0, 1, 1)), GtEntry(3, BBox(5, 5, 1, 1))))
    with pytest.raises(ValidationError, match="already has a box"):
        read_tracks(["1,1,0,0,5,5", "1,1,9,9,5,5"])


def test_duplicate_target_id_rejected():
    tr = GtTrack(7, (GtEntry(1, BBox(0, 0, 1, 1)),))
    with pytest.raises(ValidationError, match="duplicate target_id"):
        GroundTruth("s", 2, (tr, tr))


def test_entry_frame_beyond_frame_count():
    with pytest.raises(ValidationError, match="beyond"):
        GroundTruth("s", 1, (GtTrack(1, (GtEntry(2, BBox(0, 0, 1, 1)),)),))


def test_ignore_region_frame_range():
    with pytest.raises(ValidationError, match="first_frame"):
        IgnoreRegion(BBox(0, 0, 5, 5), first_frame=4, last_frame=2)
    r = IgnoreRegion(BBox(0, 0, 5, 5), first_frame=2, last_frame=4)
    assert not r.active_at(1) and r.active_at(3) and not r.active_at(5)
    assert IgnoreRegion(BBox(0, 0, 5, 5)).active_at(999)


def test_filter_score_preserves_order():
    dets = det_columns(
        (1, BBox(0, 0, 5, 5), 0.9),
        (1, BBox(1, 1, 5, 5), 0.2),
        (2, BBox(2, 2, 5, 5), 0.5),
    )
    kept = dets.take(dets.score >= 0.5)
    assert kept.score.tolist() == [0.9, 0.5]
    assert kept.left.tolist() == [0, 2]


def test_write_tracks_orders_rows_by_track_id():
    ts = track_columns(
        (5, ((2, BBox(0, 0, 5, 5)), (3, BBox(1, 1, 5, 5.5)))),
        (2, ((1, BBox(50, 50, 8, 8)),)),
    )
    buf = io.StringIO()
    write_tracks(ts, buf)
    assert buf.getvalue() == "1,2,50,50,8,8\n2,5,0,0,5,5\n3,5,1,1,5,5.5\n"


def test_write_detections_writes_rows_in_order_with_canonical_numbers():
    dets = det_columns((2, BBox(1, 2.5, 3, 4), 0.25),
                       (1, BBox(1e16, -0.0, 1, 1), 1))
    buf = io.StringIO()
    write_detections(dets, buf)
    assert buf.getvalue() == ("2,-1,1,2.5,3,4,0.25,-1,-1,-1\n"
                              "1,-1,1e+16,0,1,1,1,-1,-1,-1\n")


_BOX = BBox(0, 0, 5, 5)

# field name -> a constructor that puts the value there
_INTEGER_FIELDS = {
    "GtEntry.frame": lambda v: GtEntry(v, _BOX),
    "GtTrack.target_id": lambda v: GtTrack(v, (GtEntry(1, _BOX),)),
    "GroundTruth.frame_count": lambda v: GroundTruth("s", v, ()),
}


@pytest.mark.parametrize("field", list(_INTEGER_FIELDS))
def test_constructors_apply_the_integer_rule(field):
    """Every frame, id and frame_count follows the GT integer rule: 1.5,
    True and 2**63 are errors naming the field, never truncated; 3 and 3.0
    are taken as the int 3, so `.columns` equals what was given."""
    make = _INTEGER_FIELDS[field]
    for bad, problem in ((1.5, "must be an integer, got 1.5"),
                         (True, "must be an integer, got True"),
                         (2 ** 63, f"out of range: {2 ** 63}")):
        with pytest.raises(ValidationError) as info:
            make(bad)
        assert str(info.value) == f"{field} {problem}"
    for good in (3, 3.0, np.int64(3)):
        make(good)


def test_columns_keep_every_integral_frame():
    entries = (GtEntry(1.0, _BOX), GtEntry(np.int64(3), _BOX))
    gt = GroundTruth("s", 5.0, (GtTrack(2.0, entries),))
    assert gt.columns.frame.tolist() == [1, 3]
    assert gt.columns.target_id.tolist() == [2, 2]
    assert type(gt.frame_count) is int and gt.columns.frame_count == 5


def test_columns_are_what_the_reader_reads_from_the_written_file():
    """`GroundTruth.columns` equals `read_ground_truth` of the written file
    for containers built from numpy scalars and integral floats, with
    target ids out of order, a static ignore region and one with a frame
    span, and a sequence id that is not a string."""
    gt = GroundTruth(
        sequence_id=7, frame_count=np.int64(4), weather="night",
        difficulty="hard",
        tracks=(GtTrack(9.0, (GtEntry(np.int64(1), BBox(np.float64(1.5), 2, 3, 4),
                                      0.25, np.float64(0.5), "bus"),
                              GtEntry(3.0, BBox(5, np.float64(6.25), 7, 8.5)))),
                GtTrack(np.int64(2), (GtEntry(2, _BOX),))),
        ignore_regions=(IgnoreRegion(BBox(0, 0, 10, 10)),
                        IgnoreRegion(BBox(1, 2.5, 3, 4), np.int64(2), 3.0)))
    assert_same_columns(gt.columns, roundtrip_gt(gt))
    assert gt.columns.sequence_id == "7"
    assert gt.columns.target_id.tolist() == [9, 9, 2]


def test_a_long_gt_is_read_without_all_its_entry_objects_at_once():
    """A 40-track x 1000-entry GT, as `write_ground_truth` writes it, is
    read a batch of tracks at a time: the read allocates less than 12 MB
    at its peak (about 23 MB when the whole document is decoded at once)
    and gives the GT's columns."""
    gt = GroundTruth("long", 1000, tuple(
        GtTrack(t, tuple(GtEntry(f, BBox(t + f / 8, 2.5, 10.25, 20.5), 0.25,
                                 0.5, CATEGORIES[t % 4]) for f in range(1, 1001)))
        for t in range(1, 41)), ignore_regions=(IgnoreRegion(BBox(0, 0, 9, 9)),))
    buf = io.StringIO()
    write_ground_truth(gt, buf)
    text = buf.getvalue()
    tracemalloc.start()
    try:
        got = read_ground_truth(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20
    assert_same_columns(got, gt.columns)


def test_rows_length_is_the_row_count_of_equal_columns():
    rows = Rows({"a": [1, 2, 3], "b": [0.5, None, "x"]})
    assert len(rows) == 3 and rows["b"] == [0.5, None, "x"]
    assert len(Rows({})) == len(Rows({"a": []})) == 0
    with pytest.raises(ValueError, match="differ in length"):
        Rows({"a": [1, 2], "b": [1]})


def test_rows_take_int64_and_float64_arrays_only():
    rows = Rows({"a": np.arange(3), "b": np.array([0.5, 1.0, np.nan]),
                 "c": [1, None, "x"]})
    assert len(rows) == 3 and rows["a"].dtype == np.int64
    for column in (np.zeros(3, np.float32), np.zeros(3, bool),
                   np.zeros(3, np.int32), np.zeros(3, object)):
        with pytest.raises(TypeError, match="int64 or float64"):
            Rows({"a": column})
    # Equality compares an array column as its list.
    rows = Rows({"a": np.arange(3), "b": np.array([0.5, 1.0, -0.0]),
                 "c": [1, None, "x"]})
    assert rows == Rows({"c": [1, None, "x"], "a": [0, 1, 2],
                         "b": [0.5, 1.0, 0.0]})
    assert Rows({"a": np.arange(3)}) == Rows({"a": np.arange(3)})
    assert Rows({"a": np.arange(3)}) != Rows({"a": np.arange(1, 4)})
    assert Rows({"a": np.arange(3)}) != Rows({"b": np.arange(3)})
    assert Rows({"a": [1]}) != {"a": [1]}


def test_ordered_sum_folds_left_to_right_from_int_zero():
    """The one rule for float totals: a left fold from the int 0, the same
    on every interpreter. CPython >= 3.12's `sum` gives 1.000000000000001
    on the first case; a fold never adds the small terms together."""
    assert datamodel.ordered_sum([1.0] + [1e-16] * 10) == 1.0
    assert datamodel.ordered_sum([1e-16] * 10 + [1.0]) == 1.000000000000001
    total = datamodel.ordered_sum([])
    assert total == 0 and type(total) is int
    total = datamodel.ordered_sum(iter([0, 2, 0]))
    assert total == 2 and type(total) is int
    assert str(datamodel.ordered_sum([-0.0])) == "0.0"  # 0 + -0.0
    values = np.random.default_rng(0).uniform(size=1000).tolist()
    total = 0
    for v in values:
        total += v
    assert datamodel.ordered_sum(values) == total


@pytest.mark.parametrize("budget", [1, 7, 60, 1 << 16])
def test_frame_chunks_take_each_pair_once_in_width_order(budget, monkeypatch):
    """Every frame pair once, ordered by wider side, then pair count; each
    chunk within the budget once padded to its widest sides, or a single
    pair, and the next pair would not fit."""
    rng = np.random.default_rng(3)
    a_n, b_n = rng.integers(1, 12, 200), rng.integers(1, 12, 200)
    monkeypatch.setattr(datamodel, "EDGE_CHUNK_PAIRS", budget)
    chunks = list(datamodel.frame_chunks(a_n, b_n))
    order = np.concatenate(chunks)
    assert order.tolist() == np.lexsort((a_n * b_n,
                                         np.maximum(a_n, b_n))).tolist()

    def padded(k):
        return len(k) * a_n[k].max() * b_n[k].max()
    for k, after in zip(chunks, chunks[1:] + [None]):
        assert len(k) == 1 or padded(k) <= budget
        if after is not None:
            assert padded(np.append(k, after[0])) > budget
