import dataclasses
import io

import numpy as np
import pytest

from detraceval.datamodel import (BBox, Detection, DetectionSet, GroundTruth,
                                  GtEntry, GtTrack, IgnoreRegion, OutTrack,
                                  TrackSet, ValidationError, read_detections,
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
                            dets.columns)


def test_track_degenerate_box_error():
    with pytest.raises(ValidationError, match="degenerate box"):
        read_tracks(["1,1,10,10,0,20"])


def test_track_roundtrip():
    ts = TrackSet((
        OutTrack(1, ((1, BBox(0, 0, 5, 5)), (2, BBox(1, 1, 5, 5)))),
        OutTrack(2, ((1, BBox(50, 50, 8, 8)),)),
    ))
    buf = io.StringIO()
    write_tracks(ts.columns, buf)
    assert_same_columns(read_tracks(buf.getvalue().splitlines()), ts.columns)


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
    dets = DetectionSet((
        Detection(1, BBox(0, 0, 5, 5), 0.9),
        Detection(1, BBox(1, 1, 5, 5), 0.2),
        Detection(2, BBox(2, 2, 5, 5), 0.5),
    )).columns
    kept = dets.take(dets.score >= 0.5)
    assert kept.score.tolist() == [0.9, 0.5]
    assert kept.left.tolist() == [0, 2]


def test_write_tracks_orders_rows_by_track_id():
    ts = TrackSet((
        OutTrack(5, ((2, BBox(0, 0, 5, 5)), (3, BBox(1, 1, 5, 5.5)))),
        OutTrack(2, ((1, BBox(50, 50, 8, 8)),)),
    ))
    buf = io.StringIO()
    write_tracks(ts.columns, buf)
    assert buf.getvalue() == "1,2,50,50,8,8\n2,5,0,0,5,5\n3,5,1,1,5,5.5\n"


def test_write_detections_objects_and_columns_write_the_same_text():
    dets = DetectionSet((Detection(2, BBox(1, 2.5, 3, 4), 0.25),
                         Detection(1, BBox(1e16, -0.0, 1, 1), 1)))
    for source in (dets, dets.columns):
        buf = io.StringIO()
        write_detections(source, buf)
        assert buf.getvalue() == ("2,-1,1,2.5,3,4,0.25,-1,-1,-1\n"
                                  "1,-1,1e+16,0,1,1,1,-1,-1,-1\n")
