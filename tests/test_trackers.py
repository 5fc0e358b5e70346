import dataclasses
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detraceval.datamodel import (BBox, Detection, DetectionSet, OutTrack,
                                  TrackSet, ValidationError)
from detraceval.fixtures import load_fixture
from detraceval.geometry import iou
from detraceval.mot_metrics import evaluate_clear
from detraceval.synth import ScenarioConfig, gen_scenario
from detraceval.trackers import (BuiltinGreedyTracker, ExternalTracker,
                                 TrackerError, greedy_iou_track, make_tracker,
                                 run_external)

PY = sys.executable


def _rows(tracks) -> list[tuple]:
    """(track_id, frame, left, top, width, height) of every output row."""
    return list(zip(tracks.track_id.tolist(), tracks.frame.tolist(),
                    tracks.left.tolist(), tracks.top.tolist(),
                    tracks.width.tolist(), tracks.height.tolist()))


def _row(track_id: int, frame: int, box: BBox) -> tuple:
    return (track_id, frame, *dataclasses.astuple(box))


def _check_layout(tracks) -> None:
    """The documented output layout: track ids >= 1, rows sorted by
    (track_id, frame), one row per (track, frame)."""
    assert (tracks.track_id >= 1).all()
    keys = list(zip(tracks.track_id.tolist(), tracks.frame.tolist()))
    assert keys == sorted(set(keys))


def _n_tracks(tracks) -> int:
    return len(np.unique(tracks.track_id))


def test_single_static_detection_one_track():
    dets = DetectionSet(tuple(
        Detection(f, BBox(10, 10, 20, 20), 0.9) for f in range(1, 11)))
    t = greedy_iou_track(dets.columns)
    _check_layout(t)
    assert _n_tracks(t) == 1 and len(t) == 10


def test_two_separated_targets_two_tracks():
    dets = []
    for f in range(1, 11):
        dets.append(Detection(f, BBox(0 + f, 0, 20, 20), 0.9))
        dets.append(Detection(f, BBox(500 + f, 500, 20, 20), 0.9))
    t = greedy_iou_track(DetectionSet(tuple(dets)).columns)
    _check_layout(t)
    assert np.unique(t.track_id, return_counts=True)[1].tolist() == [10, 10]


def test_crossing_fixture_produces_identity_switch():
    fx = load_fixture("crossing")
    ts = greedy_iou_track(fx.dets.columns)
    bundle, _ = evaluate_clear(fx.gt.columns, ts)
    assert bundle.ids >= 1


def test_gap_longer_than_max_gap_closes_track():
    frames = [1, 2, 5, 6]  # 2-frame hole with max_gap=1
    dets = DetectionSet(tuple(
        Detection(f, BBox(10, 10, 20, 20), 0.9) for f in frames))
    assert _n_tracks(greedy_iou_track(dets.columns, max_gap=1)) == 2
    assert _n_tracks(greedy_iou_track(dets.columns, max_gap=2)) == 1


def test_min_track_len_suppresses_short_tracks():
    dets = DetectionSet((
        Detection(1, BBox(0, 0, 10, 10), 0.9),
        Detection(1, BBox(400, 400, 10, 10), 0.9),
        Detection(2, BBox(0, 0, 10, 10), 0.9),
    ))
    t = greedy_iou_track(dets.columns, min_track_len=2)
    assert _rows(t) == [_row(1, 1, BBox(0, 0, 10, 10)),
                        _row(1, 2, BBox(0, 0, 10, 10))]


det_sets = st.lists(
    st.builds(
        Detection,
        frame=st.integers(1, 6),
        box=st.builds(BBox,
                      left=st.floats(0, 200), top=st.floats(0, 200),
                      width=st.floats(1, 50), height=st.floats(1, 50)),
        score=st.floats(0, 1),
    ),
    max_size=25,
).map(lambda lst: DetectionSet(tuple(lst)).columns)


@given(det_sets)
@settings(max_examples=60, deadline=None)
def test_greedy_output_satisfies_trackset_invariants(dets):
    t = greedy_iou_track(dets)
    _check_layout(t)
    assert len(t) == len(dets)


@given(det_sets)
@settings(max_examples=30, deadline=None)
def test_greedy_deterministic(dets):
    assert _rows(greedy_iou_track(dets)) == _rows(greedy_iou_track(dets))


def _scalar_greedy_iou_track(dets, link_thr=0.5, max_gap=1, min_track_len=1):
    """Reference linker: the scalar pair-by-pair form of greedy_iou_track."""
    by_frame = {}
    for det in dets:
        by_frame.setdefault(det.frame, []).append(det)
    active = {}
    boxes = {}
    next_id = 1
    for frame in sorted(by_frame):
        frame_dets = by_frame[frame]
        live = [tid for tid, (lf, _) in active.items()
                if frame - lf <= max_gap + 1]
        for tid in list(active):
            if tid not in live:
                del active[tid]
        candidates = []
        for ti, tid in enumerate(live):
            last_box = active[tid][1]
            for di, det in enumerate(frame_dets):
                v = iou(last_box, det.box)
                if v >= link_thr:
                    candidates.append((-v, ti, di, tid))
        candidates.sort()
        used_tracks, used_dets = set(), set()
        for _, ti, di, tid in candidates:
            if tid in used_tracks or di in used_dets:
                continue
            used_tracks.add(tid)
            used_dets.add(di)
            active[tid] = (frame, frame_dets[di].box)
            boxes[tid].append((frame, frame_dets[di].box))
        for di, det in enumerate(frame_dets):
            if di not in used_dets:
                tid = next_id
                next_id += 1
                active[tid] = (frame, det.box)
                boxes[tid] = [(frame, det.box)]
    return TrackSet(tuple(OutTrack(tid, tuple(items))
                          for tid, items in sorted(boxes.items())
                          if len(items) >= min_track_len))


@pytest.mark.parametrize("max_gap", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_greedy_matches_scalar_reference(seed, max_gap):
    _, dets = gen_scenario(ScenarioConfig(
        n_targets=12, n_frames=25, drop_rate=0.2, clutter_rate=6.0,
        jitter_sigma=2.0, seed=seed))
    for link_thr, min_track_len in ((0.5, 1), (0.3, 3)):
        t = greedy_iou_track(dets.columns, link_thr, max_gap, min_track_len)
        _check_layout(t)
        assert _rows(t) == _rows(_scalar_greedy_iou_track(
            dets, link_thr, max_gap, min_track_len).columns)


def test_greedy_tied_iou_links_by_track_then_detection_order():
    # Two touching tracks; each frame-2 detection straddles both at equal
    # IoU, so every tie is broken by track age, then detection order.
    a, b = BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)
    c, d = BBox(5, 0, 10, 10), BBox(5, 2, 10, 10)
    assert iou(a, c) == iou(b, c) and iou(a, d) == iou(b, d)
    dets = DetectionSet((Detection(1, a, 0.9), Detection(1, b, 0.9),
                         Detection(2, d, 0.8), Detection(2, c, 0.7)))
    t = greedy_iou_track(dets.columns, link_thr=0.2)
    assert _rows(t) == _rows(_scalar_greedy_iou_track(dets, link_thr=0.2).columns)
    assert _rows(t) == [_row(1, 1, a), _row(1, 2, c), _row(2, 1, b), _row(2, 2, d)]


def test_greedy_links_at_exactly_link_thr():
    a, b = BBox(0, 0, 10, 10), BBox(0, 0, 10, 20)
    assert iou(a, b) == 0.5
    dets = DetectionSet((Detection(1, a, 0.9), Detection(2, b, 0.9)))
    assert _n_tracks(greedy_iou_track(dets.columns, link_thr=0.5)) == 1


def _some_dets():
    return DetectionSet((
        Detection(1, BBox(5, 5, 20, 20), 0.9),
        Detection(2, BBox(7, 5, 20, 20), 0.8),
    ))


IDENTITY_TRACKER = (
    f"{PY} -c \"import sys; rows=[l.split(',') for l in "
    f"open(sys.argv[1])]; open(sys.argv[2],'w').write(''.join("
    f"','.join([r[0],'1']+r[2:6])+chr(10) for r in rows))\" {{input}} {{output}}"
)


def _assert_workspace_kept(workdir):
    """A failed run keeps its one workspace, with the detections written."""
    (workspace,) = workdir.glob("detraceval-seq1-*")
    assert (workspace / "detections.csv").is_file()


def test_external_identity_tracker(tmp_path):
    adapter = ExternalTracker(IDENTITY_TRACKER, workdir=str(tmp_path))
    t = run_external(adapter, _some_dets().columns, "seq1")
    _check_layout(t)
    assert _rows(t) == [_row(1, d.frame, d.box) for d in _some_dets()]
    assert not list(tmp_path.iterdir())


def test_external_nonzero_exit(tmp_path):
    adapter = ExternalTracker(f"{PY} -c \"import sys; sys.exit(1)\" "
                              "{input} {output}", workdir=str(tmp_path))
    with pytest.raises(TrackerError, match="status 1"):
        run_external(adapter, _some_dets().columns, "seq1")
    _assert_workspace_kept(tmp_path)


def test_external_timeout(tmp_path):
    adapter = ExternalTracker(
        f"{PY} -c \"import time; time.sleep(5)\" {{input}} {{output}}",
        timeout=0.5, workdir=str(tmp_path))
    with pytest.raises(TrackerError, match="timed out"):
        run_external(adapter, _some_dets().columns, "seq1")
    _assert_workspace_kept(tmp_path)


def test_external_missing_output(tmp_path):
    adapter = ExternalTracker(f"{PY} -c pass {{input}} {{output}}",
                              workdir=str(tmp_path))
    with pytest.raises(TrackerError, match="no output"):
        run_external(adapter, _some_dets().columns, "seq1")
    _assert_workspace_kept(tmp_path)


def test_external_command_requires_placeholders():
    with pytest.raises(ValidationError, match="placeholders"):
        ExternalTracker("mytracker --in foo")


def test_missing_binary_names_command(tmp_path):
    adapter = ExternalTracker("no-such-binary-47291 {input} {output}",
                              workdir=str(tmp_path))
    with pytest.raises(TrackerError, match="no-such-binary-47291"):
        run_external(adapter, _some_dets().columns, "seq1")
    _assert_workspace_kept(tmp_path)


def test_unbalanced_quote_in_command_is_rejected():
    with pytest.raises(ValidationError, match="No closing quotation"):
        make_tracker("cmd:'{input} {output}")


def test_make_tracker_specs():
    assert isinstance(make_tracker("builtin"), BuiltinGreedyTracker)
    t = make_tracker("builtin:link_thr=0.4,max_gap=3,min_track_len=2")
    assert t == BuiltinGreedyTracker(0.4, 3, 2)
    ext = make_tracker("cmd:mytool {input} {output}")
    assert isinstance(ext, ExternalTracker)
    # literal braces are doubled, as str.format writes them
    assert make_tracker("cmd:awk '{{print $1}}' {input} {output} {sequence}")
    assert make_tracker("builtin:link_thr=1,max_gap=0,min_track_len=1") == (
        BuiltinGreedyTracker(1.0, 0, 1))
    with pytest.raises(ValidationError):
        make_tracker("magic")
