import os
import sys

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


def test_single_static_detection_one_track():
    dets = DetectionSet(tuple(
        Detection(f, BBox(10, 10, 20, 20), 0.9) for f in range(1, 11)))
    ts = greedy_iou_track(dets)
    assert len(ts) == 1
    assert len(ts.tracks[0].boxes) == 10


def test_two_separated_targets_two_tracks():
    dets = []
    for f in range(1, 11):
        dets.append(Detection(f, BBox(0 + f, 0, 20, 20), 0.9))
        dets.append(Detection(f, BBox(500 + f, 500, 20, 20), 0.9))
    ts = greedy_iou_track(DetectionSet(tuple(dets)))
    assert len(ts) == 2
    assert all(len(tr.boxes) == 10 for tr in ts.tracks)


def test_crossing_fixture_produces_identity_switch():
    fx = load_fixture("crossing")
    ts = greedy_iou_track(fx.dets)
    bundle, _ = evaluate_clear(fx.gt, ts)
    assert bundle.ids >= 1


def test_gap_longer_than_max_gap_closes_track():
    frames = [1, 2, 5, 6]  # 2-frame hole with max_gap=1
    dets = DetectionSet(tuple(
        Detection(f, BBox(10, 10, 20, 20), 0.9) for f in frames))
    ts = greedy_iou_track(dets, max_gap=1)
    assert len(ts) == 2
    ts_bridged = greedy_iou_track(dets, max_gap=2)
    assert len(ts_bridged) == 1


def test_min_track_len_suppresses_short_tracks():
    dets = DetectionSet((
        Detection(1, BBox(0, 0, 10, 10), 0.9),
        Detection(1, BBox(400, 400, 10, 10), 0.9),
        Detection(2, BBox(0, 0, 10, 10), 0.9),
    ))
    ts = greedy_iou_track(dets, min_track_len=2)
    assert len(ts) == 1


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
).map(lambda lst: DetectionSet(tuple(lst)))


@given(det_sets)
@settings(max_examples=60, deadline=None)
def test_greedy_output_satisfies_trackset_invariants(dets):
    ts = greedy_iou_track(dets)
    # TrackSet/OutTrack constructors enforce the invariants; rebuilding from
    # raw parts would raise if they were violated
    assert ts == TrackSet(ts.tracks)
    assert ts.total_boxes() == len(dets)


@given(det_sets)
@settings(max_examples=30, deadline=None)
def test_greedy_deterministic(dets):
    assert greedy_iou_track(dets) == greedy_iou_track(dets)


def _scalar_greedy_iou_track(dets, link_thr=0.5, max_gap=1, min_track_len=1):
    """Reference linker: the scalar pair-by-pair form of greedy_iou_track."""
    by_frame = dets.by_frame()
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
        assert greedy_iou_track(dets, link_thr, max_gap, min_track_len) == \
            _scalar_greedy_iou_track(dets, link_thr, max_gap, min_track_len)


def test_greedy_tied_iou_links_by_track_then_detection_order():
    # Two touching tracks; each frame-2 detection straddles both at equal
    # IoU, so every tie is broken by track age, then detection order.
    a, b = BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)
    c, d = BBox(5, 0, 10, 10), BBox(5, 2, 10, 10)
    assert iou(a, c) == iou(b, c) and iou(a, d) == iou(b, d)
    dets = DetectionSet((Detection(1, a, 0.9), Detection(1, b, 0.9),
                         Detection(2, d, 0.8), Detection(2, c, 0.7)))
    ts = greedy_iou_track(dets, link_thr=0.2)
    assert ts == _scalar_greedy_iou_track(dets, link_thr=0.2)
    assert [tr.boxes for tr in ts.tracks] == [((1, a), (2, c)), ((1, b), (2, d))]


def test_greedy_links_at_exactly_link_thr():
    a, b = BBox(0, 0, 10, 10), BBox(0, 0, 10, 20)
    assert iou(a, b) == 0.5
    dets = DetectionSet((Detection(1, a, 0.9), Detection(2, b, 0.9)))
    assert len(greedy_iou_track(dets, link_thr=0.5)) == 1


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


def test_external_identity_tracker():
    adapter = ExternalTracker(IDENTITY_TRACKER)
    ts = run_external(adapter, _some_dets(), "seq1")
    assert len(ts) == 1
    assert [b for _, b in ts.tracks[0].boxes] == [d.box for d in _some_dets()]


def test_external_nonzero_exit():
    adapter = ExternalTracker(f"{PY} -c \"import sys; sys.exit(1)\" "
                              "{input} {output}")
    with pytest.raises(TrackerError, match="status 1"):
        run_external(adapter, _some_dets(), "seq1")


def test_external_timeout():
    adapter = ExternalTracker(
        f"{PY} -c \"import time; time.sleep(5)\" {{input}} {{output}}",
        timeout=0.5)
    with pytest.raises(TrackerError, match="timed out"):
        run_external(adapter, _some_dets(), "seq1")


def test_external_missing_output():
    adapter = ExternalTracker(f"{PY} -c pass {{input}} {{output}}")
    with pytest.raises(TrackerError, match="no output"):
        run_external(adapter, _some_dets(), "seq1")


def test_external_command_requires_placeholders():
    with pytest.raises(ValidationError, match="placeholders"):
        ExternalTracker("mytracker --in foo")


def test_missing_binary_names_command():
    adapter = ExternalTracker("no-such-binary-47291 {input} {output}")
    with pytest.raises(TrackerError, match="no-such-binary-47291"):
        run_external(adapter, _some_dets(), "seq1")


def test_make_tracker_specs():
    assert isinstance(make_tracker("builtin"), BuiltinGreedyTracker)
    t = make_tracker("builtin:link_thr=0.4,max_gap=3,min_track_len=2")
    assert t == BuiltinGreedyTracker(0.4, 3, 2)
    ext = make_tracker("cmd:mytool {input} {output}")
    assert isinstance(ext, ExternalTracker)
    with pytest.raises(ValidationError):
        make_tracker("magic")
