import dataclasses
import io
import math

import numpy as np
import pytest

from detraceval.datamodel import (BBox, OutTrack, TrackSet, ValidationError,
                                  write_detections, write_ground_truth)
from detraceval.det_metrics import PRCurve, PRPoint, average_precision
from detraceval.fixtures import FIXTURE_NAMES, load_fixture
from detraceval.mot_metrics import evaluate_clear
from detraceval.synth import (MAX_CLUTTER_RATE, MAX_SCENARIO_BOXES,
                              ScenarioConfig, gen_scenario, oracle_ap,
                              oracle_clear, random_tiny_scenario)
from detraceval.trackers import greedy_iou_track


def _track_set(tracks) -> TrackSet:
    """Tracker output (rows sorted by track, then frame) as the objects
    `oracle_clear` takes."""
    boxes: dict[int, list] = {}
    for track_id, frame, *box in zip(
            tracks.track_id.tolist(), tracks.frame.tolist(), tracks.left.tolist(),
            tracks.top.tolist(), tracks.width.tolist(), tracks.height.tolist()):
        boxes.setdefault(track_id, []).append((frame, BBox(*box)))
    return TrackSet(tuple(OutTrack(track_id, tuple(items))
                          for track_id, items in boxes.items()))


def _render(gt, dets):
    buf = io.StringIO()
    write_ground_truth(gt, buf)
    write_detections(dets, buf)
    return buf.getvalue()


def test_noiseless_config_reproduces_gt_boxes():
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=3, n_frames=10, drop_rate=0.0, clutter_rate=0.0,
        jitter_sigma=0.0, seed=5))
    gt_boxes = sorted((e.frame, e.box.left, e.box.top)
                      for tr in gt.tracks for e in tr.entries)
    det_boxes = sorted((d.frame, d.box.left, d.box.top) for d in dets)
    assert gt_boxes == det_boxes


def test_same_seed_byte_identical():
    config = ScenarioConfig(n_targets=3, n_frames=12, drop_rate=0.3,
                            clutter_rate=2.0, jitter_sigma=1.5, seed=123)
    assert _render(*gen_scenario(config)) == _render(*gen_scenario(config))


def test_higher_drop_rate_is_subset():
    base = ScenarioConfig(n_targets=4, n_frames=20, drop_rate=0.3,
                          clutter_rate=1.0, jitter_sigma=1.0, seed=9)
    low_gt, low = gen_scenario(base)
    high_gt, high = gen_scenario(dataclasses.replace(base, drop_rate=0.6))
    assert low_gt == high_gt
    assert set(high.detections) <= set(low.detections)
    assert len(high.detections) < len(low.detections)


def test_fn_nondecreasing_in_drop_rate():
    base = ScenarioConfig(n_targets=4, n_frames=20, clutter_rate=0.5,
                          jitter_sigma=0.0, seed=10)
    counts = []
    for rate in (0.0, 0.3, 0.6, 0.9):
        gt, dets = gen_scenario(dataclasses.replace(base, drop_rate=rate))
        bundle, _ = evaluate_clear(gt.columns, greedy_iou_track(dets.columns))
        counts.append(bundle.fn)
    assert counts == sorted(counts)


def test_fp_nondecreasing_in_clutter_rate():
    base = ScenarioConfig(n_targets=2, n_frames=20, drop_rate=0.0,
                          jitter_sigma=0.0, seed=11)
    counts = []
    for rate in (0.0, 0.5, 2.0, 4.0):
        gt, dets = gen_scenario(dataclasses.replace(base, clutter_rate=rate))
        n_clutter = len(dets) - gt.total_boxes()
        counts.append(n_clutter)
    assert counts == sorted(counts)


def test_generated_data_satisfies_invariants():
    # constructors validate; building 50 scenarios is the property
    for seed in range(50):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=1 + seed % 5, n_frames=1 + seed % 10,
            drop_rate=(seed % 10) / 10.0, clutter_rate=seed % 4,
            jitter_sigma=seed % 3, seed=seed))
        assert gt.total_boxes() > 0


def test_degenerate_arena_rejected():
    with pytest.raises(ValidationError, match="arena"):
        ScenarioConfig(arena=(50.0, 50.0), box_size=(30.0, 80.0))


def test_inseparable_scores_rejected():
    with pytest.raises(ValidationError, match="separable"):
        ScenarioConfig(tp_mean=0.3, clutter_mean=0.5)


@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("n_targets", -3), ("n_frames", 0),
    ("clutter_rate", -0.5), ("clutter_rate", math.nan),
    ("clutter_rate", math.inf), ("clutter_rate", 1e300),
    ("clutter_rate", MAX_CLUTTER_RATE * 2),
    ("jitter_sigma", -1.0), ("jitter_sigma", math.nan),
    ("jitter_sigma", math.inf),
])
def test_bad_scenario_values_rejected(field, value):
    with pytest.raises(ValidationError, match=field):
        ScenarioConfig(**{field: value})


def test_scenario_box_count_bounded():
    with pytest.raises(ValidationError, match="n_frames"):
        ScenarioConfig(n_targets=0, n_frames=MAX_SCENARIO_BOXES + 1)
    with pytest.raises(ValidationError, match="n_targets \\* n_frames"):
        ScenarioConfig(n_targets=MAX_SCENARIO_BOXES // 1000 + 1, n_frames=1000)


def test_scenario_edge_values_accepted():
    gt, dets = gen_scenario(ScenarioConfig(n_targets=0, n_frames=1, seed=0))
    assert not gt.tracks and not len(dets)
    ScenarioConfig(clutter_rate=MAX_CLUTTER_RATE, jitter_sigma=0.0)
    ScenarioConfig(n_targets=1, n_frames=MAX_SCENARIO_BOXES)
    ScenarioConfig(n_targets=MAX_SCENARIO_BOXES // 1000, n_frames=1000)


def test_oracle_rejects_large_instances():
    gt, dets = gen_scenario(ScenarioConfig(n_targets=8, n_frames=3, seed=1))
    with pytest.raises(ValidationError, match="too large"):
        oracle_clear(gt, _track_set(greedy_iou_track(dets.columns)))


def test_oracle_equals_impl_on_perfect_fixture():
    fx = load_fixture("perfect")
    ts = _track_set(greedy_iou_track(fx.dets.columns))
    got, _ = evaluate_clear(fx.gt.columns, ts.columns)
    want = oracle_clear(fx.gt, ts)
    assert (got.ids, got.fm, got.fp, got.fn, got.mt, got.ml) == \
        (want.ids, want.fm, want.fp, want.fn, want.mt, want.ml)
    assert got.mota == pytest.approx(want.mota) == 100.0


def test_oracle_equals_impl_on_crossing_fixture():
    fx = load_fixture("crossing")
    ts = _track_set(greedy_iou_track(fx.dets.columns))
    got, _ = evaluate_clear(fx.gt.columns, ts.columns)
    want = oracle_clear(fx.gt, ts)
    assert (got.ids, got.fm, got.fp, got.fn, got.mt, got.ml) == \
        (want.ids, want.fm, want.fp, want.fn, want.mt, want.ml)


def test_fp_heavy_fixture_negative_mota():
    fx = load_fixture("fp-heavy")
    bundle, _ = evaluate_clear(fx.gt.columns, greedy_iou_track(fx.dets.columns))
    assert bundle.mota < 0


def test_all_fixtures_load():
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        assert fx.gt.total_boxes() > 0 and len(fx.dets) > 0
    with pytest.raises(ValidationError, match="unknown fixture"):
        load_fixture("nope")


def test_oracle_ap_single_point():
    assert oracle_ap(PRCurve((PRPoint(1.0, 1.0, 1.0, 1, 0, 0),))) == \
        pytest.approx(1.0, abs=1e-9)


def test_oracle_ap_random_agreement():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        recalls = np.sort(rng.uniform(0, 1, n))
        precisions = rng.uniform(0, 1, n)
        pts = sorted((PRPoint(0.0, float(p), float(r), 0, 0, 0)
                      for r, p in zip(recalls, precisions)),
                     key=lambda q: (q.recall, -q.precision))
        curve = PRCurve(tuple(pts))
        assert abs(average_precision(curve) - oracle_ap(curve)) < 1e-3


def test_random_tiny_scenario_within_oracle_limits():
    for seed in range(50):
        gt, tracks = random_tiny_scenario(seed)
        for frame in range(1, gt.frame_count + 1):
            assert len(gt.entries_at(frame)) <= 5
            assert len(tracks.boxes_at(frame)) <= 5
