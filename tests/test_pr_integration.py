import dataclasses
import math

import numpy as np
import pytest


from detraceval.datamodel import (BBox, DetectionSet, IgnoreRegion, OutTrack,
                                  TrackSet, ValidationError)
from detraceval.det_metrics import threshold_counts
from detraceval.fixtures import load_fixture
from detraceval.matching import match_frame_greedy
from detraceval.mot_metrics import MetricBundle
from detraceval.pr_integration import (OperatingPoint, arc_length, integrate,
                                       pr_report, select_thresholds,
                                       select_thresholds_quantile, sweep)
from detraceval.synth import ScenarioConfig, gen_scenario, oracle_sweep_counts


def _bundle(mota=0.0, motp=0.0, ids=0, fm=0, fp=0, fn=0, mt_pct=0.0, ml_pct=0.0):
    return MetricBundle(mota=mota, motp=motp, mt=0, ml=0, mt_pct=mt_pct,
                        ml_pct=ml_pct, ids=ids, fm=fm, fp=fp, fn=fn)


def _point(p, r, **kw):
    return OperatingPoint(0.5, p, r, _bundle(**kw))


def test_select_thresholds_uniform():
    got = select_thresholds([0.0, 0.9, 0.45], 10)
    assert got == pytest.approx([0.1 * i for i in range(10)])


def test_select_thresholds_single_detection():
    with pytest.warns(UserWarning):
        assert select_thresholds([0.7], 10) == [0.7]


def test_select_thresholds_two():
    assert select_thresholds([0.2, 0.8], 2) == [0.2, 0.8]


def test_select_thresholds_empty_errors():
    with pytest.raises(ValidationError):
        select_thresholds([], 10)


def test_select_thresholds_quantile():
    got = select_thresholds_quantile([0.1, 0.1, 0.1, 0.9], 4)
    assert got == [0.1, 0.9]


def test_integrate_constant_on_unit_segment():
    pts = [_point(1.0, 0.0, mota=100.0), _point(1.0, 1.0, mota=100.0)]
    assert integrate(pts, lambda m: m.mota) == pytest.approx(50.0)


def test_integrate_linear_on_unit_segment():
    pts = [_point(1.0, 0.0, mota=0.0), _point(1.0, 1.0, mota=100.0)]
    assert integrate(pts, lambda m: m.mota) == pytest.approx(25.0)


def test_integrate_single_point_is_zero_with_warning():
    with pytest.warns(UserWarning):
        assert integrate([_point(1.0, 0.5, mota=80.0)], lambda m: m.mota) == 0.0


def test_integral_linearity():
    rng = np.random.default_rng(2)
    pts1, pts2 = [], []
    r = np.sort(rng.uniform(0, 1, 6))
    p = rng.uniform(0, 1, 6)
    f1 = rng.uniform(-50, 50, 6)
    f2 = rng.uniform(-50, 50, 6)
    for i in range(6):
        pts1.append(OperatingPoint(0.0, p[i], r[i], _bundle(mota=f1[i])))
        pts2.append(OperatingPoint(0.0, p[i], r[i], _bundle(mota=f2[i])))
    combo = [OperatingPoint(0.0, p[i], r[i],
                            _bundle(mota=3.0 * f1[i] - 2.0 * f2[i]))
             for i in range(6)]
    a = integrate(pts1, lambda m: m.mota)
    b = integrate(pts2, lambda m: m.mota)
    assert integrate(combo, lambda m: m.mota) == pytest.approx(3 * a - 2 * b)


def test_integrate_orientation_independent():
    rng = np.random.default_rng(3)
    pts = [OperatingPoint(0.0, rng.uniform(), rng.uniform(),
                          _bundle(mota=rng.uniform(-50, 100)))
           for _ in range(8)]
    fwd = integrate(pts, lambda m: m.mota)
    rev = integrate(list(reversed(pts)), lambda m: m.mota)
    assert fwd == pytest.approx(rev)


def test_inserting_collinear_point_is_neutral():
    a = _point(1.0, 0.0, mota=20.0)
    b = _point(0.5, 1.0, mota=60.0)
    mid = OperatingPoint(0.0, 0.75, 0.5, _bundle(mota=40.0))
    base = integrate([a, b], lambda m: m.mota)
    split = integrate([a, mid, b], lambda m: m.mota)
    assert abs(base - split) < 1e-9


def test_integral_bounded_by_extremes():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        pts = [OperatingPoint(0.0, rng.uniform(), rng.uniform(),
                              _bundle(mota=rng.uniform(-200, 100)))
               for _ in range(n)]
        val = integrate(pts, lambda m: m.mota)
        L = arc_length(pts)
        lo = min(p.metrics.mota for p in pts)
        hi = max(p.metrics.mota for p in pts)
        assert lo * L / 2 - 1e-9 <= val <= hi * L / 2 + 1e-9
        assert val <= 100.0  # MOTA-like integrand bound


def _corners(boxes):
    """(n, 4) left, top, right, bottom rows of BBox objects."""
    return np.array([(b.left, b.top, b.right, b.bottom) for b in boxes],
                    dtype=np.float64).reshape(len(boxes), 4)


class OracleTracker:
    """Reports exactly the GT boxes that were detected (matched) at the
    given detections; MOTA then only loses the detector's misses."""

    def __init__(self, gt, iou_thr=0.7):
        self.gt = gt
        self.iou_thr = iou_thr

    def __call__(self, dets, sequence_id):
        corners = dets.corners()
        boxes: dict[int, list] = {}
        for frame in np.unique(dets.frame).tolist():
            rows = dets.frame == frame
            entries = self.gt.entries_at(frame)
            gids = sorted(entries)
            m = match_frame_greedy(corners[rows], dets.score[rows],
                                   _corners([entries[g].box for g in gids]),
                                   self.iou_thr)
            for gi, _, _ in m.pairs:
                boxes.setdefault(gids[gi], []).append(
                    (frame, entries[gids[gi]].box))
        return TrackSet(tuple(OutTrack(gid, tuple(items))
                              for gid, items in sorted(boxes.items()))).columns


def test_sweep_against_detection_count_closed_form():
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=3, n_frames=15, drop_rate=0.2, clutter_rate=0.0,
        jitter_sigma=0.0, tp_mean=0.7, clutter_mean=0.1, score_sigma=0.15,
        seed=21))
    tracker = OracleTracker(gt)
    thresholds = select_thresholds(dets.columns.score, 6)
    points = sweep([(gt.columns, dets.columns)], tracker, thresholds)
    total_gt = gt.total_boxes()
    for p in points:
        fn_det = round((1.0 - p.recall) * total_gt)
        want_mota = 100.0 * (1.0 - fn_det / total_gt)
        assert p.metrics.mota == pytest.approx(want_mota, abs=1e-6)


def test_sweep_threshold_above_max_score():
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=2, n_frames=5, tp_mean=0.5, clutter_mean=0.1,
        score_sigma=0.0, seed=1))
    tracker = OracleTracker(gt)
    points = sweep([(gt.columns, dets.columns)], tracker, [0.9])
    assert len(points) == 1
    p = points[0]
    assert p.recall == 0.0
    assert p.metrics.fn == gt.total_boxes()
    assert p.metrics.mota == 0.0


def test_sweep_threshold_below_min_score_is_identity():
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=2, n_frames=5, tp_mean=0.5, score_sigma=0.0, seed=1))
    tracker = OracleTracker(gt)
    low = sweep([(gt.columns, dets.columns)], tracker, [0.0])[0]
    assert low.recall == 1.0 and low.precision == 1.0
    assert low.metrics.mota == 100.0


def test_sweep_keep_going_records_gap():
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=2, n_frames=5, tp_mean=0.8, score_sigma=0.1, seed=2))

    calls = {"n": 0}

    def flaky(d, seq):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return OracleTracker(gt)(d, seq)

    from detraceval.pr_integration import SweepError
    with pytest.raises(SweepError, match="boom"):
        sweep([(gt.columns, dets.columns)], flaky,
              select_thresholds(dets.columns.score, 4))
    calls["n"] = 0
    points = sweep([(gt.columns, dets.columns)], flaky,
                   select_thresholds(dets.columns.score, 4),
                   keep_going=True)
    assert len(points) == 3


def test_pr_report_all_zero_bundles():
    pts = [_point(1.0, 0.0), _point(0.5, 1.0)]
    report = pr_report(pts)
    assert all(v == 0.0 for v in report.scores().values())
    assert report.arc_length == pytest.approx(math.hypot(0.5, 1.0))


def test_pr_report_count_linearity():
    pts = [_point(1.0, 0.0, ids=2), _point(0.5, 1.0, ids=4)]
    doubled = [_point(1.0, 0.0, ids=4), _point(0.5, 1.0, ids=8)]
    assert pr_report(doubled).pr_ids == pytest.approx(2 * pr_report(pts).pr_ids)


def test_ranking_flip_fixture_inverts_mota_ordering():
    fx = load_fixture("ranking-flip")
    thresholds = select_thresholds(fx.dets.columns.score, 10)
    names = sorted(fx.trackers)
    pairs = [(fx.gt.columns, fx.dets.columns)]
    curves = {name: sweep(pairs, fx.trackers[name], thresholds)
              for name in names}
    a, b = names
    diffs = [pa.metrics.mota - pb.metrics.mota
             for pa, pb in zip(curves[a], curves[b])]
    assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs)


def _random_sweep_case(seed):
    """One or two small cluttered sequences with 1-decimal scores (many
    ties), some with an ignore region, plus an IoU threshold."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(int(rng.integers(1, 3))):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=int(rng.integers(1, 5)), n_frames=int(rng.integers(1, 7)),
            drop_rate=0.2, clutter_rate=float(rng.uniform(0.0, 3.0)),
            jitter_sigma=float(rng.uniform(0.0, 4.0)), seed=seed * 10 + i))
        dets = DetectionSet(tuple(
            dataclasses.replace(d, score=round(d.score, 1)) for d in dets))
        if rng.uniform() < 0.5:
            region = IgnoreRegion(BBox(float(rng.uniform(0, 700)),
                                       float(rng.uniform(0, 400)), 250.0, 150.0))
            gt = dataclasses.replace(gt, ignore_regions=(region,))
        pairs.append((gt, dets))
    return pairs, float(rng.choice([0.3, 0.5, 0.7]))


def _columns(pairs):
    return [(gt.columns, dets.columns) for gt, dets in pairs]


def test_threshold_counts_equal_filter_then_relabel_oracle():
    n_points = 0
    for seed in range(250):
        pairs, iou_thr = _random_sweep_case(seed)
        counts = threshold_counts(_columns(pairs), iou_thr)
        scores = sorted({d.score for _, dets in pairs for d in dets})
        # every detection score (thresholds that equal a score), the
        # midpoints between them, and both sides of the range
        taus = scores + [(a + b) / 2 for a, b in zip(scores, scores[1:])]
        taus += [min(scores, default=0.0) - 1.0, max(scores, default=0.0) + 1.0]
        for tau in taus:
            assert counts.at(tau) == oracle_sweep_counts(pairs, tau, iou_thr), \
                (seed, tau)
            n_points += 1
    assert n_points > 1000


def test_sweep_precision_recall_come_from_oracle_counts():
    pairs, iou_thr = _random_sweep_case(3)
    thresholds = sorted({d.score for _, dets in pairs for d in dets})
    points = sweep(_columns(pairs), lambda dets, seq: TrackSet().columns,
                   thresholds, iou_thr=iou_thr)
    assert len(points) == len(thresholds)
    for p in points:
        tp, fp, fn = oracle_sweep_counts(pairs, p.threshold, iou_thr)
        assert p.precision == (tp / (tp + fp) if tp + fp else 1.0)
        assert p.recall == tp / (tp + fn)
