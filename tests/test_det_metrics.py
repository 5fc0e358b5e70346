import dataclasses
import math

import numpy as np
import pytest

from detraceval.datamodel import (CATEGORIES, DIFFICULTIES, WEATHERS, BBox,
                                  Detection, DetectionSet, GroundTruth,
                                  GtEntry, GtTrack, IgnoreRegion,
                                  ValidationError)
from detraceval.det_metrics import (PRCurve, PRPoint, average_precision,
                                    detection_report, pr_curve,
                                    pr_curve_multi)
from detraceval.geometry import box_array
from detraceval.matching import match_frame_greedy
from detraceval.synth import (ScenarioConfig, gen_scenario, oracle_ap,
                              oracle_sweep_counts)


def _gt_two_boxes():
    return GroundTruth("s", 1, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 20, 20)),)),
        GtTrack(2, (GtEntry(1, BBox(100, 100, 20, 20)),)),
    ))


def test_perfect_detector_single_point():
    gt = _gt_two_boxes()
    dets = DetectionSet(tuple(
        Detection(1, tr.entries[0].box, 1.0) for tr in gt.tracks))
    curve = pr_curve(dets, gt)
    assert len(curve.points) == 1
    p = curve.points[0]
    assert p.precision == 1.0 and p.recall == 1.0


def test_no_detections_empty_set_convention():
    curve = pr_curve(DetectionSet(), _gt_two_boxes())
    assert len(curve.points) == 1
    p = curve.points[0]
    assert p.precision == 1.0 and p.recall == 0.0


def _greedy(dets, gts, iou_thr):
    """match_frame_greedy on Detection and BBox lists."""
    return match_frame_greedy(box_array([d.box for d in dets]),
                              [d.score for d in dets], box_array(gts), iou_thr)


def _brute_force_pr(dets, gt, iou_thr, threshold):
    """Recompute one operating point from scratch at a single threshold."""
    kept = [d for d in dets if d.score >= threshold]
    tp = fp = n_gt = 0
    frames = {d.frame for d in kept} | {e.frame for tr in gt.tracks
                                        for e in tr.entries}
    for frame in sorted(frames):
        gts = [e.box for tr in gt.tracks for e in tr.entries if e.frame == frame]
        n_gt += len(gts)
        frame_dets = [d for d in kept if d.frame == frame]
        m = _greedy(frame_dets, gts, iou_thr)
        tp += len(m.pairs)
        fp += len(m.unmatched_hyp)
    precision = tp / (tp + fp) if tp + fp else 1.0
    return precision, tp / n_gt


def test_worked_three_detection_curve():
    gt = _gt_two_boxes()
    dets = DetectionSet((
        Detection(1, BBox(0, 0, 20, 20), 0.9),       # hit
        Detection(1, BBox(300, 300, 20, 20), 0.8),   # clutter
        Detection(1, BBox(100, 100, 20, 20), 0.7),   # hit
    ))
    curve = pr_curve(dets, gt)
    got = [(p.precision, p.recall) for p in
           sorted(curve.points, key=lambda p: -p.threshold)]
    assert got[0] == (1.0, 0.5)
    assert got[1] == (0.5, 0.5)
    assert got[2] == (pytest.approx(2 / 3), 1.0)
    # cross-check every threshold against a from-scratch evaluation
    for p in curve.points:
        want = _brute_force_pr(dets, gt, 0.7, p.threshold)
        assert (p.precision, p.recall) == pytest.approx(want)


def test_ap_single_point():
    assert average_precision(PRCurve((PRPoint(1.0, 1.0, 1.0, 1, 0, 0),))) == 1.0


def test_ap_two_point_worked_example():
    curve = PRCurve((
        PRPoint(0.9, 1.0, 0.5, 1, 0, 1),
        PRPoint(0.5, 0.5, 1.0, 2, 2, 0),
    ))
    assert average_precision(curve) == pytest.approx(0.75)
    assert abs(oracle_ap(curve) - 0.75) < 1e-3


def test_ap_all_miss():
    curve = PRCurve((PRPoint(math.inf, 1.0, 0.0, 0, 0, 5),))
    assert average_precision(curve) == 0.0


def test_ap_invariant_under_dominated_points():
    base = PRCurve((
        PRPoint(0.9, 1.0, 0.5, 1, 0, 1),
        PRPoint(0.5, 0.5, 1.0, 2, 2, 0),
    ))
    with_dominated = PRCurve(base.points + (PRPoint(0.7, 0.4, 0.5, 0, 0, 0),))
    assert average_precision(with_dominated) == average_precision(base)


def test_clutter_at_new_lowest_score_never_increases_ap():
    gt = _gt_two_boxes()
    dets = DetectionSet((
        Detection(1, BBox(0, 0, 20, 20), 0.9),
        Detection(1, BBox(100, 100, 20, 20), 0.7),
    ))
    base = pr_curve(dets, gt)
    noisier = DetectionSet(dets.detections
                           + (Detection(1, BBox(300, 300, 20, 20), 0.1),))
    with_clutter = pr_curve(noisier, gt)
    assert average_precision(with_clutter) <= average_precision(base)
    # higher-threshold points are unchanged
    base_pts = {p.threshold: (p.precision, p.recall) for p in base.points}
    for p in with_clutter.points:
        if p.threshold > 0.1:
            assert base_pts[p.threshold] == (p.precision, p.recall)


def test_ignored_gt_and_detections_are_neutral():
    region = IgnoreRegion(BBox(95, 95, 40, 40))
    gt = GroundTruth("s", 1, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 20, 20)),)),
        GtTrack(2, (GtEntry(1, BBox(100, 100, 20, 20)),)),  # inside ignore
    ), ignore_regions=(region,))
    dets = DetectionSet((
        Detection(1, BBox(0, 0, 20, 20), 0.9),
        Detection(1, BBox(100, 100, 20, 20), 0.8),  # in ignore region: neutral
    ))
    curve = pr_curve(dets, gt)
    # single countable GT, matched: every point has no FP and full recall
    best = max(curve.points, key=lambda p: p.recall)
    assert best.fp == 0 and best.recall == 1.0 and best.tp == 1


def test_subset_empty_target_set_error():
    gt = _gt_two_boxes()  # all "car"
    dets = DetectionSet((Detection(1, BBox(0, 0, 20, 20), 0.9),))
    with pytest.raises(ValidationError, match="empty evaluation target set"):
        detection_report([(dets, gt)], ["category:bus"])


def test_subset_overall_equals_no_predicate():
    gt = _gt_two_boxes()
    dets = DetectionSet((
        Detection(1, BBox(0, 0, 20, 20), 0.9),
        Detection(1, BBox(300, 300, 20, 20), 0.4),
    ))
    report = detection_report([(dets, gt)], ["overall"])
    assert report["overall"]["ap"] == pytest.approx(
        average_precision(pr_curve(dets, gt)))


def test_matched_out_of_subset_gt_neutralizes_detection():
    # one car and one bus, detections on both; evaluated on the car subset
    # the bus detection is neither TP nor FP
    gt = GroundTruth("s", 1, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 20, 20), category="car"),)),
        GtTrack(2, (GtEntry(1, BBox(100, 100, 20, 20), category="bus"),)),
    ))
    dets = DetectionSet((
        Detection(1, BBox(0, 0, 20, 20), 0.9),
        Detection(1, BBox(100, 100, 20, 20), 0.8),
    ))
    report = detection_report([(dets, gt)], ["category:car"])
    points = report["category:car"]["points"]
    assert all(p["fp"] == 0 for p in points)
    assert report["category:car"]["ap"] == 1.0


def test_per_scale_counts_recombine():
    # small + large targets: subset TP counts sum to the overall TP count
    gt = GroundTruth("s", 1, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 20, 20)),)),        # scale 20: small
        GtTrack(2, (GtEntry(1, BBox(300, 300, 200, 200)),)),  # scale 200: large
    ))
    dets = DetectionSet((
        Detection(1, BBox(0, 0, 20, 20), 0.9),
        Detection(1, BBox(300, 300, 200, 200), 0.8),
    ))
    report = detection_report(
        [(dets, gt)], ["overall", "scale:small", "scale:large"])
    overall_tp = max(p["tp"] for p in report["overall"]["points"])
    small_tp = max(p["tp"] for p in report["scale:small"]["points"])
    large_tp = max(p["tp"] for p in report["scale:large"]["points"])
    assert small_tp + large_tp == overall_tp == 2


def test_ap_agrees_with_grid_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        recalls = np.sort(rng.uniform(0, 1, n))
        precisions = rng.uniform(0.05, 1, n)
        pts = tuple(PRPoint(float(1 - r), float(p), float(r), 0, 0, 0)
                    for r, p in zip(recalls, precisions))
        curve = PRCurve(tuple(sorted(pts, key=lambda q: (q.recall, -q.precision))))
        assert abs(average_precision(curve) - oracle_ap(curve)) < 1e-3


ALL_SUBSETS = ("overall", "scale:small", "scale:medium", "scale:large",
               "occlusion:none", "occlusion:partial", "occlusion:heavy",
               *(f"category:{c}" for c in CATEGORIES),
               *(f"weather:{w}" for w in WEATHERS),
               *(f"difficulty:{d}" for d in DIFFICULTIES))


def _random_subset_case(seed):
    """One to three small cluttered sequences, each with a static and a
    frame-ranged ignore region, 1-decimal (tied) scores, a random weather
    and difficulty, boxes from small to large and entry occlusions on and
    around the band edges; plus an IoU threshold."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(int(rng.integers(1, 4))):
        n_frames = int(rng.integers(1, 7))
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=int(rng.integers(1, 6)), n_frames=n_frames,
            box_size=(20.0, 200.0), drop_rate=0.2,
            clutter_rate=float(rng.uniform(0.0, 3.0)),
            jitter_sigma=float(rng.uniform(0.0, 4.0)), seed=seed * 10 + i))
        occlusions = (0.0, 0.005, 0.01, 0.3, 0.5, 0.7, 1.0)
        tracks = tuple(GtTrack(tr.target_id, tuple(
            dataclasses.replace(e, occlusion_ratio=float(rng.choice(occlusions)))
            for e in tr.entries)) for tr in gt.tracks)
        first = int(rng.integers(1, n_frames + 1))
        regions = (
            IgnoreRegion(BBox(float(rng.uniform(0, 700)),
                              float(rng.uniform(0, 400)), 250.0, 150.0)),
            IgnoreRegion(BBox(float(rng.uniform(0, 700)),
                              float(rng.uniform(0, 400)), 200.0, 200.0),
                         first, int(rng.integers(first, n_frames + 1))))
        gt = dataclasses.replace(
            gt, tracks=tracks, ignore_regions=regions,
            weather=str(rng.choice(WEATHERS)),
            difficulty=str(rng.choice(DIFFICULTIES)))
        dets = DetectionSet(tuple(
            dataclasses.replace(d, score=round(d.score, 1)) for d in dets))
        pairs.append((dets, gt))
    return pairs, float(rng.choice([0.3, 0.5, 0.7]))


def _counts_at(curve, threshold):
    """(tp, fp, fn) of the detections with score >= threshold, read off a
    PR curve: the point of the lowest score at or above it."""
    above = [p for p in curve.points if p.threshold >= threshold]
    if not above:
        p = curve.points[0]
        return 0, 0, p.tp + p.fn
    p = min(above, key=lambda p: p.threshold)
    return p.tp, p.fp, p.fn


def test_subset_counts_equal_filter_then_relabel_oracle():
    """Every subset kind read off the one labeling pass equals the scalar
    oracle that thresholds first and relabels per subset."""
    n_points, kinds = 0, set()
    for seed in range(300):
        pairs, iou_thr = _random_subset_case(seed)
        rng = np.random.default_rng(seed)
        scores = sorted({d.score for dets, _ in pairs for d in dets})
        taus = scores + [(a + b) / 2 for a, b in zip(scores, scores[1:])]
        taus += [float(t) for t in rng.uniform(-0.2, 1.2, 3)]
        for name in rng.choice(ALL_SUBSETS, 3, replace=False).tolist():
            want = [oracle_sweep_counts(pairs, tau, iou_thr, name) for tau in taus]
            if all(tp + fn == 0 for tp, _, fn in want):
                # no pooled GT in the subset, or no sequence of its kind
                with pytest.raises(ValidationError, match="empty evaluation"):
                    pr_curve_multi(pairs, iou_thr, name)
                continue
            curve = pr_curve_multi(pairs, iou_thr, name)
            assert [_counts_at(curve, tau) for tau in taus] == want, (seed, name)
            n_points += len(taus)
            kinds.add(name)
    assert n_points > 3000 and kinds == set(ALL_SUBSETS)


def test_unknown_subset_name_is_validation_error():
    gt = _gt_two_boxes()
    dets = DetectionSet((Detection(1, BBox(0, 0, 20, 20), 0.9),))
    for name in ("scale:huge", "occlusion:some", "weather:foggy",
                 "colour:red", "overall:car", "car"):
        with pytest.raises(ValidationError):
            detection_report([(dets, gt)], [name])


def test_tied_signed_zero_scores_keep_the_last_detections_threshold():
    """-0.0 and 0.0 tie; the point's threshold is the score of the last of
    them in (frame, input) order, TPs before FPs, down to its sign."""
    gt = _gt_two_boxes()
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        dets = DetectionSet((
            Detection(1, BBox(300, 300, 20, 20), first),    # FP
            Detection(1, BBox(0, 0, 20, 20), 0.5),          # TP
            Detection(2, BBox(400, 400, 20, 20), second),   # FP, later frame
        ))
        gt2 = GroundTruth("s", 2, gt.tracks)
        (zero,) = [p for p in pr_curve(dets, gt2).points if p.threshold == 0.0]
        assert math.copysign(1.0, zero.threshold) == math.copysign(1.0, second)
        assert (zero.tp, zero.fp) == (1, 2)
