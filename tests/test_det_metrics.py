import dataclasses
import gc
import io
import math
import weakref

import numpy as np
import pytest

from box_columns import concat, det_columns, round_scores
from detraceval import datamodel, det_metrics
from detraceval.datamodel import (CATEGORIES, DIFFICULTIES, WEATHERS, BBox,
                                  GroundTruth, GtEntry, GtTrack, IgnoreRegion,
                                  ValidationError)
from detraceval.det_metrics import (PRCurve, PRPoint, _label_detections,
                                    average_precision, detection_report, rates,
                                    threshold_counts)
from detraceval.geometry import covered, iou_matrix
from detraceval.matching import edge_table, match_frame_greedy
from reference_labeler import frame_loop_label_detections
from detraceval.synth import (ScenarioConfig, gen_scenario, oracle_ap,
                              oracle_sweep_counts)


def _gt_two_boxes():
    return GroundTruth("s", 1, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 20, 20)),)),
        GtTrack(2, (GtEntry(1, BBox(100, 100, 20, 20)),)),
    ))


def _dicts(rows):
    """Report rows as one dict per row."""
    return [dict(zip(rows.columns, row)) for row in zip(*rows.columns.values())]


def _points(gt, dets, iou_thr=0.7):
    """The overall report rows of one sequence, one dict per row."""
    return _dicts(detection_report([(gt.columns, dets)], ["overall"],
                                   iou_thr)["overall"]["points"])


def _reference_ap(curve: PRCurve) -> float:
    """The former point-by-point `average_precision`, kept verbatim."""
    pts = sorted(curve.points, key=lambda p: (p.recall, -p.precision))
    # envelope at recall r: max precision among points with recall >= r
    env: list[tuple[float, float]] = []  # (recall, envelope precision), recall asc
    best = 0.0
    for p in reversed(pts):
        best = max(best, p.precision)
        env.append((p.recall, best))
    env.reverse()
    ap = 0.0
    prev_r = 0.0
    for r, e in env:
        if r > prev_r:
            ap += (r - prev_r) * e
            prev_r = r
    return ap


def _ap(curve: PRCurve) -> float:
    """`average_precision` of a curve's points."""
    return average_precision(np.array([p.recall for p in curve.points]),
                             np.array([p.precision for p in curve.points]))


def _assert_curve_order(precision, recall):
    """Recall ascending, ties by precision descending."""
    keys = [(r, -p) for p, r in zip(precision, recall)]
    assert keys == sorted(keys)


def test_perfect_detector_single_point():
    gt = _gt_two_boxes()
    dets = det_columns(*((1, tr.entries[0].box, 1.0) for tr in gt.tracks))
    (p,) = _points(gt, dets)
    assert p["precision"] == 1.0 and p["recall"] == 1.0


def test_no_detections_empty_set_convention():
    """No detections: the one row keeps nothing, precision 1, AP 0; the
    sweep reads the same row at every threshold."""
    gt, dets = _gt_two_boxes().columns, det_columns()
    report = detection_report([(gt, dets)])["overall"]
    assert report["ap"] == 0.0 and list(report) == ["ap", "points"]
    # The points are the count table's float64 and int64 arrays.
    assert {k: (c.dtype, c.tolist())
            for k, c in report["points"].columns.items()} == {
        "threshold": (np.float64, [math.inf]),
        "precision": (np.float64, [1.0]), "recall": (np.float64, [0.0]),
        "tp": (np.int64, [0]), "fp": (np.int64, [0]), "fn": (np.int64, [2])}
    table = threshold_counts([(gt, dets)])
    assert [table.at(tau) for tau in (-1.0, 0.0, math.inf)] == [(0, 0, 2)] * 3


def test_detection_beyond_frame_count_rejected():
    """A detection past the GT's last frame is an input error in every
    labeling path, as in eval-det, not a false positive."""
    gt = _gt_two_boxes()  # frame_count 1
    dets = det_columns((1, BBox(0, 0, 20, 20), 0.9),
                       (2, BBox(0, 0, 20, 20), 0.8))
    g, d = gt.columns, dets
    want = "detections: frame 2 beyond frame_count 1"
    for score in (lambda: detection_report([(g, d)]),
                  lambda: threshold_counts([(g, d)])):
        with pytest.raises(ValidationError) as exc:
            score()
        assert str(exc.value) == want


def _corners(boxes):
    """(n, 4) left, top, right, bottom rows of BBox objects."""
    return np.array([(b.left, b.top, b.right, b.bottom) for b in boxes],
                    dtype=np.float64).reshape(len(boxes), 4)


def _greedy(dets, gts, iou_thr):
    """match_frame_greedy on a (box, score) list and a BBox list."""
    return match_frame_greedy(iou_matrix(_corners([box for box, _ in dets]),
                                         _corners(gts)),
                              [score for _, score in dets], iou_thr)


def _brute_force_pr(dets, gt, iou_thr, threshold):
    """Recompute one operating point from scratch at a single threshold,
    from the detections' (frame, box, score) rows."""
    kept = [row for row in dets if row[2] >= threshold]
    tp = fp = n_gt = 0
    frames = {frame for frame, _, _ in kept} | {e.frame for tr in gt.tracks
                                                for e in tr.entries}
    for frame in sorted(frames):
        gts = [e.box for tr in gt.tracks for e in tr.entries if e.frame == frame]
        n_gt += len(gts)
        frame_dets = [(box, score) for f, box, score in kept if f == frame]
        m = _greedy(frame_dets, gts, iou_thr)
        tp += len(m)
        fp += len(frame_dets) - len(m)
    precision = tp / (tp + fp) if tp + fp else 1.0
    return precision, tp / n_gt


def test_worked_three_detection_curve():
    gt = _gt_two_boxes()
    rows = (
        (1, BBox(0, 0, 20, 20), 0.9),       # hit
        (1, BBox(300, 300, 20, 20), 0.8),   # clutter
        (1, BBox(100, 100, 20, 20), 0.7),   # hit
    )
    points = _points(gt, det_columns(*rows))
    got = [(p["precision"], p["recall"]) for p in
           sorted(points, key=lambda p: -p["threshold"])]
    assert got[0] == (1.0, 0.5)
    assert got[1] == (0.5, 0.5)
    assert got[2] == (pytest.approx(2 / 3), 1.0)
    # cross-check every threshold against a from-scratch evaluation
    for p in points:
        want = _brute_force_pr(rows, gt, 0.7, p["threshold"])
        assert (p["precision"], p["recall"]) == pytest.approx(want)


def test_ap_single_point():
    assert average_precision(np.array([1.0]), np.array([1.0])) == 1.0


def test_ap_two_point_worked_example():
    curve = PRCurve((
        PRPoint(0.9, 1.0, 0.5, 1, 0, 1),
        PRPoint(0.5, 0.5, 1.0, 2, 2, 0),
    ))
    assert _ap(curve) == pytest.approx(0.75)
    assert abs(oracle_ap(curve) - 0.75) < 1e-3


def test_ap_all_miss():
    assert average_precision(np.array([0.0]), np.array([1.0])) == 0.0


def test_ap_invariant_under_dominated_points():
    base = (np.array([0.5, 1.0]), np.array([1.0, 0.5]))
    with_dominated = (np.array([0.5, 0.5, 1.0]), np.array([1.0, 0.4, 0.5]))
    assert average_precision(*with_dominated) == average_precision(*base)


def test_ap_equals_the_former_loop_on_random_curves():
    """Curves in curve order, with coarse values so that recalls and
    precisions tie often: the array AP equals the former loop exactly."""
    rng = np.random.default_rng(11)
    for _ in range(3000):
        n = int(rng.integers(1, 15))
        levels = int(rng.choice([3, 10, 1000]))
        recall = np.sort(rng.integers(0, levels + 1, n) / levels)
        precision = rng.integers(0, levels + 1, n) / levels
        order = np.lexsort((-precision, recall))
        recall, precision = recall[order], precision[order]
        curve = PRCurve(tuple(PRPoint(0.0, p, r, 0, 0, 0) for p, r in
                              zip(precision.tolist(), recall.tolist())))
        assert average_precision(recall, precision) == _reference_ap(curve)


def test_clutter_at_new_lowest_score_never_increases_ap():
    gt = _gt_two_boxes()
    dets = det_columns(
        (1, BBox(0, 0, 20, 20), 0.9),
        (1, BBox(100, 100, 20, 20), 0.7),
    )
    base = detection_report([(gt.columns, dets)])["overall"]
    noisier = concat(dets, det_columns((1, BBox(300, 300, 20, 20), 0.1)))
    with_clutter = detection_report([(gt.columns, noisier)])["overall"]
    assert with_clutter["ap"] <= base["ap"]
    # higher-threshold points are unchanged
    base_pts = {p["threshold"]: (p["precision"], p["recall"])
                for p in _dicts(base["points"])}
    for p in _dicts(with_clutter["points"]):
        if p["threshold"] > 0.1:
            assert base_pts[p["threshold"]] == (p["precision"], p["recall"])


def test_ignored_gt_and_detections_are_neutral():
    region = IgnoreRegion(BBox(95, 95, 40, 40))
    gt = GroundTruth("s", 1, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 20, 20)),)),
        GtTrack(2, (GtEntry(1, BBox(100, 100, 20, 20)),)),  # inside ignore
    ), ignore_regions=(region,))
    dets = det_columns(
        (1, BBox(0, 0, 20, 20), 0.9),
        (1, BBox(100, 100, 20, 20), 0.8),  # in ignore region: neutral
    )
    # single countable GT, matched: every point has no FP and full recall
    best = max(_points(gt, dets), key=lambda p: p["recall"])
    assert best["fp"] == 0 and best["recall"] == 1.0 and best["tp"] == 1


def test_subset_empty_target_set_error():
    gt = _gt_two_boxes()  # all "car"
    dets = det_columns((1, BBox(0, 0, 20, 20), 0.9))
    with pytest.raises(ValidationError, match="empty evaluation target set"):
        detection_report([(gt.columns, dets)], ["category:bus"])


def test_subset_overall_equals_no_predicate():
    """The overall rows are the rows of the sweep's table, which applies
    no subset mask."""
    gt = _gt_two_boxes()
    dets = det_columns(
        (1, BBox(0, 0, 20, 20), 0.9),
        (1, BBox(300, 300, 20, 20), 0.4),
    )
    pairs = [(gt.columns, dets)]
    points = detection_report(pairs, ["overall"])["overall"]["points"]
    table = threshold_counts(pairs)
    assert list(zip(*(points[k] for k in ("threshold", "tp", "fp", "fn")))) == [
        (s, tp, k - tp, table.n_gt - tp) for s, tp, k in
        zip(table.score[1:].tolist(), table.tp[1:].tolist(),
            table.kept[1:].tolist())]


def test_matched_out_of_subset_gt_neutralizes_detection():
    # one car and one bus, detections on both; evaluated on the car subset
    # the bus detection is neither TP nor FP
    gt = GroundTruth("s", 1, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 20, 20), category="car"),)),
        GtTrack(2, (GtEntry(1, BBox(100, 100, 20, 20), category="bus"),)),
    ))
    dets = det_columns(
        (1, BBox(0, 0, 20, 20), 0.9),
        (1, BBox(100, 100, 20, 20), 0.8),
    )
    report = detection_report([(gt.columns, dets)], ["category:car"])
    points = report["category:car"]["points"]
    assert set(points["fp"]) == {0}
    assert report["category:car"]["ap"] == 1.0


def test_category_subsets_select_the_rows_of_their_name():
    """GT categories are int8 codes into CATEGORIES, and a category subset
    selects exactly the rows whose entry has that name."""
    names = ("van", "car", "others", "bus", "car", "van")
    gt = GroundTruth("s", 2, tuple(
        GtTrack(t + 1, (GtEntry(1, BBox(30 * t, 0, 20, 20), category=name),
                        GtEntry(2, BBox(30 * t, 5, 20, 20), category=name)))
        for t, name in enumerate(names)))
    cols = gt.columns
    assert cols.category.dtype == np.int8
    assert [CATEGORIES[c] for c in cols.category] == [n for n in names
                                                       for _ in range(2)]
    for name in CATEGORIES:
        rows = det_metrics._subset_rows("category", name, cols)
        assert rows.tolist() == [n == name for n in names for _ in range(2)]


def test_per_scale_counts_recombine():
    # small + large targets: subset TP counts sum to the overall TP count
    gt = GroundTruth("s", 1, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 20, 20)),)),        # scale 20: small
        GtTrack(2, (GtEntry(1, BBox(300, 300, 200, 200)),)),  # scale 200: large
    ))
    dets = det_columns(
        (1, BBox(0, 0, 20, 20), 0.9),
        (1, BBox(300, 300, 200, 200), 0.8),
    )
    report = detection_report(
        [(gt.columns, dets)], ["overall", "scale:small", "scale:large"])
    overall_tp = max(report["overall"]["points"]["tp"])
    small_tp = max(report["scale:small"]["points"]["tp"])
    large_tp = max(report["scale:large"]["points"]["tp"])
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
        assert abs(_ap(curve) - oracle_ap(curve)) < 1e-3


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
        dets = round_scores(dets, 1)
        pairs.append((gt, dets))
    return pairs, float(rng.choice([0.3, 0.5, 0.7]))


def _counts_at(points, threshold):
    """(tp, fp, fn) of the detections with score >= threshold, read off a
    report's rows: the row of the lowest score at or above it."""
    above = [p for p in points if p["threshold"] >= threshold]
    if not above:
        p = points[0]
        return 0, 0, p["tp"] + p["fn"]
    p = min(above, key=lambda p: p["threshold"])
    return p["tp"], p["fp"], p["fn"]


def test_subset_counts_equal_filter_then_relabel_oracle():
    """Every subset kind read off the one labeling pass equals the scalar
    oracle that thresholds first and relabels per subset; the report's
    rows are in curve order."""
    n_points, kinds = 0, set()
    for seed in range(300):
        pairs, iou_thr = _random_subset_case(seed)
        rng = np.random.default_rng(seed)
        scores = sorted({score for _, dets in pairs
                         for score in dets.score.tolist()})
        columns = [(gt.columns, dets) for gt, dets in pairs]
        taus = scores + [(a + b) / 2 for a, b in zip(scores, scores[1:])]
        taus += [float(t) for t in rng.uniform(-0.2, 1.2, 3)]
        for name in rng.choice(ALL_SUBSETS, 3, replace=False).tolist():
            want = [oracle_sweep_counts(pairs, tau, iou_thr, name) for tau in taus]
            if all(tp + fn == 0 for tp, _, fn in want):
                # no pooled GT in the subset, or no sequence of its kind
                with pytest.raises(ValidationError, match="empty evaluation"):
                    detection_report(columns, [name], iou_thr)
                continue
            points = detection_report(columns, [name], iou_thr)[name]["points"]
            rows = _dicts(points)
            assert [_counts_at(rows, tau) for tau in taus] == want, (seed, name)
            _assert_curve_order(points["precision"], points["recall"])
            n_points += len(taus)
            kinds.add(name)
    assert n_points > 3000 and kinds == set(ALL_SUBSETS)


def test_unknown_subset_name_is_validation_error():
    gt = _gt_two_boxes()
    dets = det_columns((1, BBox(0, 0, 20, 20), 0.9))
    for name in ("scale:huge", "occlusion:some", "weather:foggy",
                 "colour:red", "overall:car", "car"):
        with pytest.raises(ValidationError):
            detection_report([(gt.columns, dets)], [name])


def _read_scene(texts: tuple[str, str], refs: list) -> tuple:
    """The GT and detection columns read from their texts; `refs` gains a
    weak reference to each."""
    pair = (datamodel.read_ground_truth(io.StringIO(texts[0])),
            datamodel.read_detections(io.StringIO(texts[1])))
    refs.extend(map(weakref.ref, pair))
    return pair


def test_a_fed_generator_is_folded_one_sequence_at_a_time():
    """detection_report folds each pair as it arrives: when sequence k + 1
    is read, the GT and detections of sequence k are gone. A list of the
    same pairs gives the same report."""
    texts = []
    for seed in (3, 4, 5):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=4, n_frames=12, drop_rate=0.2, clutter_rate=2.0,
            jitter_sigma=1.0, seed=seed))
        gt_text, det_text = io.StringIO(), io.StringIO()
        datamodel.write_ground_truth(gt, gt_text)
        datamodel.write_detections(dets, det_text)
        texts.append((gt_text.getvalue(), det_text.getvalue()))
    refs, alive = [], []

    def pairs():
        for scene in texts:
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            yield _read_scene(scene, refs)
    subsets = ["overall", "category:car"]
    got = detection_report(pairs(), subsets)
    assert alive == [[], [False] * 2, [False] * 4]
    want = detection_report([_read_scene(scene, []) for scene in texts],
                            subsets)
    for name in subsets:
        assert got[name]["ap"] == want[name]["ap"]
        assert _dicts(got[name]["points"]) == _dicts(want[name]["points"])


def test_tied_signed_zero_scores_keep_the_last_detections_threshold():
    """-0.0 and 0.0 tie; the point's threshold is the score of the last of
    them in (frame, input) order, TPs before FPs, down to its sign."""
    gt = _gt_two_boxes()
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        dets = det_columns(
            (1, BBox(300, 300, 20, 20), first),    # FP
            (1, BBox(0, 0, 20, 20), 0.5),          # TP
            (2, BBox(400, 400, 20, 20), second),   # FP, later frame
        )
        gt2 = GroundTruth("s", 2, gt.tracks)
        points = _points(gt2, dets)
        _assert_curve_order([p["precision"] for p in points],
                            [p["recall"] for p in points])
        (zero,) = [p for p in points if p["threshold"] == 0.0]
        assert math.copysign(1.0, zero["threshold"]) == math.copysign(1.0, second)
        assert (zero["tp"], zero["fp"]) == (1, 2)
        table = threshold_counts([(gt2.columns, dets)])
        assert table.at(0.0) == table.at(-0.0) == (1, 2, 1)
        _assert_curve_order(*rates(table.tp, table.kept, table.n_gt))


def test_ap_equals_the_former_loop_on_every_subset():
    """On the subset oracle's cases, every subset's AP equals the former
    loop run on the report's own rows."""
    n_reports = 0
    for seed in range(60):
        pairs, iou_thr = _random_subset_case(seed)
        columns = [(gt.columns, dets) for gt, dets in pairs]
        for name in ALL_SUBSETS:
            try:
                body = detection_report(columns, [name], iou_thr)[name]
            except ValidationError:
                continue
            curve = PRCurve(tuple(PRPoint(**p) for p in _dicts(body["points"])))
            assert body["ap"] == _reference_ap(curve), (seed, name)
            n_reports += 1
    assert n_reports > 300


def _grid_scene(seed, n_gt, n_dets):
    """GT and detections on a 5-px grid, 10 or 20 px wide, over frames 1-5,
    with scores from three values and one ignore region: IoUs and scores
    tie often."""
    rng = np.random.default_rng(seed)

    def boxes(n):
        size = rng.choice([10.0, 20.0], n)
        return (5.0 * rng.integers(0, 6, n), 5.0 * rng.integers(0, 3, n),
                size, rng.integers(1, 6, n))
    left, top, size, frame = boxes(n_gt)
    gt = GroundTruth("grid", 5, tuple(
        GtTrack(i + 1, (GtEntry(int(f), BBox(float(x), float(y), s, s)),))
        for i, (x, y, s, f) in enumerate(zip(left, top, size, frame))),
        ignore_regions=(IgnoreRegion(BBox(0.0, 0.0, 12.0, 12.0), 2, 4),))
    left, top, size, frame = boxes(n_dets)
    return gt.columns, det_columns(*(
        (int(f), BBox(float(x), float(y), s, s), float(score))
        for x, y, s, f, score in zip(left, top, size, frame,
                                     rng.choice([0.25, 0.5, 0.75], n_dets))))


def _label_scenes():
    """(GT, detections) columns: cluttered scenarios on a small arena
    (conflict-heavy) with a static and a frame-ranged ignore region and
    1-decimal (tied) scores, grid scenes (tied IoUs and scores), frames of
    one GT box and one detection apart or touching (IoU 0), and the empty
    sides."""
    scenes = []
    for seed in range(4):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=8, n_frames=12, arena=(160.0, 120.0), drop_rate=0.2,
            clutter_rate=5.0, jitter_sigma=4.0, seed=seed))
        gt = dataclasses.replace(gt, ignore_regions=(
            IgnoreRegion(BBox(0.0, 0.0, 60.0, 50.0)),
            IgnoreRegion(BBox(80.0, 60.0, 60.0, 50.0), 4, 9)))
        scenes.append((gt.columns, round_scores(dets, 1)))
    for seed in range(6):
        scenes.append(_grid_scene(seed, 12, 30))
    box = BBox(0.0, 0.0, 10.0, 10.0)
    apart = GroundTruth("apart", 2, (GtTrack(1, (GtEntry(1, box),
                                                 GtEntry(2, box))),))
    scenes.append((apart.columns,
                   det_columns((1, BBox(50.0, 50.0, 10.0, 10.0), 0.5),
                               (2, BBox(10.0, 0.0, 10.0, 10.0), 0.5))))
    gt, dets = scenes[0]
    nothing = GroundTruth("none", 12, ())
    scenes += [(gt, dets.take(np.zeros(len(dets), dtype=bool))),
               (nothing.columns, dets)]
    return scenes


def _label_frame_kinds(g, d, iou_thr):
    """Per frame with a detection and a pooled GT box: which side has a
    box with two edges (pooled pairs with IoU > 0 and >= iou_thr):
    "detection", "gt", "both" or "free"."""
    pooled = ~covered(g, g.ignore)
    kinds = []
    for f in np.intersect1d(d.frame, g.frame[pooled]).tolist():
        gts = np.flatnonzero(pooled & (g.frame == f))
        iou = iou_matrix(d.corners(np.flatnonzero(d.frame == f)),
                         g.corners(gts))
        edge = (iou > 0.0) & (iou >= iou_thr)
        by_det, by_gt = edge.sum(1).max() > 1, edge.sum(0).max() > 1
        kinds.append("both" if by_det and by_gt else "detection" if by_det
                     else "gt" if by_gt else "free")
    return kinds


@pytest.mark.parametrize("iou_thr", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_table_labeling_equals_the_frame_loop(iou_thr):
    for g, d in _label_scenes():
        got = _label_detections(g, d, edge_table(g, d, iou_thr), iou_thr)
        want = frame_loop_label_detections(g, d, iou_thr)
        for name in ("score", "matched", "covered", "pooled", "inside"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


def test_label_scenes_cover_the_conflict_patterns():
    """Frames where only detections, only GT, or both hold two edges, and
    conflict-free frames; at IoU 1.0 the grid's equal boxes still meet."""
    one_side = {"detection", "gt", "free"}
    every = one_side | {"both"}
    for iou_thr, want in ((0.0, {"gt", "both", "free"}), (0.3, every),
                          (0.5, every), (0.7, every), (1.0, one_side)):
        kinds = {k for g, d in _label_scenes()
                 for k in _label_frame_kinds(g, d, iou_thr)}
        assert want <= kinds, iou_thr


def test_greedy_matching_runs_on_conflicted_frames_only(monkeypatch):
    calls = []

    def counted(iou_mat, scores, iou_thr, _fn=det_metrics.match_frame_greedy):
        calls.append(iou_mat.shape)
        return _fn(iou_mat, scores, iou_thr)
    monkeypatch.setattr(det_metrics, "match_frame_greedy", counted)
    for iou_thr in (0.3, 0.7):
        for g, d in _label_scenes():
            calls.clear()
            _label_detections(g, d, edge_table(g, d, iou_thr), iou_thr)
            kinds = _label_frame_kinds(g, d, iou_thr)
            assert len(calls) == len(kinds) - kinds.count("free")


@pytest.mark.parametrize("budget", [1, 50])
def test_chunk_budget_does_not_change_labels(budget, monkeypatch):
    """One frame pair per chunk, and chunks that end mid-sequence."""
    scenes = _label_scenes()
    want = [threshold_counts([scene], 0.3) for scene in scenes]
    monkeypatch.setattr(datamodel, "EDGE_CHUNK_PAIRS", budget)
    for scene, expected in zip(scenes, want):
        got = threshold_counts([scene], 0.3)
        for name in ("score", "tp", "kept", "n_gt"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))
