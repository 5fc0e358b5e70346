import dataclasses
import gc
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest


from box_columns import round_scores, track_columns
from detraceval.datamodel import BBox, IgnoreRegion, ValidationError
from detraceval.det_metrics import rates, threshold_counts
from detraceval.fixtures import load_fixture
from detraceval.geometry import covered, iou_matrix
from detraceval.matching import match_frame_greedy
from detraceval.mot_metrics import (MetricBundle, aggregate, evaluate_clear,
                                    evaluate_clear_runs)
from detraceval import (det_metrics, geometry, mot_metrics, pr_integration,
                        trackers)
from detraceval.pr_integration import (OperatingPoint, SweepError, arc_length,
                                       integrate, pr_report, select_thresholds,
                                       select_thresholds_quantile, sweep)
from detraceval.synth import ScenarioConfig, gen_scenario, oracle_sweep_counts
from test_mot_metrics import _assert_same_clear, _reference_evaluate_clear


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


def test_select_thresholds_stay_finite_when_the_score_range_overflows():
    """-1e308 .. 1e308 spans more than a double holds: the ladder still
    runs from the lowest score to the highest, finite and increasing."""
    for n in (2, 3, 10):
        got = select_thresholds([-1e308, 0.5, 1e308], n)
        assert len(got) == n and got[0] == -1e308 and got[-1] == 1e308
        assert all(map(math.isfinite, got)) and got == sorted(set(got))
    big = float(np.finfo(np.float64).max)
    assert select_thresholds([-big, big], 3) == [-big, 0.0, big]


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


def test_single_point_warns_once_per_integrate_and_once_per_report():
    """Under an `always` filter a one-point curve gives one warning per
    direct `integrate` call, and one per `pr_report` call for its eight
    scores, every one of them 0."""
    points = [_point(1.0, 0.5, mota=80.0)]
    with pytest.warns(UserWarning) as caught:
        integrate(points, lambda m: m.mota)
        integrate(points, lambda m: m.motp)
    assert len(caught) == 2
    with pytest.warns(UserWarning) as caught:
        report = pr_report(points)
    assert [str(w.message) for w in caught] == [
        "single operating point: line integral is 0"]
    assert set(report.scores().values()) == {0.0}


def test_empty_curve_is_an_error():
    message = "integrate requires at least one operating point"
    with pytest.raises(ValidationError, match=message):
        pr_report([])
    with pytest.raises(ValidationError, match=message):
        integrate([], lambda m: m.mota)


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


def test_arc_length_and_mean_scores_fold_left_to_right():
    """Both float totals add left to right from the int 0, on any
    interpreter: a step of 1.0 then ten of 1e-16 stay 1.0, where a
    compensated sum (CPython >= 3.12's `sum`, or `math.fsum`) gives
    1.000000000000001."""
    steps = [1.0] + [1e-16] * 10
    assert math.fsum(steps) != 1.0
    pts = [_point(1.0, 0.0), _point(0.0, 0.0)] + [
        _point(0.0, k * 1e-16) for k in range(1, 11)]
    lengths = [math.hypot(b.precision - a.precision, b.recall - a.recall)
               for a, b in zip(pts, pts[1:])]
    assert lengths[0] == 1.0 and math.fsum(lengths) != 1.0
    assert arc_length(pts) == 1.0
    mean = pr_integration.mean_scores([{"s": v} for v in steps])
    assert mean == {"s": 1.0 / 11} and math.fsum(steps) / 11 != 1.0 / 11


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
            pairs = match_frame_greedy(
                iou_matrix(corners[rows],
                           _corners([entries[g].box for g in gids])),
                dets.score[rows], self.iou_thr)
            for gi, _, _ in pairs:
                boxes.setdefault(gids[gi], []).append(
                    (frame, entries[gids[gi]].box))
        return track_columns(*sorted(boxes.items()))


def test_sweep_against_detection_count_closed_form():
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=3, n_frames=15, drop_rate=0.2, clutter_rate=0.0,
        jitter_sigma=0.0, tp_mean=0.7, clutter_mean=0.1, score_sigma=0.15,
        seed=21))
    tracker = OracleTracker(gt)
    thresholds = select_thresholds(dets.score, 6)
    points = sweep([(gt.columns, dets)], tracker, thresholds)
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
    points = sweep([(gt.columns, dets)], tracker, [0.9])
    assert len(points) == 1
    p = points[0]
    assert p.recall == 0.0
    assert p.metrics.fn == gt.total_boxes()
    assert p.metrics.mota == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_rejects_a_non_finite_threshold(bad):
    gt, dets = gen_scenario(ScenarioConfig(n_targets=2, n_frames=5, seed=1))
    with pytest.raises(ValidationError,
                       match=rf"thresholds must be finite: \[0\.5, {bad}\]"):
        sweep([(gt.columns, dets)], OracleTracker(gt), [0.5, bad])


def test_sweep_threshold_below_min_score_is_identity():
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=2, n_frames=5, tp_mean=0.5, score_sigma=0.0, seed=1))
    tracker = OracleTracker(gt)
    low = sweep([(gt.columns, dets)], tracker, [0.0])[0]
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
        sweep([(gt.columns, dets)], flaky,
              select_thresholds(dets.score, 4))
    calls["n"] = 0
    points = sweep([(gt.columns, dets)], flaky,
                   select_thresholds(dets.score, 4),
                   keep_going=True)
    assert len(points) == 3


def _two_sequences():
    pairs = []
    for seed, name in ((3, "a"), (4, "b")):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=4, n_frames=12, drop_rate=0.2, clutter_rate=2.0,
            jitter_sigma=1.0, seed=seed))
        pairs.append((dataclasses.replace(gt, sequence_id=name).columns,
                      dets))
    return pairs


def test_sweep_builds_one_link_table_per_sequence(monkeypatch):
    """The sweep's IoUs are computed once per sequence: the number of link
    tables, of GT x detection edge tables and of IoU kernel calls (all
    made while building them) does not grow with the number of
    thresholds, and the points equal per-threshold tracking."""
    pairs = _two_sequences()
    scores = np.concatenate([dets.score for _, dets in pairs])
    tracker = trackers.BuiltinGreedyTracker(max_gap=2)
    calls = {"link_table": 0, "edge_table": 0, "iou_broadcast": 0}
    for module, name in ((trackers, "link_table"),
                         (pr_integration, "edge_table"),
                         (geometry, "iou_broadcast")):
        def counted(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    seen = []
    for n in (3, 8):
        for key in calls:
            calls[key] = 0
        thresholds = select_thresholds(scores, n)
        points = sweep(pairs, tracker, thresholds)
        seen.append(dict(calls))
        assert points == sweep(pairs, lambda d, seq: tracker(d, seq),
                               thresholds)
    assert seen[0] == seen[1]
    assert seen[0]["link_table"] == seen[0]["edge_table"] == 2


def _crowded_sequences(regions=(IgnoreRegion(BBox(0.0, 0.0, 60.0, 50.0)),)):
    """Two cluttered sequences on a small arena, with a static ignore
    region by default: frames where a GT box or a detection overlaps two
    boxes of the other side are common."""
    pairs = []
    for seed, name in ((5, "a"), (6, "b")):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=8, n_frames=14, arena=(160.0, 120.0), drop_rate=0.2,
            clutter_rate=5.0, jitter_sigma=4.0, seed=seed))
        gt = dataclasses.replace(gt, sequence_id=name, ignore_regions=regions)
        pairs.append((gt.columns, dets))
    return pairs


@pytest.mark.parametrize("spec", ["builtin:max_gap=2",
                                  "builtin:max_gap=1,min_track_len=3", "cmd"])
def test_table_fed_clear_equals_clear_on_the_tracks(spec, monkeypatch):
    """At every threshold of a sweep, CLEAR on the tracker's output reads
    the tracks' part of the GT x detection table (builtin trackers) or
    builds its own table (cmd:), and equals both CLEAR building its table
    from the tracks and the per-frame walk."""
    linker = Path(__file__).resolve().parent / "reference_linker.py"
    tracker = trackers.make_tracker(
        f"cmd:{sys.executable} {linker} {{input}} {{output}} 2"
        if spec == "cmd" else spec)
    calls = []

    def spy(gt, runs, iou_thr):
        stats = evaluate_clear_runs(gt, runs, iou_thr)
        calls.extend((gt, *run, iou_thr, got) for run, got in zip(runs, stats))
        return stats
    monkeypatch.setattr(pr_integration, "evaluate_clear_runs", spy)
    pairs = _crowded_sequences()
    scores = np.concatenate([dets.score for _, dets in pairs])
    for iou_thr in (0.3,) if spec == "cmd" else (0.3, 0.5, 0.7):
        sweep(pairs, tracker, select_thresholds(scores, 4 if spec == "cmd"
                                                else 8), iou_thr)
    assert calls
    for gt, tracks, edges, inside, iou_thr, stats in calls:
        assert (edges is None) == (inside is None) == (spec == "cmd")
        got = evaluate_clear(gt, tracks, iou_thr, edges, inside)
        assert stats == got[1]
        _assert_same_clear(got, evaluate_clear(gt, tracks, iou_thr))
        _assert_same_clear(got, _reference_evaluate_clear(gt, tracks, iou_thr))


def _regioned_sequences():
    """The crowded sequences with a static region and two spanned ones
    that overlap it and each other, so that some boxes are clipped by two
    regions and some frames lie outside a span."""
    return _crowded_sequences((
        IgnoreRegion(BBox(0.0, 0.0, 60.0, 50.0)),
        IgnoreRegion(BBox(40.0, 30.0, 50.0, 40.0), 5, 12),
        IgnoreRegion(BBox(80.0, 40.0, 60.0, 60.0), 3, 9)))


@pytest.mark.parametrize("spec", ["builtin:max_gap=2", "cmd"])
def test_sweep_clear_gets_the_tracks_ignore_coverage(spec, monkeypatch):
    """At every threshold the mask of track rows inside ignore regions
    that CLEAR uses equals `covered(tracks, gt.ignore)`: passed in, taken
    from labeling's detection coverage, for the builtin tracker; computed
    by CLEAR from the tracks for a cmd: tracker."""
    linker = Path(__file__).resolve().parent / "reference_linker.py"
    tracker = trackers.make_tracker(
        f"cmd:{sys.executable} {linker} {{input}} {{output}} 2"
        if spec == "cmd" else spec)
    computed, calls = [], []

    def spy(gt, runs, iou_thr):
        computed.clear()
        result = evaluate_clear_runs(gt, runs, iou_thr)
        # CLEAR computes the masks of the runs that bring none, in run order
        masks = iter(list(computed))
        calls.extend((gt, tracks, inside, [] if inside is not None
                      else [next(masks)]) for tracks, _, inside in runs)
        assert next(masks, None) is None
        return result

    def counted(boxes, ignore, _fn=mot_metrics.covered):
        computed.append((boxes, _fn(boxes, ignore)))
        return computed[-1][1]
    monkeypatch.setattr(pr_integration, "evaluate_clear_runs", spy)
    monkeypatch.setattr(mot_metrics, "covered", counted)
    pairs = _regioned_sequences()
    scores = np.concatenate([dets.score for _, dets in pairs])
    # The lowest threshold leaves detections out, so the tracker's entry
    # point sees fewer rows than the labeling pass.
    sweep(pairs, tracker, select_thresholds(scores, 5)[1:], 0.5)
    assert len(calls) == 4 * len(pairs)
    inside_total = 0
    for gt, tracks, inside, masks in calls:
        want = covered(tracks, gt.ignore)
        if spec == "cmd":
            assert inside is None and len(masks) == 1
            boxes, inside = masks[0]
            assert boxes is tracks
        else:
            assert masks == []
        assert inside.dtype == bool and inside.tolist() == want.tolist()
        inside_total += int(want.sum())
    assert inside_total > 0


def test_sweep_coverage_calls_do_not_grow_with_thresholds(monkeypatch):
    """With the builtin tracker, ignore coverage is computed once per
    sequence for the GT and once for the detections, whatever the number
    of thresholds, and never in CLEAR."""
    pairs = _regioned_sequences()
    scores = np.concatenate([dets.score for _, dets in pairs])
    tracker = trackers.BuiltinGreedyTracker(max_gap=2)
    calls = {det_metrics: 0, mot_metrics: 0}
    for module in calls:
        def counted(*args, _fn=module.covered, _module=module):
            calls[_module] += 1
            return _fn(*args)
        monkeypatch.setattr(module, "covered", counted)
    seen = []
    for n in (2, 10):
        for module in calls:
            calls[module] = 0
        sweep(pairs, tracker, select_thresholds(scores, n))
        seen.append((calls[det_metrics], calls[mot_metrics]))
    assert seen == [(2 * len(pairs), 0)] * 2


def test_failing_per_sequence_step_fails_each_threshold():
    """A tracker whose per-sequence step fails on sequence 'b' fails every
    threshold there, as a tracker failing per threshold does."""
    class Broken:
        def by_threshold(self, dets, sequence_id):
            if sequence_id == "b":
                raise RuntimeError("no table")
            return lambda tau: (track_columns(), None)

    pairs = _two_sequences()
    thresholds = select_thresholds(pairs[0][1].score, 4)
    first = (f"tracker failed at threshold {thresholds[0]:g} on sequence "
             "'b': no table")
    with pytest.raises(SweepError, match=first):
        sweep(pairs, Broken(), thresholds)
    with pytest.raises(SweepError, match=f"^every threshold failed; first: "
                                         f"{first}$"):
        sweep(pairs, Broken(), thresholds, keep_going=True, jobs=2)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failures_are_reported_in_threshold_then_sequence_order(jobs):
    """Failures at (sequence 0, 5th threshold) and (sequence 2, 2nd
    threshold): the error names the second, the first in (threshold,
    sequence) order, though a sequence-major sweep meets the other first;
    with keep_going both thresholds are gaps and every other point is the
    one a sweep over the other thresholds gives."""
    pairs = _two_sequences()
    pairs.append((dataclasses.replace(pairs[0][0], sequence_id="c"),
                  pairs[0][1]))
    names = [gt.sequence_id for gt, _ in pairs]
    thresholds = select_thresholds(
        np.concatenate([dets.score for _, dets in pairs]), 8)
    fails = {(names[0], thresholds[4]), (names[2], thresholds[1])}
    builtin = trackers.BuiltinGreedyTracker(max_gap=2)

    class Failing:
        def by_threshold(self, dets, sequence_id):
            at = builtin.by_threshold(dets, sequence_id)

            def step(tau):
                if (sequence_id, tau) in fails:
                    raise RuntimeError(f"fails at {tau:g}")
                return at(tau)
            return step

    with pytest.raises(SweepError) as error:
        sweep(pairs, Failing(), thresholds, jobs=jobs)
    assert str(error.value) == (
        f"tracker failed at threshold {thresholds[1]:g} on sequence "
        f"{names[2]!r}: fails at {thresholds[1]:g}")
    rest = [tau for i, tau in enumerate(thresholds) if i not in (1, 4)]
    assert (sweep(pairs, Failing(), thresholds, keep_going=True, jobs=jobs)
            == sweep(pairs, builtin, rest))


def test_a_tracker_failing_everywhere_is_called_once():
    """Without keep_going the sweep stops at the first failure: a tracker
    that fails on every call is called once at jobs=1, whatever the
    number of sequences and thresholds."""
    calls = []

    def failing(dets, sequence_id):
        calls.append(sequence_id)
        raise RuntimeError("always")

    pairs = _two_sequences()
    thresholds = select_thresholds(pairs[0][1].score, 10)
    with pytest.raises(SweepError, match=(
            f"^tracker failed at threshold {thresholds[0]:g} on sequence "
            f"'a': always$")):
        sweep(pairs, failing, thresholds)
    assert calls == ["a"]


@pytest.mark.parametrize("keep_going", [False, True])
def test_a_decided_error_builds_no_later_sequences_table(monkeypatch,
                                                         keep_going):
    """Once a failure is known and no threshold is left to run (the first
    threshold failed, or with keep_going every threshold did), the sweep
    raises without building a later sequence's edge table; with no
    thresholds it returns no point and builds no table."""
    built = []

    def counted(gt, *args, _fn=pr_integration.edge_table):
        built.append(gt.sequence_id)
        return _fn(gt, *args)

    def failing(dets, sequence_id):
        raise RuntimeError("always")

    monkeypatch.setattr(pr_integration, "edge_table", counted)
    pairs = _two_sequences()
    pairs.append((dataclasses.replace(pairs[0][0], sequence_id="c"),
                  pairs[0][1]))
    thresholds = select_thresholds(pairs[0][1].score, 4)
    every = "every threshold failed; first: " if keep_going else ""
    with pytest.raises(SweepError, match=(
            f"^{every}tracker failed at threshold {thresholds[0]:g} on "
            f"sequence 'a': always$")):
        sweep(pairs, failing, thresholds, keep_going=keep_going)
    assert built == ["a"]
    built.clear()
    assert sweep(pairs, failing, [], keep_going=keep_going) == []
    assert built == []


def _tables_alive(monkeypatch) -> list:
    """A list that gains, each time the sweep builds an edge table, whether
    each edge table, labels and link table built before it is alive."""
    refs, alive = [], []

    def tracked(module, name):
        def build(*args, _fn=getattr(module, name)):
            if name == "edge_table":
                gc.collect()
                alive.append([ref() is not None for ref in refs])
            table = _fn(*args)
            refs.append(weakref.ref(table))
            return table
        monkeypatch.setattr(module, name, build)
    tracked(pr_integration, "edge_table")
    tracked(pr_integration, "_label_detections")
    tracked(trackers, "link_table")
    return alive


def test_a_sequences_tables_die_before_the_next_is_built(monkeypatch):
    """The sweep is sequence-major: when a sequence's edge table is built,
    the edge table, labels and link table of the sequence before are
    gone."""
    alive = _tables_alive(monkeypatch)
    pairs = _two_sequences()
    scores = np.concatenate([dets.score for _, dets in pairs])
    sweep(pairs, trackers.BuiltinGreedyTracker(max_gap=2),
          select_thresholds(scores, 4))
    assert alive == [[], [False] * 3]


def test_a_held_failure_keeps_no_table_alive(monkeypatch):
    """A failure that a keep_going sweep holds keeps none of its sequence's
    tables alive: when b's edge table is built, a's edge table, labels and
    link table are gone, though a failed at one threshold, and the error
    line still gives the failure's message."""
    pairs = _two_sequences()
    thresholds = select_thresholds(
        np.concatenate([dets.score for _, dets in pairs]), 4)
    builtin = trackers.BuiltinGreedyTracker(max_gap=2)

    class Failing:
        def by_threshold(self, dets, sequence_id):
            at = builtin.by_threshold(dets, sequence_id)

            def step(tau):
                if (sequence_id, tau) == ("a", thresholds[1]):
                    raise RuntimeError(f"fails at {tau:g}")
                return at(tau)
            return step

    alive = _tables_alive(monkeypatch)
    points = sweep(pairs, Failing(), thresholds, keep_going=True)
    assert alive == [[], [False] * 3]
    assert sorted(p.threshold for p in points) == [
        tau for i, tau in enumerate(thresholds) if i != 1]
    with pytest.raises(SweepError, match=(
            f"^tracker failed at threshold {thresholds[1]:g} on sequence "
            f"'a': fails at {thresholds[1]:g}$")):
        sweep(pairs, Failing(), thresholds)


def test_sweep_bundles_aggregate_the_stats_clear_gave():
    """At each threshold the sweep's bundle is `aggregate` of the stats
    that `evaluate_clear_runs` returned there, sequence by sequence."""
    pairs = _regioned_sequences()
    thresholds = select_thresholds(
        np.concatenate([dets.score for _, dets in pairs]), 5)
    builtin = trackers.BuiltinGreedyTracker(max_gap=2)
    seen = []

    class Recording:
        def by_threshold(self, dets, sequence_id):
            at = builtin.by_threshold(dets, sequence_id)
            return lambda tau: seen.append([tau]) or at(tau)

    def spy(gt, runs, iou_thr):
        # one call per sequence, after its tracker steps, in their order
        stats = evaluate_clear_runs(gt, runs, iou_thr)
        for entry, got in zip(seen[len(seen) - len(runs):], stats):
            entry.append(got)
        return stats
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pr_integration, "evaluate_clear_runs", spy)
        points = sweep(pairs, Recording(), thresholds)
    assert [tau for tau, _ in seen] == thresholds * len(pairs)
    assert len(points) == len(thresholds)
    for p in points:
        stats = [s for tau, s in seen if tau == p.threshold]
        assert len(stats) == len(pairs)
        assert p.metrics == aggregate(stats)


def test_pr_report_all_zero_bundles():
    pts = [_point(1.0, 0.0), _point(0.5, 1.0)]
    report = pr_report(pts)
    assert all(v == 0.0 for v in report.scores().values())
    assert report.arc_length == pytest.approx(math.hypot(0.5, 1.0))


def test_pr_report_count_linearity():
    pts = [_point(1.0, 0.0, ids=2), _point(0.5, 1.0, ids=4)]
    doubled = [_point(1.0, 0.0, ids=4), _point(0.5, 1.0, ids=8)]
    assert pr_report(doubled).scores()["pr_ids"] == pytest.approx(
        2 * pr_report(pts).scores()["pr_ids"])


def test_ranking_flip_fixture_inverts_mota_ordering():
    fx = load_fixture("ranking-flip")
    thresholds = select_thresholds(fx.dets.score, 10)
    names = sorted(fx.trackers)
    pairs = [(fx.gt.columns, fx.dets)]
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
        dets = round_scores(dets, 1)
        if rng.uniform() < 0.5:
            region = IgnoreRegion(BBox(float(rng.uniform(0, 700)),
                                       float(rng.uniform(0, 400)), 250.0, 150.0))
            gt = dataclasses.replace(gt, ignore_regions=(region,))
        pairs.append((gt, dets))
    return pairs, float(rng.choice([0.3, 0.5, 0.7]))


def _columns(pairs):
    return [(gt.columns, dets) for gt, dets in pairs]


def _assert_table_in_curve_order(table):
    """Rows by descending score are by recall ascending, ties by
    precision descending."""
    assert np.all(np.diff(table.score) < 0)
    precision, recall = rates(table.tp, table.kept, table.n_gt)
    keys = list(zip(recall.tolist(), (-precision).tolist()))
    assert keys == sorted(keys)


def test_threshold_counts_equal_filter_then_relabel_oracle():
    n_points = 0
    for seed in range(250):
        pairs, iou_thr = _random_sweep_case(seed)
        counts = threshold_counts(_columns(pairs), iou_thr)
        scores = sorted({score for _, dets in pairs for score in dets.score.tolist()})
        # every detection score (thresholds that equal a score), the
        # midpoints between them, and both sides of the range
        taus = scores + [(a + b) / 2 for a, b in zip(scores, scores[1:])]
        taus += [min(scores, default=0.0) - 1.0, max(scores, default=0.0) + 1.0]
        for tau in taus:
            assert counts.at(tau) == oracle_sweep_counts(pairs, tau, iou_thr), \
                (seed, tau)
            n_points += 1
        _assert_table_in_curve_order(counts)
    assert n_points > 1000


def test_sweep_precision_recall_come_from_oracle_counts():
    pairs, iou_thr = _random_sweep_case(3)
    thresholds = sorted({score for _, dets in pairs for score in dets.score.tolist()})
    points = sweep(_columns(pairs), lambda dets, seq: track_columns(),
                   thresholds, iou_thr=iou_thr)
    assert len(points) == len(thresholds)
    _assert_table_in_curve_order(threshold_counts(_columns(pairs), iou_thr))
    for p in points:
        tp, fp, fn = oracle_sweep_counts(pairs, p.threshold, iou_thr)
        assert p.precision == (tp / (tp + fp) if tp + fp else 1.0)
        assert p.recall == tp / (tp + fn)
