"""Acceptance gate: one test per release criterion, each printing a
PASS line with the measured quantity.

These intentionally re-derive expected values from first principles
(exhaustive enumeration, numeric integration, closed-form identities)
rather than trusting the library under test.
"""

import contextlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from detraceval.cli import main
from detraceval.datamodel import (BBox, GroundTruth, GtEntry, GtTrack,
                                  OutTrack, TrackSet, write_ground_truth,
                                  write_tracks)
from detraceval.det_metrics import PRCurve, PRPoint, average_precision, pr_curve
from detraceval.fixtures import load_fixture
from detraceval.matching import FORBIDDEN, hungarian
from detraceval.mot_metrics import (FrameCounts, SequenceStats, aggregate,
                                    evaluate_clear)
from detraceval.pr_integration import pr_report, select_thresholds, sweep
from detraceval.synth import oracle_ap, oracle_clear, random_tiny_scenario
from detraceval.trackers import greedy_iou_track


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def _warns_if(expected: bool, match: str):
    """`pytest.warns(UserWarning, match=match)` when `expected`, else a
    no-op context (any warning then fails the test)."""
    return (pytest.warns(UserWarning, match=match) if expected
            else contextlib.nullcontext())


def test_criterion_01_oracle_equivalence():
    n = 500
    t0 = time.perf_counter()
    for seed in range(n):
        gt, tracks = random_tiny_scenario(seed)
        got, _ = evaluate_clear(gt.columns, tracks.columns)
        want = oracle_clear(gt, tracks)
        assert (got.ids, got.fm, got.fp, got.fn, got.mt, got.ml) == \
               (want.ids, want.fm, want.fp, want.fn,
                want.mt, want.ml), f"seed {seed}"
        assert got.mota == pytest.approx(want.mota, abs=1e-9), f"seed {seed}"
        assert got.motp == pytest.approx(want.motp, abs=1e-9), f"seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion-01 oracle equivalence",
            f"{n} scenarios matched exhaustive oracle in {elapsed:.1f}s")


def _brute_force_min_cost(costs: np.ndarray) -> float:
    n_rows, n_cols = costs.shape
    best_card, best_cost = -1, math.inf
    rows = range(n_rows)
    for k in range(min(n_rows, n_cols), -1, -1):
        if k < best_card:
            break
        for rsub in itertools.combinations(rows, k):
            for csub in itertools.permutations(range(n_cols), k):
                cost = 0.0
                ok = True
                for r, c in zip(rsub, csub):
                    if costs[r, c] == FORBIDDEN:
                        ok = False
                        break
                    cost += costs[r, c]
                if ok and (k > best_card or cost < best_cost):
                    best_card, best_cost = k, cost
        if best_card == k:
            break
    return best_card, best_cost


def test_criterion_02_hungarian_exact():
    rng = np.random.default_rng(20)
    n = 1000
    for trial in range(n):
        n_rows = int(rng.integers(1, 7))
        n_cols = int(rng.integers(1, 7))
        costs = rng.integers(-64, 65, size=(n_rows, n_cols)) / 64.0
        if trial % 3 == 0:
            mask = rng.random((n_rows, n_cols)) < 0.3
            costs = np.where(mask, FORBIDDEN, costs)
        assignment = hungarian(costs)
        got_cost = sum(costs[r, c] for r, c in assignment.items())
        want_card, want_cost = _brute_force_min_cost(costs)
        assert len(assignment) == want_card, f"trial {trial}"
        if want_card:
            assert got_cost == want_cost, f"trial {trial}"
    _report("criterion-02 assignment optimality",
            f"{n} random cost matrices equal the permutation minimum exactly")


def test_criterion_03_perfect_pipeline_identities():
    fx = load_fixture("perfect")
    gt, dets = fx.gt.columns, fx.dets.columns
    curve = pr_curve(gt, dets)
    ap = average_precision(curve)
    assert ap == pytest.approx(1.0, abs=1e-9)
    tracks = greedy_iou_track(dets)
    bundle, stats = evaluate_clear(gt, tracks)
    assert bundle.mota == pytest.approx(100.0, abs=1e-9)
    assert bundle.motp == pytest.approx(100.0, abs=1e-9)
    assert (bundle.ids, bundle.fm, bundle.fp, bundle.fn) == (0, 0, 0, 0)
    assert bundle.mt == stats.n_tracks
    assert bundle.mt_pct == pytest.approx(100.0, abs=1e-9)
    # every score is equal: one threshold, one operating point
    with pytest.warns(UserWarning, match="all detection scores are equal"):
        thresholds = select_thresholds(dets.score, 10)
    points = sweep([(gt, dets)], fx.trackers["builtin"], thresholds)
    with pytest.warns(UserWarning, match="single operating point"):
        report = pr_report(points)
    # constant psi = 100 along the whole curve, so the line integral
    # collapses to 100 * L / 2 = 50 * L
    for p in points:
        assert p.metrics.mota == pytest.approx(100.0, abs=1e-9)
    assert report.scores()["pr_mota"] == pytest.approx(
        50.0 * report.arc_length, abs=1e-9)
    _report("criterion-03 perfect-pipeline identities",
            f"ap=1, mota=motp=100, errors=0, pr_mota=50*L "
            f"(L={report.arc_length:.6g})")


def test_criterion_04_mota_substitution_and_range():
    stats = SequenceStats(
        sequence_id="substitution",
        frame_counts=(FrameCounts(frame=1, gt=100, matches=80, fn=20,
                                  fp=10, ids=2, iou_sum=80.0),),
        fm=0, mt=0, ml=0, n_tracks=1)
    bundle = aggregate([stats])
    assert bundle.mota == 68.0

    gt, _ = random_tiny_scenario(3)
    empty = TrackSet(())
    empty_bundle, _ = evaluate_clear(gt.columns, empty.columns)
    assert empty_bundle.mota == 0.0

    fx = load_fixture("fp-heavy")
    heavy, _ = evaluate_clear(fx.gt.columns, greedy_iou_track(fx.dets.columns))
    assert heavy.mota < 0.0
    _report("criterion-04 accuracy formula",
            f"counts (100,20,10,2) -> 68.0 exact; empty -> 0.0; "
            f"fp-heavy -> {heavy.mota:.2f} < 0")


def test_criterion_05_integral_bound():
    checked = 0
    for name in ("perfect", "crossing", "ranking-flip", "fp-heavy"):
        fx = load_fixture(name)
        # every score is equal: one threshold, one operating point
        single = name in ("perfect", "crossing")
        with _warns_if(single, "all detection scores are equal"):
            thresholds = select_thresholds(fx.dets.columns.score, 10)
        for tracker in fx.trackers.values():
            points = sweep([(fx.gt.columns, fx.dets.columns)], tracker,
                           thresholds)
            with _warns_if(single, "single operating point"):
                report = pr_report(points)
            length = report.arc_length
            psi = [p.metrics.mota for p in points]
            value = report.scores()["pr_mota"]
            assert value <= 100.0 + 1e-9
            assert min(psi) * length / 2 - 1e-9 <= value \
                <= max(psi) * length / 2 + 1e-9, name
            checked += 1
    _report("criterion-05 integral bound",
            f"{checked} sweeps inside [min*L/2, max*L/2] and <= 100")


def test_criterion_06_ap_oracle():
    two_point = PRCurve((PRPoint(1.0, 1.0, 0.5, 1, 0, 1),
                         PRPoint(0.5, 0.5, 1.0, 2, 2, 0)))
    assert average_precision(two_point) == pytest.approx(0.75, abs=1e-9)
    assert oracle_ap(two_point) == pytest.approx(0.75, abs=1e-3)

    rng = np.random.default_rng(60)
    n = 200
    worst = 0.0
    for _ in range(n):
        size = int(rng.integers(1, 13))
        recalls = np.sort(rng.uniform(0.0, 1.0, size))
        precisions = rng.uniform(0.0, 1.0, size)
        pts = sorted((PRPoint(0.0, float(p), float(r), 0, 0, 0)
                      for r, p in zip(recalls, precisions)),
                     key=lambda q: (q.recall, -q.precision))
        curve = PRCurve(tuple(pts))
        err = abs(average_precision(curve) - oracle_ap(curve))
        worst = max(worst, err)
        assert err < 1e-3
    _report("criterion-06 ap numeric oracle",
            f"{n} random curves within 1e-3 of grid integration "
            f"(worst {worst:.2e}); two-point curve = 0.75")


def test_criterion_07_ranking_flip():
    fx = load_fixture("ranking-flip")
    thresholds = select_thresholds(fx.dets.columns.score, 10)
    curves = {}
    for name in ("keep_all", "suppress_short"):
        points = sweep([(fx.gt.columns, fx.dets.columns)], fx.trackers[name],
                       thresholds)
        curves[name] = {p.threshold: p.metrics.mota for p in points}
    shared = sorted(set(curves["keep_all"]) & set(curves["suppress_short"]))
    diffs = [curves["keep_all"][t] - curves["suppress_short"][t]
             for t in shared]
    assert any(d > 0 for d in diffs) and any(d < 0 for d in diffs), diffs
    win = next(t for t, d in zip(shared, diffs) if d > 0)
    lose = next(t for t, d in zip(shared, diffs) if d < 0)
    _report("criterion-07 ranking instability",
            f"keep_all leads at threshold {win:.3g} and trails at "
            f"{lose:.3g} on the same detections")


def test_criterion_08_relabeling_invariance():
    rng = np.random.default_rng(80)
    n = 100
    for seed in range(n):
        gt, tracks = random_tiny_scenario(seed + 10_000)
        ids = sorted({t.track_id for t in tracks.tracks})
        shuffled = [int(x) for x in rng.permutation(len(ids))]
        mapping = {old: 1000 + new for old, new in zip(ids, shuffled)}
        relabeled = tracks.relabel(mapping)
        original, _ = evaluate_clear(gt.columns, tracks.columns)
        renamed, _ = evaluate_clear(gt.columns, relabeled.columns)
        for field in ("ids", "fm", "fp", "fn", "mt", "ml"):
            assert getattr(original, field) == getattr(renamed, field), \
                f"seed {seed}: {field}"
        for field in ("mota", "motp", "mt_pct", "ml_pct"):
            assert abs(getattr(original, field)
                       - getattr(renamed, field)) <= 1e-9, \
                f"seed {seed}: {field}"
    _report("criterion-08 relabeling invariance",
            f"{n} random bijective relabelings left every bundle unchanged")


def _big_benchmark(tmp_path):
    n_targets, n_frames = 20, 5000   # 100k boxes each side
    gt_tracks, out_tracks = [], []
    for tid in range(1, n_targets + 1):
        x0 = 60.0 * tid
        entries, boxes = [], []
        for frame in range(1, n_frames + 1):
            left = x0 + 0.01 * frame
            entries.append(GtEntry(frame=frame,
                                   box=BBox(left, 100.0, 40.0, 40.0)))
            boxes.append((frame, BBox(left + 1.0, 100.0, 40.0, 40.0)))
        gt_tracks.append(GtTrack(target_id=tid, entries=tuple(entries)))
        out_tracks.append(OutTrack(track_id=tid, boxes=tuple(boxes)))
    gt = GroundTruth(sequence_id="bench", frame_count=n_frames,
                     tracks=tuple(gt_tracks))
    tracks = TrackSet(tuple(out_tracks))
    gt_dir = tmp_path / "gt"
    tr_dir = tmp_path / "tracks"
    gt_dir.mkdir()
    tr_dir.mkdir()
    with open(gt_dir / "bench.json", "w") as fh:
        write_ground_truth(gt, fh)
    with open(tr_dir / "bench.csv", "w") as fh:
        write_tracks(tracks.columns, fh)
    return gt.total_boxes(), gt_dir, tr_dir


def test_criterion_09_throughput(tmp_path):
    n_boxes, gt_dir, tr_dir = _big_benchmark(tmp_path)
    assert n_boxes == 100_000
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["eval-mot", "--gt", str(gt_dir), "--tracks", str(tr_dir),
                 "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    agg = json.loads((out / "mot_aggregate.json").read_text())
    assert agg["bundle"]["fn"] == 0 and agg["bundle"]["fp"] == 0
    _report("criterion-09 throughput",
            f"100k gt + 100k hypothesis boxes evaluated in {elapsed:.2f}s")


def test_criterion_10_parallel_determinism(tmp_path):
    root = tmp_path / "fx"
    assert main(["gen-synthetic", "--fixture", "ranking-flip",
                 "--out", str(root)]) == 0
    blobs = []
    for run, jobs in enumerate(("1", "8", "1", "8")):
        out = tmp_path / f"run{run}"
        assert main(["eval-system", "--gt", str(root / "gt"),
                     "--det", str(root / "det"),
                     "--tracker", "builtin:max_gap=2",
                     "--jobs", jobs, "--out", str(out)]) == 0
        blobs.append((out / "system_report.json").read_bytes())
    assert len(set(blobs)) == 1
    _report("criterion-10 determinism",
            "4 runs across --jobs 1/8 produced byte-identical reports")
