import dataclasses
import io

import numpy as np
import pytest

from detraceval.datamodel import (BBox, GroundTruth, GtEntry, GtTrack,
                                  IgnoreRegion, OutTrack, Rows, TrackSet,
                                  ValidationError, read_ground_truth,
                                  read_tracks, write_ground_truth,
                                  write_tracks)
from detraceval.mot_metrics import SequenceStats, aggregate, evaluate_clear
from detraceval.synth import (ScenarioConfig, gen_scenario, oracle_clear,
                              random_tiny_scenario)
from detraceval.trackers import greedy_iou_track


def assert_bundles_equal(a, b, tol=1e-9):
    """Integer metrics exactly; MOTA/MOTP and percentages within tol."""
    for field in ("ids", "fm", "fp", "fn", "mt", "ml"):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("mota", "motp", "mt_pct", "ml_pct"):
        assert abs(getattr(a, field) - getattr(b, field)) <= tol, field


def gt_as_tracks(gt):
    """Perfect tracker output: GT boxes with ids offset."""
    return TrackSet(tuple(
        OutTrack(tr.target_id + 100, tuple((e.frame, e.box) for e in tr.entries))
        for tr in gt.tracks))


def _linear_gt(n_tracks=2, n_frames=10):
    tracks = []
    for tid in range(1, n_tracks + 1):
        entries = tuple(
            GtEntry(f, BBox(100.0 * tid + 2.0 * f, 50.0, 20, 20))
            for f in range(1, n_frames + 1))
        tracks.append(GtTrack(tid, entries))
    return GroundTruth("seq", n_frames, tuple(tracks))


FRAME_COLUMNS = ("frame", "gt", "matches", "fn", "fp", "ids", "iou_sum")


def _stats(frame_counts, fm=0, mt=0, ml=0, n_tracks=0):
    """Stats of per-frame rows (frame, gt, matches, fn, fp, ids, iou_sum)."""
    columns = dict(zip(FRAME_COLUMNS, map(list, zip(*frame_counts))))
    return SequenceStats("x", Rows(columns), fm, mt, ml, n_tracks)


def test_perfect_tracking():
    gt = _linear_gt()
    bundle, _ = evaluate_clear(gt.columns, gt_as_tracks(gt).columns)
    assert bundle.mota == 100.0
    assert bundle.motp == 100.0
    assert bundle.ids == bundle.fm == bundle.fp == bundle.fn == 0
    assert bundle.mt == len(gt.tracks) and bundle.ml == 0


def test_empty_tracker():
    gt = _linear_gt()
    bundle, _ = evaluate_clear(gt.columns, TrackSet().columns)
    assert bundle.fn == gt.total_boxes()
    assert bundle.fp == 0 and bundle.ids == 0
    assert bundle.mota == 0.0
    assert bundle.ml == len(gt.tracks)


def test_eq1_substitution():
    bundle = aggregate([_stats([(1, 100, 80, 20, 10, 2, 72.0)], n_tracks=1)])
    assert bundle.mota == pytest.approx(68.0)


def test_frame_beyond_frame_count_rejected():
    gt = _linear_gt(n_frames=5)
    bad = TrackSet((OutTrack(1, ((6, BBox(0, 0, 5, 5)),)),))
    with pytest.raises(ValidationError, match="beyond"):
        evaluate_clear(gt.columns, bad.columns)


def test_aggregate_single_sequence_identity():
    gt = _linear_gt()
    bundle, stats = evaluate_clear(gt.columns, gt_as_tracks(gt).columns)
    assert aggregate([stats]) == bundle


def test_aggregate_two_identical_sequences():
    gt = _linear_gt()
    bundle, stats = evaluate_clear(gt.columns, gt_as_tracks(gt).columns)
    combined = aggregate([stats, stats])
    assert combined.mota == bundle.mota
    assert combined.fn == 2 * bundle.fn
    assert combined.mt == 2 * bundle.mt


def test_aggregate_sums_before_ratio():
    # MOTA 80 over GT 100 and MOTA 20 over GT 300 -> 100*(1-(20+240)/400) = 35
    a = _stats([(1, 100, 80, 20, 0, 0, 80.0)], n_tracks=1)
    b = _stats([(1, 300, 60, 240, 0, 0, 60.0)], n_tracks=1)
    assert aggregate([a]).mota == pytest.approx(80.0)
    assert aggregate([b]).mota == pytest.approx(20.0)
    assert aggregate([a, b]).mota == pytest.approx(35.0)


def test_aggregate_empty_rejected():
    with pytest.raises(ValidationError):
        aggregate([])


def test_mota_can_go_negative():
    gt = _linear_gt(n_tracks=1, n_frames=3)
    clutter = TrackSet(tuple(
        OutTrack(i, tuple((f, BBox(500.0 + 30 * i, 500.0, 10, 10))
                          for f in range(1, 4)))
        for i in range(1, 6)))
    bundle, _ = evaluate_clear(gt.columns, clutter.columns)
    assert bundle.mota < 0


def test_relabeling_invariance():
    rng = np.random.default_rng(7)
    for seed in range(30):
        gt, tracks = random_tiny_scenario(seed)
        ids = [tr.track_id for tr in tracks.tracks]
        if not ids:
            continue
        shuffled = list(rng.permutation(ids))
        mapping = {a: 1000 + b for a, b in zip(ids, shuffled)}
        base, _ = evaluate_clear(gt.columns, tracks.columns)
        relabeled, _ = evaluate_clear(gt.columns,
                                      tracks.relabel(mapping).columns)
        assert_bundles_equal(base, relabeled)


def test_removing_clutter_track_never_decreases_mota():
    rng = np.random.default_rng(8)
    for seed in range(20):
        gt, tracks = random_tiny_scenario(seed)
        clutter = OutTrack(9999, tuple(
            (f, BBox(400.0 + f, 400.0, 8, 8))
            for f in range(1, gt.frame_count + 1)))
        with_clutter = TrackSet(tracks.tracks + (clutter,))
        assert evaluate_clear(gt.columns, tracks.columns)[0].mota \
            >= evaluate_clear(gt.columns, with_clutter.columns)[0].mota


def test_mt_ml_boundaries_are_strict():
    # track annotated 10 frames, matched exactly 2 (20%): neither MT nor ML
    gt = _linear_gt(n_tracks=1, n_frames=10)
    partial = TrackSet((OutTrack(1, tuple(
        (e.frame, e.box) for e in gt.tracks[0].entries[:2])),))
    bundle, _ = evaluate_clear(gt.columns, partial.columns)
    assert bundle.mt == 0 and bundle.ml == 0
    # matched 8 of 10 (80%): still not MT
    partial8 = TrackSet((OutTrack(1, tuple(
        (e.frame, e.box) for e in gt.tracks[0].entries[:8])),))
    assert evaluate_clear(gt.columns, partial8.columns)[0].mt == 0
    # matched 9 of 10 (90%): MT
    partial9 = TrackSet((OutTrack(1, tuple(
        (e.frame, e.box) for e in gt.tracks[0].entries[:9])),))
    assert evaluate_clear(gt.columns, partial9.columns)[0].mt == 1


def test_ids_same_id_after_gap_is_not_a_switch():
    gt = _linear_gt(n_tracks=1, n_frames=5)
    entries = gt.tracks[0].entries
    # matched frames 1,2,4,5 by the same id: one fragmentation, no switch
    boxes = tuple((e.frame, e.box) for e in entries if e.frame != 3)
    bundle, _ = evaluate_clear(gt.columns,
                               TrackSet((OutTrack(1, boxes),)).columns)
    assert bundle.ids == 0
    assert bundle.fm == 1


def test_ids_counts_id_change():
    gt = _linear_gt(n_tracks=1, n_frames=4)
    entries = gt.tracks[0].entries
    a = OutTrack(1, tuple((e.frame, e.box) for e in entries[:2]))
    b = OutTrack(2, tuple((e.frame, e.box) for e in entries[2:]))
    bundle, _ = evaluate_clear(gt.columns, TrackSet((a, b)).columns)
    assert bundle.ids == 1
    assert bundle.fm == 0  # no unmatched frame in between


def test_motp_equals_mean_matched_iou():
    gt, tracks = random_tiny_scenario(3)
    bundle, stats = evaluate_clear(gt.columns, tracks.columns)
    matches = sum(stats.frame_counts["matches"])
    iou_sum = sum(stats.frame_counts["iou_sum"])
    if matches:
        assert bundle.motp == pytest.approx(100.0 * iou_sum / matches)


def test_frame_counts_are_one_row_per_scored_frame():
    """One row per frame with a GT or a hypothesis box, in frame order, of
    Python scalars; iou_sum is the int 0 where nothing matched."""
    gt = _linear_gt(n_tracks=1, n_frames=6)
    tracks = TrackSet((OutTrack(7, tuple(
        (e.frame, e.box) for e in gt.tracks[0].entries[:3])),))
    bundle, stats = evaluate_clear(gt.columns, tracks.columns)
    counts = stats.frame_counts
    assert sorted(counts.columns) == sorted(FRAME_COLUMNS)
    assert len(counts) == 6 and counts["frame"] == [1, 2, 3, 4, 5, 6]
    assert counts["matches"] == [1, 1, 1, 0, 0, 0]
    assert counts["fn"] == [0, 0, 0, 1, 1, 1]
    assert counts["iou_sum"] == [1.0, 1.0, 1.0, 0, 0, 0]
    assert [type(v) for v in counts["iou_sum"]] == [float] * 3 + [int] * 3
    assert all(type(v) is int for name in FRAME_COLUMNS[:-1]
               for v in counts[name])
    assert aggregate([stats]) == bundle


def test_unmatched_hyp_over_ignore_region_not_fp():
    region = IgnoreRegion(BBox(490, 490, 40, 40))
    gt = GroundTruth("s", 3, (
        GtTrack(1, tuple(GtEntry(f, BBox(0, 0, 20, 20)) for f in (1, 2, 3))),
    ), ignore_regions=(region,))
    hyp = TrackSet((
        OutTrack(1, tuple((f, BBox(0, 0, 20, 20)) for f in (1, 2, 3))),
        OutTrack(2, tuple((f, BBox(500, 500, 20, 20)) for f in (1, 2, 3))),
    ))
    bundle, _ = evaluate_clear(gt.columns, hyp.columns)
    assert bundle.fp == 0 and bundle.mota == 100.0


def test_matches_oracle_on_random_tiny_scenarios():
    for seed in range(100):
        gt, tracks = random_tiny_scenario(seed)
        bundle, _ = evaluate_clear(gt.columns, tracks.columns)
        assert_bundles_equal(bundle, oracle_clear(gt, tracks))


def _with_regions_over_hypotheses(gt, tracks, seed):
    """`gt` with a static and a frame-ranged ignore region, each laid over
    a random hypothesis box and shifted sideways by up to 80 % of its
    width, so it covers that box between 20 % and 100 %. The frame-ranged
    one spans the box's frame, at times on an edge of the span."""
    rng = np.random.default_rng(seed)
    rows = [(f, box) for tr in tracks.tracks for f, box in tr.boxes]
    regions = []
    for ranged in (False, True):
        f, box = rows[int(rng.integers(len(rows)))]
        shifted = BBox(box.left + rng.uniform(0, 0.8) * box.width, box.top,
                       box.width, box.height)
        span = ((f - int(rng.integers(2)), f + int(rng.integers(2)))
                if ranged else (None, None))
        regions.append(IgnoreRegion(shifted, *span))
    return dataclasses.replace(gt, ignore_regions=tuple(regions))


def test_matches_oracle_with_ignore_regions_over_hypotheses():
    """CLEAR equals the oracle when ignore regions cover some hypotheses,
    and the regions do drop unmatched hypotheses from FP on these seeds."""
    dropped = 0
    for seed in range(150):
        gt, tracks = random_tiny_scenario(seed)
        if not tracks.tracks:
            continue
        ignored = _with_regions_over_hypotheses(gt, tracks, seed)
        bundle, _ = evaluate_clear(ignored.columns, tracks.columns)
        assert_bundles_equal(bundle, oracle_clear(ignored, tracks))
        plain, _ = evaluate_clear(gt.columns, tracks.columns)
        assert bundle.fp <= plain.fp
        dropped += plain.fp - bundle.fp
    assert dropped > 0


def _columns_from_files(gt, tracks):
    """The columns eval-mot reads: the objects written out and read back."""
    gt_buf, track_buf = io.StringIO(), io.StringIO()
    write_ground_truth(gt, gt_buf)
    write_tracks(tracks, track_buf)
    return (read_ground_truth(gt_buf.getvalue()),
            read_tracks(track_buf.getvalue().splitlines()))


def test_columns_and_objects_score_identically():
    """Objects (through `.columns`) and file-read columns give equal stats,
    per-frame IoU sums bit for bit, with ignore regions and clutter."""
    for seed in range(12):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=5, n_frames=25, drop_rate=0.2, clutter_rate=2.0,
            jitter_sigma=2.0, seed=seed))
        gt = dataclasses.replace(gt, ignore_regions=(
            IgnoreRegion(BBox(100.0, 50.0, 300.0, 200.0)),
            IgnoreRegion(BBox(400.0, 200.0, 300.0, 250.0), 5, 15)))
        tracks = greedy_iou_track(dets.columns, max_gap=2)
        by_objects = evaluate_clear(gt.columns, tracks)
        by_columns = evaluate_clear(*_columns_from_files(gt, tracks))
        assert by_objects == by_columns


def test_frame_beyond_frame_count_rejected_from_columns():
    gt = _linear_gt(n_frames=3)
    tracks = TrackSet((OutTrack(7, ((2, BBox(0, 0, 5, 5)), (9, BBox(0, 0, 5, 5)))),
                       OutTrack(3, ((4, BBox(0, 0, 5, 5)),)))).columns
    for args in ((gt.columns, tracks), _columns_from_files(gt, tracks)):
        with pytest.raises(ValidationError) as exc:
            evaluate_clear(*args)
        assert "frame_count 3" in str(exc.value)
    # `.columns` keeps the TrackSet's order, the file is read sorted by
    # track id
    with pytest.raises(ValidationError, match="output tracks: frame 9 beyond"):
        evaluate_clear(gt.columns, tracks)
    with pytest.raises(ValidationError, match="output tracks: frame 4 beyond"):
        evaluate_clear(*_columns_from_files(gt, tracks))
