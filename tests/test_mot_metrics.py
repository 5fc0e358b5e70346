import dataclasses
import io

import numpy as np
import pytest

from box_columns import concat, relabel, track_columns
from detraceval import datamodel, synth
from detraceval.datamodel import (BBox, GroundTruth, GtEntry, GtTrack,
                                  IgnoreRegion, Rows, TrackColumns,
                                  ValidationError, check_frame_count,
                                  read_ground_truth, read_tracks,
                                  write_ground_truth, write_tracks)
from detraceval.det_metrics import DEFAULT_IOU_THR
from detraceval.geometry import covered, iou_matrix
from detraceval.matching import clear_correspond, edge_table
from detraceval.mot_metrics import (ML_COVERAGE, MT_COVERAGE, SequenceStats,
                                    Totals, aggregate, evaluate_clear,
                                    evaluate_clear_runs)
from detraceval.synth import (ScenarioConfig, gen_scenario, oracle_clear,
                              random_tiny_scenario)
from detraceval.trackers import BuiltinGreedyTracker, greedy_iou_track
from frame_walk import frame_slices


def assert_bundles_equal(a, b, tol=1e-9):
    """Integer metrics exactly; MOTA/MOTP and percentages within tol."""
    for field in ("ids", "fm", "fp", "fn", "mt", "ml"):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("mota", "motp", "mt_pct", "ml_pct"):
        assert abs(getattr(a, field) - getattr(b, field)) <= tol, field


def gt_as_tracks(gt):
    """Perfect tracker output: GT boxes with ids offset."""
    return track_columns(*(
        (tr.target_id + 100, ((e.frame, e.box) for e in tr.entries))
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
    bundle, _ = evaluate_clear(gt.columns, gt_as_tracks(gt))
    assert bundle.mota == 100.0
    assert bundle.motp == 100.0
    assert bundle.ids == bundle.fm == bundle.fp == bundle.fn == 0
    assert bundle.mt == len(gt.tracks) and bundle.ml == 0


def test_empty_tracker():
    gt = _linear_gt()
    bundle, _ = evaluate_clear(gt.columns, track_columns())
    assert bundle.fn == gt.total_boxes()
    assert bundle.fp == 0 and bundle.ids == 0
    assert bundle.mota == 0.0
    assert bundle.ml == len(gt.tracks)


def test_eq1_substitution():
    bundle = aggregate([_stats([(1, 100, 80, 20, 10, 2, 72.0)], n_tracks=1)])
    assert bundle.mota == pytest.approx(68.0)


def test_frame_beyond_frame_count_rejected():
    gt = _linear_gt(n_frames=5)
    bad = track_columns((1, ((6, BBox(0, 0, 5, 5)),)))
    with pytest.raises(ValidationError, match="beyond"):
        evaluate_clear(gt.columns, bad)


def test_aggregate_single_sequence_identity():
    gt = _linear_gt()
    bundle, stats = evaluate_clear(gt.columns, gt_as_tracks(gt))
    assert aggregate([stats]) == bundle


def test_aggregate_two_identical_sequences():
    gt = _linear_gt()
    bundle, stats = evaluate_clear(gt.columns, gt_as_tracks(gt))
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


def test_motp_total_is_an_ordered_fold():
    """MOTP adds the per-frame IoU sums left to right on any interpreter:
    1.0 then ten 1e-16 stay 1.0 (a compensated sum gives
    1.000000000000001), and the int 0 of an unmatched frame adds nothing."""
    frames = [(1, 1, 1, 0, 0, 0, 1.0), (2, 1, 0, 1, 0, 0, 0)]
    frames += [(f, 1, 1, 0, 0, 0, 1e-16) for f in range(3, 13)]
    bundle = aggregate([_stats(frames, n_tracks=1)])
    assert bundle.motp == 100.0 * 1.0 / 11


def test_aggregate_is_one_left_fold_over_sequences():
    """`aggregate([a, b])` is `Totals` folding a, then b: MOTP's IoU total
    goes on frame by frame across sequences. Adding b's own total to a's
    would round 1.0 + 1e-15 instead of adding 1e-16 ten times to 1.0."""
    a = _stats([(1, 1, 1, 0, 0, 0, 1.0)], n_tracks=1)
    b = _stats([(f, 1, 1, 0, 0, 0, 1e-16) for f in range(1, 11)], n_tracks=1)
    folded = Totals().add(a).add(b)
    assert aggregate([a, b]) == folded.bundle()
    assert folded.iou_sum == 1.0 and folded.matches == 11
    partial = Totals().add(a).iou_sum + Totals().add(b).iou_sum
    assert aggregate([a, b]).motp == 100.0 * 1.0 / 11
    assert aggregate([a, b]).motp != 100.0 * partial / 11


def test_aggregate_empty_rejected():
    with pytest.raises(ValidationError):
        aggregate([])


def test_mota_can_go_negative():
    gt = _linear_gt(n_tracks=1, n_frames=3)
    clutter = track_columns(*(
        (i, ((f, BBox(500.0 + 30 * i, 500.0, 10, 10)) for f in range(1, 4)))
        for i in range(1, 6)))
    bundle, _ = evaluate_clear(gt.columns, clutter)
    assert bundle.mota < 0


def test_relabeling_invariance():
    rng = np.random.default_rng(7)
    for seed in range(30):
        gt, tracks = random_tiny_scenario(seed)
        ids = np.unique(tracks.track_id).tolist()
        if not ids:
            continue
        shuffled = list(rng.permutation(ids))
        mapping = {a: 1000 + b for a, b in zip(ids, shuffled)}
        base, _ = evaluate_clear(gt.columns, tracks)
        relabeled, _ = evaluate_clear(gt.columns,
                                      relabel(tracks, mapping))
        assert_bundles_equal(base, relabeled)


def test_removing_clutter_track_never_decreases_mota():
    rng = np.random.default_rng(8)
    for seed in range(20):
        gt, tracks = random_tiny_scenario(seed)
        clutter = track_columns((9999, (
            (f, BBox(400.0 + f, 400.0, 8, 8))
            for f in range(1, gt.frame_count + 1))))
        with_clutter = concat(tracks, clutter)
        assert evaluate_clear(gt.columns, tracks)[0].mota \
            >= evaluate_clear(gt.columns, with_clutter)[0].mota


def test_mt_ml_boundaries_are_strict():
    # track annotated 10 frames, matched exactly 2 (20%): neither MT nor ML
    gt = _linear_gt(n_tracks=1, n_frames=10)
    partial = track_columns((1, (
        (e.frame, e.box) for e in gt.tracks[0].entries[:2])))
    bundle, _ = evaluate_clear(gt.columns, partial)
    assert bundle.mt == 0 and bundle.ml == 0
    # matched 8 of 10 (80%): still not MT
    partial8 = track_columns((1, (
        (e.frame, e.box) for e in gt.tracks[0].entries[:8])))
    assert evaluate_clear(gt.columns, partial8)[0].mt == 0
    # matched 9 of 10 (90%): MT
    partial9 = track_columns((1, (
        (e.frame, e.box) for e in gt.tracks[0].entries[:9])))
    assert evaluate_clear(gt.columns, partial9)[0].mt == 1


def test_ids_same_id_after_gap_is_not_a_switch():
    gt = _linear_gt(n_tracks=1, n_frames=5)
    entries = gt.tracks[0].entries
    # matched frames 1,2,4,5 by the same id: one fragmentation, no switch
    boxes = tuple((e.frame, e.box) for e in entries if e.frame != 3)
    bundle, _ = evaluate_clear(gt.columns,
                               track_columns((1, boxes)))
    assert bundle.ids == 0
    assert bundle.fm == 1


def test_ids_counts_id_change():
    gt = _linear_gt(n_tracks=1, n_frames=4)
    entries = gt.tracks[0].entries
    a = (1, ((e.frame, e.box) for e in entries[:2]))
    b = (2, ((e.frame, e.box) for e in entries[2:]))
    bundle, _ = evaluate_clear(gt.columns, track_columns(a, b))
    assert bundle.ids == 1
    assert bundle.fm == 0  # no unmatched frame in between


def test_motp_equals_mean_matched_iou():
    gt, tracks = random_tiny_scenario(3)
    bundle, stats = evaluate_clear(gt.columns, tracks)
    matches = sum(stats.frame_counts["matches"])
    iou_sum = sum(stats.frame_counts["iou_sum"])
    if matches:
        assert bundle.motp == pytest.approx(100.0 * iou_sum / matches)


def test_frame_counts_are_one_row_per_scored_frame():
    """One row per frame with a GT or a hypothesis box, in frame order: the
    counts as int64 arrays, iou_sum as Python scalars, the int 0 where
    nothing matched; the bundle's counts are Python ints."""
    gt = _linear_gt(n_tracks=1, n_frames=6)
    tracks = track_columns((7, (
        (e.frame, e.box) for e in gt.tracks[0].entries[:3])))
    bundle, stats = evaluate_clear(gt.columns, tracks)
    counts = stats.frame_counts
    assert sorted(counts.columns) == sorted(FRAME_COLUMNS)
    assert len(counts) == 6 and counts["frame"].tolist() == [1, 2, 3, 4, 5, 6]
    assert counts["matches"].tolist() == [1, 1, 1, 0, 0, 0]
    assert counts["fn"].tolist() == [0, 0, 0, 1, 1, 1]
    assert counts["iou_sum"] == [1.0, 1.0, 1.0, 0, 0, 0]
    assert [type(v) for v in counts["iou_sum"]] == [float] * 3 + [int] * 3
    assert all(counts[name].dtype == np.int64 for name in FRAME_COLUMNS[:-1])
    assert aggregate([stats]) == bundle
    assert all(type(v) is int for k, v in bundle.as_dict().items()
               if k in ("mt", "ml", "ids", "fm", "fp", "fn"))


def test_unmatched_hyp_over_ignore_region_not_fp():
    region = IgnoreRegion(BBox(490, 490, 40, 40))
    gt = GroundTruth("s", 3, (
        GtTrack(1, tuple(GtEntry(f, BBox(0, 0, 20, 20)) for f in (1, 2, 3))),
    ), ignore_regions=(region,))
    hyp = track_columns(
        (1, ((f, BBox(0, 0, 20, 20)) for f in (1, 2, 3))),
        (2, ((f, BBox(500, 500, 20, 20)) for f in (1, 2, 3))),
    )
    bundle, _ = evaluate_clear(gt.columns, hyp)
    assert bundle.fp == 0 and bundle.mota == 100.0


def test_matches_oracle_on_random_tiny_scenarios():
    for seed in range(100):
        gt, tracks = random_tiny_scenario(seed)
        bundle, _ = evaluate_clear(gt.columns, tracks)
        assert_bundles_equal(bundle, oracle_clear(gt, tracks))


def _with_regions_over_hypotheses(gt, tracks, seed):
    """`gt` with a static and a frame-ranged ignore region, each laid over
    a random hypothesis box and shifted sideways by up to 80 % of its
    width, so it covers that box between 20 % and 100 %. The frame-ranged
    one spans the box's frame, at times on an edge of the span."""
    rng = np.random.default_rng(seed)
    regions = []
    for ranged in (False, True):
        row = int(rng.integers(len(tracks)))
        f = int(tracks.frame[row])
        left, top, width, height = (float(getattr(tracks, name)[row])
                                    for name in ("left", "top", "width", "height"))
        shifted = BBox(left + rng.uniform(0, 0.8) * width, top, width, height)
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
        if not len(tracks):
            continue
        ignored = _with_regions_over_hypotheses(gt, tracks, seed)
        bundle, _ = evaluate_clear(ignored.columns, tracks)
        assert_bundles_equal(bundle, oracle_clear(ignored, tracks))
        plain, _ = evaluate_clear(gt.columns, tracks)
        assert bundle.fp <= plain.fp
        dropped += plain.fp - bundle.fp
    assert dropped > 0


def test_passed_ignore_mask_matches_oracle():
    """CLEAR given the hypotheses' ignore mask, as the sweep gives it,
    equals CLEAR computing it and the oracle, with one to three regions,
    static or spanned, laid over hypothesis boxes."""
    dropped = 0
    for seed in range(150):
        gt, tracks = random_tiny_scenario(seed)
        if not len(tracks):
            continue
        rng = np.random.default_rng(1000 + seed)
        regions = []
        for _ in range(int(rng.integers(1, 4))):
            row = int(rng.integers(len(tracks)))
            f = int(tracks.frame[row])
            width = float(tracks.width[row])
            box = BBox(float(tracks.left[row]) + rng.uniform(-0.5, 0.8) * width,
                       float(tracks.top[row]), width, float(tracks.height[row]))
            span = ((f - int(rng.integers(2)), f + int(rng.integers(2)))
                    if rng.integers(2) else (None, None))
            regions.append(IgnoreRegion(box, *span))
        ignored = dataclasses.replace(gt, ignore_regions=tuple(regions))
        cols = ignored.columns
        inside = covered(tracks, cols.ignore)
        want = oracle_clear(ignored, tracks)
        passed, _ = evaluate_clear(cols, tracks, inside=inside)
        computed, _ = evaluate_clear(cols, tracks)
        assert_bundles_equal(passed, want)
        assert_bundles_equal(computed, want)
        # the mask passed is the one read: an empty one drops nothing
        plain, _ = evaluate_clear(gt.columns, tracks)
        nothing = np.zeros(len(tracks), dtype=bool)
        assert evaluate_clear(cols, tracks, inside=nothing)[0] == plain
        dropped += plain.fp - passed.fp
    assert dropped > 0


def _columns_from_files(gt, tracks):
    """The columns eval-mot reads: the objects written out and read back."""
    gt_buf, track_buf = io.StringIO(), io.StringIO()
    write_ground_truth(gt, gt_buf)
    write_tracks(tracks, track_buf)
    return (read_ground_truth(gt_buf.getvalue()),
            read_tracks(track_buf.getvalue().splitlines()))


def test_columns_and_objects_score_identically():
    """GT objects (through `.columns`) and file-read columns give equal stats,
    per-frame IoU sums bit for bit, with ignore regions and clutter."""
    for seed in range(12):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=5, n_frames=25, drop_rate=0.2, clutter_rate=2.0,
            jitter_sigma=2.0, seed=seed))
        gt = dataclasses.replace(gt, ignore_regions=(
            IgnoreRegion(BBox(100.0, 50.0, 300.0, 200.0)),
            IgnoreRegion(BBox(400.0, 200.0, 300.0, 250.0), 5, 15)))
        tracks = greedy_iou_track(dets, max_gap=2)
        by_objects = evaluate_clear(gt.columns, tracks)
        by_columns = evaluate_clear(*_columns_from_files(gt, tracks))
        assert by_objects == by_columns


def test_frame_beyond_frame_count_rejected_from_columns():
    gt = _linear_gt(n_frames=3)
    tracks = track_columns((7, ((2, BBox(0, 0, 5, 5)), (9, BBox(0, 0, 5, 5)))),
                           (3, ((4, BBox(0, 0, 5, 5)),)))
    for args in ((gt.columns, tracks), _columns_from_files(gt, tracks)):
        with pytest.raises(ValidationError) as exc:
            evaluate_clear(*args)
        assert "frame_count 3" in str(exc.value)
    # the columns keep the order given, the file is read sorted by track id
    with pytest.raises(ValidationError, match="output tracks: frame 9 beyond"):
        evaluate_clear(gt.columns, tracks)
    with pytest.raises(ValidationError, match="output tracks: frame 4 beyond"):
        evaluate_clear(*_columns_from_files(gt, tracks))


def test_correspondence_ends_at_a_frame_without_boxes():
    """Frame 2 holds no box, so the (gt 1, hyp 1) pair of frame 1 does not
    persist into frame 3: there hyp 1 goes to gt 2 and hyp 2 to gt 1, an
    identity switch for gt 1, and nothing is missed."""
    gt = GroundTruth("gap", 3, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 100, 100)),
                    GtEntry(3, BBox(0, 0, 100, 100)))),
        GtTrack(2, (GtEntry(3, BBox(30, 0, 100, 100)),))))
    tracks = track_columns(
        (1, ((1, BBox(0, 0, 100, 100)), (3, BBox(20, 0, 100, 100)))),
        (2, ((3, BBox(-5, 0, 100, 100)),)))
    bundle, _ = evaluate_clear(gt.columns, tracks, 0.6)
    assert (bundle.fp, bundle.fn, bundle.ids) == (0, 0, 1)
    assert bundle.mota == pytest.approx(200 / 3)
    assert_bundles_equal(bundle, oracle_clear(gt, tracks, 0.6))


def _gappy_scenario(seed, grid=False):
    """A tiny GT with gaps in its tracks and empty frames (no GT and no
    hypothesis box) between scored ones, plus jittered hypotheses with
    drops, identity churn, a duplicate track on the first target and
    clutter, so some frames hold only GT and some only hypotheses. With
    `grid`, every box is 10 x 10 on a 5 px grid and jitter moves it by
    whole grid steps, so IoUs tie often. At most 3 GT and 5 hypothesis
    boxes share a frame, which `oracle_clear` accepts."""
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(4, 10))
    empty = {f for f in range(2, n_frames) if rng.uniform() < 0.3}

    def box(x, y, w, h):
        if grid:
            return BBox(5.0 * round(x / 5), 5.0 * round(y / 5), 10.0, 10.0)
        return BBox(x, y, max(w, 2.0), max(h, 2.0))

    targets, hyp_boxes, next_id = [], {}, 1
    for tid in range(1, int(rng.integers(1, 4)) + 1):
        x, y = rng.uniform(0, 40, 2)
        w, h = rng.uniform(10, 25, 2)
        vx, vy = rng.uniform(-3, 3, 2)
        # hypothesis ids following this target: its own, and on the first
        # target at times a duplicate
        n_ids = 2 if tid == 1 and rng.uniform() < 0.6 else 1
        ids = list(range(next_id, next_id + n_ids))
        next_id += len(ids)
        entries = []
        for f in range(1, n_frames + 1):
            b = box(x + vx * f, y + vy * f, w, h)
            if f in empty or rng.uniform() < 0.2:
                continue  # an empty frame, or a gap in the track
            entries.append(GtEntry(f, b))
            for k, hyp_id in enumerate(ids):
                if rng.uniform() < 0.25:
                    continue  # missed
                if rng.uniform() < 0.15:
                    ids[k] = hyp_id = next_id  # identity churn
                    next_id += 1
                jx, jy, jw, jh = rng.normal(0, 5 if grid else 2.0, 4)
                hyp_boxes.setdefault(hyp_id, []).append(
                    (f, box(b.left + jx, b.top + jy, w + jw, h + jh)))
        if entries:
            targets.append(GtTrack(tid, tuple(entries)))
    f = int(rng.integers(1, n_frames + 1))
    if f not in empty and rng.uniform() < 0.5:
        hyp_boxes[next_id] = [(f, box(*rng.uniform(0, 40, 2),
                                      *rng.uniform(8, 25, 2)))]
    return (GroundTruth(f"gappy-{seed}", n_frames, tuple(targets)),
            track_columns(*hyp_boxes.items()))


@pytest.mark.parametrize("iou_thr", [0.3, 0.5, 0.7])
def test_matches_oracle_on_scenarios_with_gaps(iou_thr):
    """Tracks with gaps and frames without any box: CLEAR equals the
    oracle, which walks every frame of the sequence."""
    for seed in range(120):
        for grid in (False, True):
            gt, tracks = _gappy_scenario(seed, grid)
            bundle, _ = evaluate_clear(gt.columns, tracks, iou_thr)
            assert_bundles_equal(bundle, oracle_clear(gt, tracks, iou_thr))


def _reference_evaluate_clear(gt, tracks, iou_thr=DEFAULT_IOU_THR):
    """`evaluate_clear` as the frame-by-frame walk that the edge table
    replaced, kept as its reference. It is verbatim except for two points:
    `clear_correspond` gets the frame's IoU matrix, and the correspondence
    persists only from the frame right before (`prev_frame`)."""
    check_frame_count(gt, tracks, "output tracks")

    # Each side sorted once by (frame, id); a frame is a slice of the rows.
    g_order = np.lexsort((gt.target_id, gt.frame))
    h_order = np.lexsort((tracks.track_id, tracks.frame))
    g_frame, h_frame = gt.frame[g_order], tracks.frame[h_order]
    g_ids = gt.target_id[g_order].tolist()
    h_ids = tracks.track_id[h_order].tolist()
    g_boxes, h_boxes = gt.corners()[g_order], tracks.corners()[h_order]
    # (frame, id) of every hypothesis inside ignore regions
    inside = covered(tracks, gt.ignore)
    ignored = set(zip(tracks.frame[inside].tolist(),
                      tracks.track_id[inside].tolist()))
    prev: dict[int, int] = {}
    prev_frame = None
    last_match: dict[int, int] = {}      # gt id -> most recent matched hyp id
    match_state: dict[int, str] = {}     # gt id -> "matched" | "gap"
    matched_frames: dict[int, int] = {}
    fm = 0
    frames = np.union1d(g_frame, h_frame)
    n_gt, n_matches, n_fp, n_ids, iou_sums = [], [], [], [], []

    for frame, g_lo, g_hi, h_lo, h_hi in frame_slices(frames, g_frame, h_frame):
        gts, hyps = g_ids[g_lo:g_hi], h_ids[h_lo:h_hi]
        pairs = clear_correspond(prev if prev_frame == frame - 1 else {},
                                 gts, hyps,
                                 iou_matrix(g_boxes[g_lo:g_hi],
                                            h_boxes[h_lo:h_hi]), iou_thr)
        prev, prev_frame = {g: h for g, h, _ in pairs}, frame

        ids_t = 0
        for gid, hid, _ in pairs:
            if gid in last_match and last_match[gid] != hid:
                ids_t += 1
            last_match[gid] = hid
            matched_frames[gid] = matched_frames.get(gid, 0) + 1

        for gid in gts:
            if gid in prev:
                if match_state.get(gid) == "gap":
                    fm += 1
                match_state[gid] = "matched"
            elif match_state.get(gid) == "matched":
                match_state[gid] = "gap"

        fp_t = len(hyps) - len(pairs)
        if ignored:
            taken = set(prev.values())
            fp_t -= sum((frame, hid) in ignored
                        for hid in hyps if hid not in taken)
        n_gt.append(len(gts))
        n_matches.append(len(pairs))
        n_fp.append(fp_t)
        n_ids.append(ids_t)
        iou_sums.append(sum(v for _, _, v in pairs))

    mt = ml = 0
    target_ids, n_entries = np.unique(gt.target_id, return_counts=True)
    for tid, n in zip(target_ids.tolist(), n_entries.tolist()):
        coverage = matched_frames.get(tid, 0) / n
        if coverage > MT_COVERAGE:
            mt += 1
        elif coverage < ML_COVERAGE:
            ml += 1

    stats = SequenceStats(
        sequence_id=gt.sequence_id,
        frame_counts=Rows({
            "frame": frames.tolist(), "gt": n_gt, "matches": n_matches,
            "fn": [g - m for g, m in zip(n_gt, n_matches)], "fp": n_fp,
            "ids": n_ids, "iou_sum": iou_sums}),
        fm=fm, mt=mt, ml=ml, n_tracks=len(target_ids),
    )
    return aggregate([stats]), stats


def _assert_same_clear(got, want):
    """Equal bundles and stats, and every iou_sum of the same Python type
    (the int 0 where a frame has no match)."""
    assert got == want
    assert ([type(v) for v in got[1].frame_counts["iou_sum"]]
            == [type(v) for v in want[1].frame_counts["iou_sum"]])


def _property_scenes():
    """(GT, hypothesis) columns: random tracker output on a small arena
    (conflict-heavy) with ignore regions, gappy scenarios with free and
    grid-aligned boxes (tie-heavy), and the empty sides."""
    scenes = []
    for seed in range(3):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=6, n_frames=20, arena=(160.0, 120.0), drop_rate=0.2,
            clutter_rate=4.0, jitter_sigma=3.0, seed=seed))
        gt = dataclasses.replace(gt, ignore_regions=(
            IgnoreRegion(BBox(0.0, 0.0, 60.0, 50.0)),
            IgnoreRegion(BBox(80.0, 60.0, 60.0, 50.0), 5, 12)))
        scenes.append((gt.columns, greedy_iou_track(dets, max_gap=2)))
    for seed in range(40):
        for grid in (False, True):
            gt, tracks = _gappy_scenario(seed, grid)
            scenes.append((gt.columns, tracks))
    gt = _linear_gt(n_tracks=2, n_frames=4)
    nothing = GroundTruth("none", 4, ())
    scenes += [(gt.columns, track_columns()),
               (nothing.columns, gt_as_tracks(gt)),
               (nothing.columns, track_columns())]
    return scenes


def _frame_kinds(gt, tracks, iou_thr):
    """Per scored frame: "conflicted" when a GT or hypothesis row has two
    edges, else "gt only", "hyp only" or "free"."""
    g_order = np.lexsort((gt.target_id, gt.frame))
    h_order = np.lexsort((tracks.track_id, tracks.frame))
    g_frame, h_frame = gt.frame[g_order], tracks.frame[h_order]
    g_boxes, h_boxes = gt.corners()[g_order], tracks.corners()[h_order]
    kinds = []
    for _, g_lo, g_hi, h_lo, h_hi in frame_slices(
            np.union1d(g_frame, h_frame), g_frame, h_frame):
        edge = iou_matrix(g_boxes[g_lo:g_hi], h_boxes[h_lo:h_hi]) >= iou_thr
        kinds.append("gt only" if h_lo == h_hi else "hyp only" if g_lo == g_hi
                     else "conflicted" if (edge.sum(0).max() > 1
                                           or edge.sum(1).max() > 1)
                     else "free")
    return kinds


@pytest.mark.parametrize("iou_thr", [0.0, 0.3, 0.7, 1.0])
def test_evaluate_clear_equals_the_frame_walk(iou_thr):
    for gt, tracks in _property_scenes():
        _assert_same_clear(evaluate_clear(gt, tracks, iou_thr),
                           _reference_evaluate_clear(gt, tracks, iou_thr))


def test_property_scenes_cover_the_conflict_patterns():
    """The scenes above hold runs of conflicted frames, conflict-free
    frames right after conflicted ones, and frames with one side only."""
    for iou_thr in (0.3, 0.7):
        seen = set()
        for gt, tracks in _property_scenes():
            kinds = _frame_kinds(gt, tracks, iou_thr)
            seen.update(kinds)
            seen.update(zip(kinds, kinds[1:]))
        assert {("conflicted", "conflicted"), ("conflicted", "free"),
                "gt only", "hyp only"} <= seen, iou_thr


@pytest.mark.parametrize("budget", ["one frame", "mid-sequence"])
def test_chunk_budget_does_not_change_results(budget, monkeypatch):
    """One frame per chunk (so some chunks hold one side only), and chunks
    of 7 frames, which end inside runs of conflicted frames, give what the
    default budget gives."""
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=8, n_frames=30, arena=(200.0, 140.0), drop_rate=0.2,
        clutter_rate=6.0, jitter_sigma=3.0, seed=4))
    scenes = [(gt.columns, greedy_iou_track(dets, max_gap=2))]
    kinds = _frame_kinds(*scenes[0], 0.3)
    assert ("conflicted", "conflicted") in zip(kinds[6::7], kinds[7::7])
    for seed in range(20):
        gt, tracks = _gappy_scenario(seed)
        scenes.append((gt.columns, tracks))
    for gt, tracks in scenes:
        want = [evaluate_clear(gt, tracks, iou_thr) for iou_thr in (0.3, 0.5)]
        widest = max(np.unique(gt.frame, return_counts=True)[1], default=1) \
            * max(np.unique(tracks.frame, return_counts=True)[1], default=1)
        with monkeypatch.context() as patch:
            patch.setattr(datamodel, "EDGE_CHUNK_PAIRS",
                          1 if budget == "one frame" else 7 * widest)
            for iou_thr, expected in zip((0.3, 0.5), want):
                _assert_same_clear(evaluate_clear(gt, tracks, iou_thr),
                                   expected)


LEVEL_THRESHOLDS = (1e-9, 0.3, 0.5, 0.7, 1.0)


def _side_by_side(n_frames=9):
    """Two targets whose boxes coincide with two hypotheses' boxes at every
    frame, so each GT box overlaps both hypotheses at IoU 1.0 and every
    frame with both is conflicted at any threshold. Hypothesis 11 ends at
    frame 4 and 13 takes its place; frame 6 holds no box at all; the
    second target leaves after frame 8. The matched pairs persist through
    the runs of conflicted frames around the empty one."""
    box = BBox(10.0, 20.0, 30.0, 40.0)
    frames = [f for f in range(1, n_frames + 1) if f != 6]
    gt = GroundTruth("side-by-side", n_frames, (
        GtTrack(1, tuple(GtEntry(f, box) for f in frames)),
        GtTrack(2, tuple(GtEntry(f, box) for f in frames if f <= 8))))
    tracks = track_columns(
        (11, ((f, box) for f in frames if f <= 4)),
        (12, ((f, box) for f in frames)),
        (13, ((f, box) for f in frames if f > 4)))
    return gt, tracks


def _level_scenes():
    """(GT objects, tracks): the side-by-side scene, crowded tracker output
    on a small arena that `oracle_clear` still accepts, and gappy scenes
    with frames without any box, free and grid-aligned."""
    scenes = [_side_by_side()]
    for seed in range(6):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=3, n_frames=14, arena=(100.0, 70.0),
            box_size=(20.0, 40.0), drop_rate=0.1, clutter_rate=0.5,
            jitter_sigma=2.0, seed=seed))
        scenes.append((gt, greedy_iou_track(dets, max_gap=2)))
    for seed in range(30):
        for grid in (False, True):
            scenes.append(_gappy_scenario(seed, grid))
    return scenes


def _persisting_chain(gt, tracks, iou_thr):
    """The most consecutive conflicted frames, in a frame walk, through
    which one (gt, hypothesis) pair stays matched."""
    gt = gt.columns
    g_order = np.lexsort((gt.target_id, gt.frame))
    h_order = np.lexsort((tracks.track_id, tracks.frame))
    g_frame, h_frame = gt.frame[g_order], tracks.frame[h_order]
    g_boxes, h_boxes = gt.corners()[g_order], tracks.corners()[h_order]
    g_ids, h_ids = gt.target_id[g_order].tolist(), tracks.track_id[h_order].tolist()
    prev, chain, longest, before = {}, {}, 0, None
    for frame, g_lo, g_hi, h_lo, h_hi in frame_slices(
            np.union1d(g_frame, h_frame), g_frame, h_frame):
        iou = iou_matrix(g_boxes[g_lo:g_hi], h_boxes[h_lo:h_hi])
        edge = iou >= iou_thr
        conflicted = bool(edge.size) and (edge.sum(0).max() > 1
                                          or edge.sum(1).max() > 1)
        follows = before == frame - 1
        pairs = clear_correspond(prev if follows else {}, g_ids[g_lo:g_hi],
                                 h_ids[h_lo:h_hi], iou, iou_thr)
        prev, before = {g: h for g, h, _ in pairs}, frame
        chain = {pair: (chain.get(pair, 0) if follows else 0) + 1
                 for pair in prev.items()} if conflicted else {}
        longest = max(longest, *chain.values(), 0)
    return longest


def _oracle_fits(gt, tracks):
    """Whether no frame holds more boxes on a side than `oracle_clear`
    enumerates."""
    return all(np.unique(col, return_counts=True)[1].max(initial=0)
               <= synth.ORACLE_MAX_OBJECTS
               for col in (gt.columns.frame, tracks.frame))


@pytest.mark.parametrize("iou_thr", LEVEL_THRESHOLDS)
def test_level_pass_equals_the_frame_walk_and_the_oracle(iou_thr):
    """Conflicted frames, handled a level at a time, give the frame walk's
    stats and the oracle's bundle, which all but a few crowded scenes are
    small enough for. The scenes hold pairs that persist through three
    consecutive conflicted frames, so the pass reaches level 2 (counted
    from 0) with persistence at work."""
    longest, fits = 0, []
    for gt, tracks in _level_scenes():
        got = evaluate_clear(gt.columns, tracks, iou_thr)
        _assert_same_clear(got, _reference_evaluate_clear(gt.columns, tracks,
                                                          iou_thr))
        fits.append(_oracle_fits(gt, tracks))
        if fits[-1]:
            assert_bundles_equal(got[0], oracle_clear(gt, tracks, iou_thr))
        longest = max(longest, _persisting_chain(gt, tracks, iou_thr))
    assert fits[0] and sum(fits[1:7]) >= 3 and all(fits[7:])
    assert longest >= 3


def _shifted(gt, boxes, shift):
    """GT and box columns with every frame, and the frame count, moved on
    by `shift`."""
    return (dataclasses.replace(gt, frame=gt.frame + shift,
                                frame_count=gt.frame_count + shift),
            dataclasses.replace(boxes, frame=boxes.frame + shift))


def _run_pool(gt, dets, iou_thr):
    """Runs over one sequence: the builtin tracker's output at four
    thresholds, each with the tracks' part of the GT x detection table
    and ignore mask and again without them (their track ids overlap), the
    GT boxes as tracks, and a run without tracks."""
    edges = edge_table(gt, dets, iou_thr)
    inside = covered(dets, gt.ignore)
    at = BuiltinGreedyTracker(max_gap=2).by_threshold(dets, gt.sequence_id)
    runs = []
    for tau in np.quantile(dets.score, [0.0, 0.3, 0.6, 0.9]).tolist():
        tracks, rows = at(tau)
        runs += [(tracks, edges.take(rows), inside[rows]), (tracks, None, None)]
    truth = TrackColumns(gt.left, gt.top, gt.width, gt.height,
                         frame=gt.frame, track_id=gt.target_id)
    return runs + [(truth, None, None), (track_columns(), None, None)]


@pytest.mark.parametrize("last_frame", ["small", "int64 max"])
def test_runs_scored_together_equal_each_run_scored_alone(last_frame):
    """Random subsets of a pool of runs, in random orders, scored in one
    call give each run the stats it gets alone, and those equal the frame
    walk's. Some runs have boxes at frame 1 and at the last frame, so one
    run's last frame is followed by the next one's first; with the last
    frame at the int64 maximum, runs kept apart by shifting frame numbers
    would overflow."""
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=6, n_frames=12, arena=(160.0, 120.0), drop_rate=0.2,
        clutter_rate=4.0, jitter_sigma=3.0, seed=3))
    gt = dataclasses.replace(gt, ignore_regions=(
        IgnoreRegion(BBox(0.0, 0.0, 60.0, 50.0)),)).columns
    if last_frame != "small":
        gt, dets = _shifted(gt, dets, np.iinfo(np.int64).max - gt.frame_count)
        assert gt.frame_count == np.iinfo(np.int64).max
    first = gt.frame_count - 11
    rng = np.random.default_rng(7)
    for iou_thr in (0.3, 0.7):
        pool = _run_pool(gt, dets, iou_thr)
        assert sum(first in run[0].frame and gt.frame_count in run[0].frame
                   for run in pool) >= 2
        alone = []
        for tracks, edges, inside in pool:
            got = evaluate_clear(gt, tracks, iou_thr, edges, inside)
            _assert_same_clear(got, _reference_evaluate_clear(gt, tracks,
                                                              iou_thr))
            alone.append(got)
        for _ in range(15):
            picked = rng.permutation(len(pool))[:rng.integers(1, len(pool) + 1)]
            stats = evaluate_clear_runs(gt, [pool[i] for i in picked], iou_thr)
            assert len(stats) == len(picked)
            for i, got in zip(picked.tolist(), stats):
                _assert_same_clear((alone[i][0], got), alone[i])
        whole = evaluate_clear_runs(gt, pool, iou_thr)
        assert [s.sequence_id for s in whole] == [gt.sequence_id] * len(pool)
    assert evaluate_clear_runs(gt, [], 0.5) == []
