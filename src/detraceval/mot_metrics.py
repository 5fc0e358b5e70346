"""CLEAR MOT evaluation: MOTA, MOTP, MT, ML, IDS, FM, FP, FN.

Conventions (documented once, used by the oracle too):

* MOTA = 100 * (1 - (FN + FP + IDS) / GT), counts summed over frames (and
  over sequences before the ratio when aggregating). Can be negative.
* MOTP = 100 * (sum of matched IoU) / (number of matches); higher is better.
* An identity switch compares a GT's matched hypothesis id against its most
  recent prior match, so a gap followed by the same id is not a switch.
* A fragmentation is any matched -> unmatched -> matched transition over a
  GT track's annotated frames; each interruption counts once.
* MT: matched in strictly more than 80% of annotated frames; ML: strictly
  fewer than 20%. Coverage is identity-agnostic.
* An unmatched hypothesis box inside ignore regions (covered > 0.5,
  `geometry.covered`) is dropped rather than counted as a false positive.
  GT inside ignore regions still counts, as FN when missed and toward
  MT/ML; the detection layer drops such GT instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datamodel import (GtColumns, Rows, TrackColumns, ValidationError,
                        check_frame_count, frame_slices)
from .det_metrics import DEFAULT_IOU_THR
from .geometry import covered
from .matching import clear_correspond

MT_COVERAGE = 0.8
ML_COVERAGE = 0.2


@dataclass(frozen=True)
class SequenceStats:
    """Everything needed to re-derive a MetricBundle or aggregate sequences.

    `frame_counts` holds one row per scored frame (a frame with a GT or a
    hypothesis box), in frame order, with the columns frame, gt, matches,
    fn, fp, ids and iou_sum; iou_sum is the int 0 at a frame without a
    match, the float sum of the matched IoUs otherwise.
    """

    sequence_id: str
    frame_counts: Rows
    fm: int
    mt: int
    ml: int
    n_tracks: int


@dataclass(frozen=True)
class MetricBundle:
    mota: float
    motp: float
    mt: int
    ml: int
    mt_pct: float
    ml_pct: float
    ids: int
    fm: int
    fp: int
    fn: int

    def as_dict(self) -> dict:
        return dict(vars(self))


def _bundle_from_stats(stats: Sequence[SequenceStats]) -> MetricBundle:
    # Summed sequence by sequence, frame by frame: MOTP's float sum keeps
    # one order.
    gt_total, fn, fp, ids, matches, iou_sum = (
        sum(v for s in stats for v in s.frame_counts[name])
        for name in ("gt", "fn", "fp", "ids", "matches", "iou_sum"))
    fm = sum(s.fm for s in stats)
    mt = sum(s.mt for s in stats)
    ml = sum(s.ml for s in stats)
    n_tracks = sum(s.n_tracks for s in stats)
    if gt_total > 0:
        mota = 100.0 * (1.0 - (fn + fp + ids) / gt_total)
    else:
        mota = 100.0 if fn + fp + ids == 0 else 0.0
    motp = 100.0 * iou_sum / matches if matches > 0 else 0.0
    return MetricBundle(
        mota=mota, motp=motp,
        mt=mt, ml=ml,
        mt_pct=100.0 * mt / n_tracks if n_tracks else 0.0,
        ml_pct=100.0 * ml / n_tracks if n_tracks else 0.0,
        ids=ids, fm=fm, fp=fp, fn=fn,
    )


def evaluate_clear(gt: GtColumns, tracks: TrackColumns,
                   iou_thr: float = DEFAULT_IOU_THR) -> tuple[MetricBundle, SequenceStats]:
    """CLEAR MOT of one sequence from its GT and hypothesis columns
    (`read_ground_truth` / `read_tracks`, or `.columns` of the objects)."""
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
    last_match: dict[int, int] = {}      # gt id -> most recent matched hyp id
    match_state: dict[int, str] = {}     # gt id -> "matched" | "gap"
    matched_frames: dict[int, int] = {}
    fm = 0
    frames = np.union1d(g_frame, h_frame)
    n_gt, n_matches, n_fp, n_ids, iou_sums = [], [], [], [], []

    for frame, g_lo, g_hi, h_lo, h_hi in frame_slices(frames, g_frame, h_frame):
        gts, hyps = g_ids[g_lo:g_hi], h_ids[h_lo:h_hi]
        pairs = clear_correspond(prev, gts, g_boxes[g_lo:g_hi],
                                 hyps, h_boxes[h_lo:h_hi], iou_thr)
        prev = {g: h for g, h, _ in pairs}

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
    return _bundle_from_stats([stats]), stats


def aggregate(stats: Sequence[SequenceStats]) -> MetricBundle:
    """Benchmark-level bundle: counts summed across sequences before ratios."""
    if not stats:
        raise ValidationError("aggregate requires at least one sequence")
    return _bundle_from_stats(list(stats))
