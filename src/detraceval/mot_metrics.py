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
* An unmatched hypothesis box covered > 0.5 by ignore regions is dropped
  rather than counted as a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .datamodel import GroundTruth, TrackSet, ValidationError
from .det_metrics import DEFAULT_IOU_THR, IGNORE_COVERAGE_THR
from .geometry import ignore_coverage
from .matching import clear_correspond

MT_COVERAGE = 0.8
ML_COVERAGE = 0.2


@dataclass(frozen=True)
class FrameCounts:
    frame: int
    gt: int
    matches: int
    fn: int
    fp: int
    ids: int
    iou_sum: float


@dataclass(frozen=True)
class SequenceStats:
    """Everything needed to re-derive a MetricBundle or aggregate sequences."""

    sequence_id: str
    frame_counts: tuple[FrameCounts, ...]
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
    gt_total = sum(c.gt for s in stats for c in s.frame_counts)
    fn = sum(c.fn for s in stats for c in s.frame_counts)
    fp = sum(c.fp for s in stats for c in s.frame_counts)
    ids = sum(c.ids for s in stats for c in s.frame_counts)
    matches = sum(c.matches for s in stats for c in s.frame_counts)
    iou_sum = sum(c.iou_sum for s in stats for c in s.frame_counts)
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


def evaluate_clear(gt: GroundTruth, tracks: TrackSet,
                   iou_thr: float = DEFAULT_IOU_THR) -> tuple[MetricBundle, SequenceStats]:
    for tr in tracks.tracks:
        for frame, _ in tr.boxes:
            if frame > gt.frame_count:
                raise ValidationError(
                    f"output track {tr.track_id}: frame {frame} beyond "
                    f"frame_count {gt.frame_count}")

    hyp_by_frame: dict[int, dict[int, object]] = {}
    for tr in tracks.tracks:
        for frame, box in tr.boxes:
            hyp_by_frame.setdefault(frame, {})[tr.track_id] = box
    gt_by_frame: dict[int, dict[int, object]] = {}
    for tr in gt.tracks:
        for e in tr.entries:
            gt_by_frame.setdefault(e.frame, {})[tr.target_id] = e

    prev: dict[int, int] = {}
    last_match: dict[int, int] = {}      # gt id -> most recent matched hyp id
    match_state: dict[int, str] = {}     # gt id -> "matched" | "gap"
    matched_frames: dict[int, int] = {}
    fm = 0
    counts: list[FrameCounts] = []

    for frame in range(1, gt.frame_count + 1):
        entries = gt_by_frame.get(frame, {})
        gts = {gid: e.box for gid, e in entries.items()}
        hyps = hyp_by_frame.get(frame, {})
        if not gts and not hyps:
            continue
        matching = clear_correspond(prev, gts, hyps, iou_thr)
        prev = matching.as_map()

        ids_t = 0
        for g, h, _ in matching.pairs:
            if g in last_match and last_match[g] != h:
                ids_t += 1
            last_match[g] = h
            matched_frames[g] = matched_frames.get(g, 0) + 1

        for gid in gts:
            if gid in prev:
                if match_state.get(gid) == "gap":
                    fm += 1
                match_state[gid] = "matched"
            elif match_state.get(gid) == "matched":
                match_state[gid] = "gap"

        fp_t = sum(
            1 for h in matching.unmatched_hyp
            if ignore_coverage(hyps[h], gt.ignore_regions, frame) <= IGNORE_COVERAGE_THR)
        iou_sum = sum(v for _, _, v in matching.pairs)
        counts.append(FrameCounts(
            frame=frame, gt=len(gts), matches=len(matching.pairs),
            fn=len(gts) - len(matching.pairs), fp=fp_t, ids=ids_t,
            iou_sum=iou_sum,
        ))

    mt = ml = 0
    for tr in gt.tracks:
        coverage = matched_frames.get(tr.target_id, 0) / len(tr.entries)
        if coverage > MT_COVERAGE:
            mt += 1
        elif coverage < ML_COVERAGE:
            ml += 1

    stats = SequenceStats(
        sequence_id=gt.sequence_id,
        frame_counts=tuple(counts),
        fm=fm, mt=mt, ml=ml, n_tracks=len(gt.tracks),
    )
    return _bundle_from_stats([stats]), stats


def aggregate(stats: Sequence[SequenceStats]) -> MetricBundle:
    """Benchmark-level bundle: counts summed across sequences before ratios."""
    if not stats:
        raise ValidationError("aggregate requires at least one sequence")
    return _bundle_from_stats(list(stats))
