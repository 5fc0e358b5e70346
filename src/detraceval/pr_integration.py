"""Detection-threshold sweeps and line integration along the PR curve.

The protocol: thin the detections at a ladder of score thresholds, run the
tracker at each, record the operating point (precision, recall, CLEAR
bundle), then integrate each metric along the resulting PR polyline:

    score = 1/2 * sum_i (psi_i + psi_{i+1}) / 2 * ds_i,
    ds_i = sqrt(dp_i^2 + dr_i^2)

MOTA/MOTP/MT%/ML% integrate as percents; IDS/FM/FP/FN as raw counts.
The curve is not extended to synthetic endpoints; only realized operating
points are integrated.

Before the threshold loop, per sequence, the sweep builds three things
once:

* the GT x detection edge table (`matching.edge_table`): every same-frame
  (GT row, detection row, IoU) with IoU >= iou_thr, over all detections;
* from it, the detection labeling pass (`det_metrics.label_pairs`), whose
  count table gives precision and recall at every threshold and whose
  rows are also `eval-det`'s PR curve; the pass also marks, once, every
  detection inside ignore regions (`Labels.inside`);
* the tracker's entry point (`by_threshold`, see `trackers`) over the
  detections at the lowest threshold; the builtin tracker computes its
  link IoUs there, in one link table.

So only the tracker's per-threshold step and CLEAR run once per
threshold. The builtin tracker's step also names the detection row behind
each track row; CLEAR then reads those rows' part of the edge table
(`EdgeTable.take`) and of the ignore mask, and computes no IoU and no
coverage. A `cmd:` tracker's output is a new set of boxes, so CLEAR
builds its table and its coverage from them. The sweep stays in
columns: thinning at a threshold is the mask ``score >= threshold`` over
`DetectionColumns`, and CLEAR scores the `TrackColumns` the tracker
returns as they are. Tracker output past the sequence's last frame is a
tracker failure at that threshold, like an exception in the tracker.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np

from .datamodel import (DetectionColumns, GtColumns, TrackColumns,
                        ValidationError, check_frame_count, ordered_sum)
from .det_metrics import (DEFAULT_IOU_THR, CountTable, count_table,
                          label_pairs, rates)
from .matching import EdgeTable, edge_table
from .mot_metrics import MetricBundle, aggregate, evaluate_clear

# Columns in, columns out: a tracker gets one sequence's detections with
# score >= the threshold, in input order, and the sequence id, and returns
# its tracks. A `cmd:` tracker sees the same data as CSV files (`trackers`).
# A tracker with a `by_threshold(dets, sequence_id)` method gives the sweep
# one function of the threshold per sequence instead (`trackers.TracksAt`).
TrackerAdapter = Callable[[DetectionColumns, str], TrackColumns]
# One sequence's tracks at a threshold, with their GT x track edge table
# and their ignore mask when the sweep can take them from the detections'.
ScoredAt = Callable[[float], tuple[TrackColumns, EdgeTable | None,
                                   np.ndarray | None]]

DEFAULT_N_THRESHOLDS = 10


class SweepError(RuntimeError):
    """A tracker failed during the sweep."""


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    precision: float
    recall: float
    metrics: MetricBundle


@dataclass(frozen=True)
class PRIntegratedReport:
    """`integrals` maps each name of `SCORE_NAMES` to its integrated score."""

    integrals: Mapping[str, float]
    arc_length: float
    curve: tuple[OperatingPoint, ...]

    def scores(self) -> dict[str, float]:
        return {k: self.integrals[k] for k in SCORE_NAMES}


def _score_list(scores: Sequence[float] | np.ndarray, n: int) -> list[float]:
    """The scores as Python floats, after the checks both spacings share."""
    if len(scores) == 0:
        raise ValidationError("no detections: cannot select score thresholds")
    if n < 2:
        raise ValidationError(f"need n >= 2 thresholds, got {n}")
    return np.asarray(scores, dtype=np.float64).tolist()


def select_thresholds(scores: Sequence[float] | np.ndarray,
                      n: int = DEFAULT_N_THRESHOLDS) -> list[float]:
    """n values uniformly spaced over [min score, max score] of the pooled
    detection scores."""
    values = _score_list(scores, n)
    lo, hi = min(values), max(values)
    if lo == hi:
        warnings.warn("all detection scores are equal; single threshold")
        return [lo]
    # Where hi - lo overflows a double, the ladder is stepped at half scale;
    # scaling by 1.0 leaves every other ladder bit for bit as it was.
    scale = 1.0 if math.isfinite(hi - lo) else 0.5
    step = (hi * scale - lo * scale) / (n - 1)
    values = [(lo * scale + i * step) / scale for i in range(n - 1)] + [hi]
    out: list[float] = []
    for v in values:
        if not out or v > out[-1]:
            out.append(v)
    return out


def select_thresholds_quantile(scores: Sequence[float] | np.ndarray,
                               n: int = DEFAULT_N_THRESHOLDS) -> list[float]:
    """Alternative spacing: score quantiles instead of uniform values."""
    scores = sorted(_score_list(scores, n))
    out: list[float] = []
    for i in range(n):
        idx = round(i * (len(scores) - 1) / (n - 1))
        v = scores[idx]
        if not out or v > out[-1]:
            out.append(v)
    return out


def _tracks_at(tracker: TrackerAdapter, dets: DetectionColumns,
               sequence_id: str, lowest: float, edges: EdgeTable,
               inside: np.ndarray) -> ScoredAt:
    """The tracker's per-sequence entry point over the detections with
    score >= lowest; a tracker without one runs on the detections with
    score >= tau. Where the entry point gives the detection row behind
    each track row, the tracks' edge table is the rows' part of `edges`,
    the sequence's GT x detection table, and their ignore mask the rows'
    part of `inside`, the detections'. An entry point that fails fails
    each threshold of the sequence, so the failure is reported, and
    skipped with keep_going, where a per-threshold one is."""
    kept = np.flatnonzero(dets.score >= lowest)
    try:
        by_threshold = getattr(tracker, "by_threshold", None)
        if by_threshold is None:
            return lambda tau: (tracker(dets.take(dets.score >= tau),
                                        sequence_id), None, None)
        at = by_threshold(dets.take(kept), sequence_id)
    except Exception as exc:
        def failed(tau: float, error: Exception = exc) -> NoReturn:
            raise error
        return failed

    def scored_at(tau: float) -> tuple[TrackColumns, EdgeTable | None,
                                       np.ndarray | None]:
        tracks, rows = at(tau)
        if rows is None:
            return tracks, None, None
        return tracks, edges.take(kept[rows]), inside[kept[rows]]
    return scored_at


def _evaluate_threshold(gts: Sequence[GtColumns],
                        tracks_at: Sequence[ScoredAt],
                        threshold: float, iou_thr: float,
                        counts: CountTable) -> OperatingPoint:
    tp, fp, fn = counts.at(threshold)
    precision, recall = rates(tp, tp + fp, tp + fn)
    stats = []
    for gt, at in zip(gts, tracks_at):
        try:
            tracks, edges, inside = at(threshold)
            check_frame_count(gt, tracks, "tracker output")
        except Exception as exc:
            raise SweepError(
                f"tracker failed at threshold {threshold:g} on sequence "
                f"{gt.sequence_id!r}: {exc}") from exc
        stats.append(evaluate_clear(gt, tracks, iou_thr, edges, inside)[1])
    return OperatingPoint(threshold, precision.item(), recall.item(),
                          aggregate(stats))


def map_jobs(fn: Callable, items: Sequence, jobs: int) -> list:
    """[fn(item) for item in items], on `jobs` threads when jobs > 1; the
    one home of the `--jobs` policy. The built-in tracker and CLEAR hold
    Python's interpreter lock, so threads pay only while external (`cmd:`)
    tracker processes run, which then overlap."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def sweep(pairs: Sequence[tuple[GtColumns, DetectionColumns]],
          tracker: TrackerAdapter,
          thresholds: Sequence[float],
          iou_thr: float = DEFAULT_IOU_THR,
          keep_going: bool = False,
          jobs: int = 1) -> list[OperatingPoint]:
    """Evaluate the full system at every threshold.

    `pairs` holds each sequence's (GT, detections) columns. At a threshold
    the tracker gets the detections with score >= threshold, in input
    order; the edge tables, the labeling and the tracker's per-sequence
    entry points are made first, one per sequence (see the module
    docstring). Threshold evaluations are
    independent; with jobs > 1 they run concurrently. Results are returned
    in curve order regardless of execution order. With keep_going, a
    failing threshold leaves a gap instead of aborting.
    """
    if not all(map(math.isfinite, thresholds)):
        raise ValidationError(f"thresholds must be finite: {list(map(float, thresholds))}")
    edges = [edge_table(gt, dets, iou_thr) for gt, dets in pairs]
    labels = label_pairs(pairs, iou_thr, edges)
    counts = count_table(labels)
    # Of the labels only each sequence's ignore mask outlives the table;
    # their other per-detection arrays are freed before the tracker's
    # tables are built.
    inside = [lab.inside for lab in labels]
    del labels
    lowest = min(thresholds, default=0.0)
    gts = [gt for gt, _ in pairs]
    tracks_at = [_tracks_at(tracker, dets, gt.sequence_id, lowest, table, mask)
                 for (gt, dets), table, mask in zip(pairs, edges, inside)]

    def run(tau: float) -> OperatingPoint | None:
        try:
            return _evaluate_threshold(gts, tracks_at, tau, iou_thr, counts)
        except SweepError:
            if keep_going:
                return None
            raise

    points = [p for p in map_jobs(run, thresholds, jobs) if p is not None]
    points.sort(key=lambda p: (p.recall, -p.precision))
    return points


def integrate(points: Sequence[OperatingPoint],
              extractor: Callable[[MetricBundle], float]) -> float:
    """Trapezoidal line integral of a metric along the PR polyline, halved."""
    if not points:
        raise ValidationError("integrate requires at least one operating point")
    if len(points) == 1:
        warnings.warn("single operating point: line integral is 0")
        return 0.0
    total = 0.0
    for a, b in zip(points, points[1:]):
        ds = math.hypot(b.precision - a.precision, b.recall - a.recall)
        total += 0.5 * (extractor(a.metrics) + extractor(b.metrics)) * ds
    return 0.5 * total


def arc_length(points: Sequence[OperatingPoint]) -> float:
    return ordered_sum(math.hypot(b.precision - a.precision,
                                  b.recall - a.recall)
                       for a, b in zip(points, points[1:]))


_EXTRACTORS: dict[str, Callable[[MetricBundle], float]] = {
    "pr_mota": lambda m: m.mota,
    "pr_motp": lambda m: m.motp,
    "pr_mt": lambda m: m.mt_pct,
    "pr_ml": lambda m: m.ml_pct,
    "pr_ids": lambda m: float(m.ids),
    "pr_fm": lambda m: float(m.fm),
    "pr_fp": lambda m: float(m.fp),
    "pr_fn": lambda m: float(m.fn),
}


# The PR-integrated scores, in report and leaderboard column order.
SCORE_NAMES = tuple(_EXTRACTORS)


def pr_report(points: Sequence[OperatingPoint]) -> PRIntegratedReport:
    ordered = sorted(points, key=lambda p: (p.recall, -p.precision))
    return PRIntegratedReport(
        {name: integrate(ordered, fn) for name, fn in _EXTRACTORS.items()},
        arc_length(ordered), tuple(ordered))


def mean_scores(rows: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Key-wise arithmetic mean of score mappings, over the first one's keys."""
    return {k: ordered_sum(r[k] for r in rows) / len(rows) for k in rows[0]}
