"""Detection-threshold sweeps and line integration along the PR curve.

The protocol: thin the detections at a ladder of score thresholds, run the
tracker at each, record the operating point (precision, recall, CLEAR
bundle), then integrate each metric along the resulting PR polyline:

    score = 1/2 * sum_i (psi_i + psi_{i+1}) / 2 * ds_i,
    ds_i = sqrt(dp_i^2 + dr_i^2)

MOTA/MOTP/MT%/ML% integrate as percents; IDS/FM/FP/FN as raw counts.
The curve is not extended to synthetic endpoints; only realized operating
points are integrated.

Precision and recall at every threshold come from one detection labeling
pass per sequence (`det_metrics.threshold_counts`); only the tracker and
CLEAR run once per threshold.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .datamodel import DetectionSet, GroundTruth, TrackSet, ValidationError
from .det_metrics import DEFAULT_IOU_THR, ThresholdCounts, threshold_counts
from .mot_metrics import MetricBundle, aggregate, evaluate_clear

TrackerAdapter = Callable[[DetectionSet, str], TrackSet]

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
    pr_mota: float
    pr_motp: float
    pr_mt: float
    pr_ml: float
    pr_ids: float
    pr_fm: float
    pr_fp: float
    pr_fn: float
    arc_length: float
    curve: tuple[OperatingPoint, ...]

    def scores(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in SCORE_NAMES}


def select_thresholds(dets: DetectionSet, n: int = DEFAULT_N_THRESHOLDS) -> list[float]:
    """n score values uniformly spaced over [min score, max score]."""
    if len(dets) == 0:
        raise ValidationError("cannot select thresholds from an empty DetectionSet")
    if n < 2:
        raise ValidationError(f"need n >= 2 thresholds, got {n}")
    lo, hi = dets.score_range()
    if lo == hi:
        warnings.warn("all detection scores are equal; single threshold")
        return [lo]
    step = (hi - lo) / (n - 1)
    values = [lo + i * step for i in range(n - 1)] + [hi]
    out: list[float] = []
    for v in values:
        if not out or v > out[-1]:
            out.append(v)
    return out


def select_thresholds_quantile(dets: DetectionSet,
                               n: int = DEFAULT_N_THRESHOLDS) -> list[float]:
    """Alternative spacing: score quantiles instead of uniform values."""
    if len(dets) == 0:
        raise ValidationError("cannot select thresholds from an empty DetectionSet")
    if n < 2:
        raise ValidationError(f"need n >= 2 thresholds, got {n}")
    scores = sorted(d.score for d in dets)
    out: list[float] = []
    for i in range(n):
        idx = round(i * (len(scores) - 1) / (n - 1))
        v = scores[idx]
        if not out or v > out[-1]:
            out.append(v)
    return out


def _evaluate_threshold(pairs: Sequence[tuple[GroundTruth, DetectionSet]],
                        tracker: TrackerAdapter, threshold: float,
                        iou_thr: float, counts: ThresholdCounts) -> OperatingPoint:
    filtered = [(gt, dets.filter_score(threshold)) for gt, dets in pairs]
    tp, fp, fn = counts.at(threshold)
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    stats = []
    for gt, dets in filtered:
        try:
            tracks = tracker(dets, gt.sequence_id)
        except Exception as exc:
            raise SweepError(
                f"tracker failed at threshold {threshold:g} on sequence "
                f"{gt.sequence_id!r}: {exc}") from exc
        stats.append(evaluate_clear(gt, tracks, iou_thr)[1])
    return OperatingPoint(threshold, precision, recall, aggregate(stats))


def sweep(pairs: Sequence[tuple[GroundTruth, DetectionSet]],
          tracker: TrackerAdapter,
          thresholds: Sequence[float],
          iou_thr: float = DEFAULT_IOU_THR,
          keep_going: bool = False,
          jobs: int = 1) -> list[OperatingPoint]:
    """Evaluate the full system at every threshold.

    Threshold evaluations are independent; with jobs > 1 they run
    concurrently. Results are returned in curve order regardless of
    execution order. With keep_going, a failing threshold leaves a gap
    instead of aborting.
    """
    counts = threshold_counts([(dets, gt) for gt, dets in pairs], iou_thr)

    def run(tau: float) -> OperatingPoint | None:
        try:
            return _evaluate_threshold(pairs, tracker, tau, iou_thr, counts)
        except SweepError:
            if keep_going:
                return None
            raise

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, thresholds))
    else:
        results = [run(t) for t in thresholds]
    points = [p for p in results if p is not None]
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
    return sum(math.hypot(b.precision - a.precision, b.recall - a.recall)
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
    scores = {name: integrate(ordered, fn) for name, fn in _EXTRACTORS.items()}
    return PRIntegratedReport(arc_length=arc_length(ordered),
                              curve=tuple(ordered), **scores)


def mean_scores(rows: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Key-wise arithmetic mean of score mappings, over the first one's keys."""
    return {k: sum(r[k] for r in rows) / len(rows) for k in rows[0]}


def average_scores(reports: Sequence[PRIntegratedReport]) -> dict[str, float]:
    """Detector-averaged scores for ranking a tracker across detectors."""
    if not reports:
        raise ValidationError("average_scores requires at least one report")
    return mean_scores([r.scores() for r in reports])
