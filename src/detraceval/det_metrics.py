"""Detection evaluation: PR curves, average precision, attribute-subset reports.

Ignore semantics: GT boxes lying inside ignore regions (coverage > 0.5) are
excluded from matching and never counted; an unmatched detection whose box is
covered > 0.5 by ignore regions is neutral rather than a false positive.
Subset evaluation treats out-of-subset GT as ignorable: a detection matched
to it is neutral, so detections on out-of-subset objects are not punished.

AP uses the exact all-point envelope rule: the area under the monotone
non-increasing precision envelope over recall in [0, max recall].
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .datamodel import DetectionSet, GroundTruth, GtEntry, ValidationError
from .geometry import (OcclusionClass, ScaleClass, ignore_coverage,
                       occlusion_class, scale_class)
from .matching import match_frame_greedy

DEFAULT_IOU_THR = 0.7

# Coverage above which a box counts as lying inside ignore regions.
IGNORE_COVERAGE_THR = 0.5

SubsetPredicate = Callable[[GtEntry], bool]


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class PRCurve:
    """Operating points ordered by ascending recall, ties by descending precision."""

    points: tuple[PRPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValidationError("PRCurve must contain at least one point")

    def max_recall(self) -> float:
        return max(p.recall for p in self.points)


@dataclass(frozen=True)
class _LabeledCounts:
    """Per-sequence raw material for a PR curve: detection labels + GT total.

    `tp_scores` / `fp_scores`: scores of detections that are true / false
    positives once their score clears the threshold. Neutralized detections
    appear in neither list.
    """

    tp_scores: tuple[float, ...]
    fp_scores: tuple[float, ...]
    n_gt: int


def _label_detections(dets: DetectionSet, gt: GroundTruth, iou_thr: float,
                      subset: SubsetPredicate | None) -> _LabeledCounts:
    """Run one greedy pass per frame and label every detection TP/FP/neutral.

    Because greedy matching processes detections in descending score (ties
    in input order), the detections with score >= tau are a prefix of the
    pass and their matching is the one a pass over them alone would give.
    So this one pass yields every threshold's counts: the PR curve reads
    them at each distinct score, the threshold sweep at each of its
    thresholds (`threshold_counts`).
    """
    tp_scores: list[float] = []
    fp_scores: list[float] = []
    n_gt = 0
    by_frame = dets.by_frame()
    gt_by_frame: dict[int, list[GtEntry]] = {}
    for tr in gt.tracks:
        for e in tr.entries:
            gt_by_frame.setdefault(e.frame, []).append(e)
    for frame in sorted(set(by_frame) | set(gt_by_frame)):
        entries = gt_by_frame.get(frame, [])
        # GT inside ignore regions leaves the matching pool entirely.
        pool = [e for e in entries
                if ignore_coverage(e.box, gt.ignore_regions, frame) <= IGNORE_COVERAGE_THR]
        in_subset = [subset is None or subset(e) for e in pool]
        n_gt += sum(in_subset)
        frame_dets = by_frame.get(frame, [])
        if not frame_dets:
            continue
        matching = match_frame_greedy(frame_dets, [e.box for e in pool], iou_thr)
        for gi, di, _ in matching.pairs:
            if in_subset[gi]:
                tp_scores.append(frame_dets[di].score)
            # matched to out-of-subset GT: neutral
        for di in matching.unmatched_hyp:
            d = frame_dets[di]
            if ignore_coverage(d.box, gt.ignore_regions, frame) <= IGNORE_COVERAGE_THR:
                fp_scores.append(d.score)
    return _LabeledCounts(tuple(tp_scores), tuple(fp_scores), n_gt)


def _curve_from_labels(labels: Sequence[_LabeledCounts]) -> PRCurve:
    n_gt = sum(lab.n_gt for lab in labels)
    if n_gt == 0:
        raise ValidationError("empty evaluation target set")
    scored = [(s, True) for lab in labels for s in lab.tp_scores]
    scored += [(s, False) for lab in labels for s in lab.fp_scores]
    if not scored:
        return PRCurve((PRPoint(math.inf, 1.0, 0.0, 0, 0, n_gt),))
    scored.sort(key=lambda t: -t[0])
    points: list[PRPoint] = []
    tp = fp = 0
    for i, (score, is_tp) in enumerate(scored):
        if is_tp:
            tp += 1
        else:
            fp += 1
        if i + 1 < len(scored) and scored[i + 1][0] == score:
            continue  # same threshold; emit once per distinct score
        precision = tp / (tp + fp) if tp + fp > 0 else 1.0
        points.append(PRPoint(score, precision, tp / n_gt, tp, fp, n_gt - tp))
    points.sort(key=lambda p: (p.recall, -p.precision))
    return PRCurve(tuple(points))


def pr_curve(dets: DetectionSet, gt: GroundTruth, iou_thr: float = DEFAULT_IOU_THR,
             subset: SubsetPredicate | None = None) -> PRCurve:
    return _curve_from_labels([_label_detections(dets, gt, iou_thr, subset)])


def pr_curve_multi(pairs: Sequence[tuple[DetectionSet, GroundTruth]],
                   iou_thr: float = DEFAULT_IOU_THR,
                   subset: SubsetPredicate | None = None) -> PRCurve:
    """PR curve with counts pooled over several sequences."""
    return _curve_from_labels(
        [_label_detections(d, g, iou_thr, subset) for d, g in pairs])


@dataclass(frozen=True)
class ThresholdCounts:
    """Labels pooled over sequences, read at any score threshold.

    `tp_scores` / `fp_scores` are sorted ascending, so the detections with
    score >= threshold are a suffix found by binary search.
    """

    tp_scores: tuple[float, ...]
    fp_scores: tuple[float, ...]
    n_gt: int

    def at(self, threshold: float) -> tuple[int, int, int]:
        """(tp, fp, fn) of the detections with score >= threshold."""
        tp = len(self.tp_scores) - bisect.bisect_left(self.tp_scores, threshold)
        fp = len(self.fp_scores) - bisect.bisect_left(self.fp_scores, threshold)
        return tp, fp, self.n_gt - tp


def threshold_counts(pairs: Sequence[tuple[DetectionSet, GroundTruth]],
                     iou_thr: float = DEFAULT_IOU_THR) -> ThresholdCounts:
    """Label each sequence once; the result gives (tp, fp, fn) at any threshold."""
    labels = [_label_detections(dets, gt, iou_thr, None) for dets, gt in pairs]
    return ThresholdCounts(
        tp_scores=tuple(sorted(s for lab in labels for s in lab.tp_scores)),
        fp_scores=tuple(sorted(s for lab in labels for s in lab.fp_scores)),
        n_gt=sum(lab.n_gt for lab in labels))


def average_precision(curve: PRCurve) -> float:
    """Area under the monotone precision envelope over [0, max recall]."""
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


# ---------------------------------------------------------------------------
# Attribute subsets
# ---------------------------------------------------------------------------

def _entry_predicate(kind: str, value: str) -> SubsetPredicate:
    if kind == "scale":
        want = ScaleClass(value)
        return lambda e: scale_class(e.box) is want
    if kind == "occlusion":
        want_occ = OcclusionClass(value)
        return lambda e: occlusion_class(e.occlusion_ratio) is want_occ
    if kind == "category":
        return lambda e: e.category == value
    raise ValidationError(f"unknown subset kind {kind!r}")


def resolve_subset(name: str) -> tuple[Callable[[GroundTruth], bool], SubsetPredicate | None]:
    """Map a subset name to (sequence filter, entry predicate).

    Names: "overall", "difficulty:<easy|medium|hard>", "weather:<...>",
    "scale:<small|medium|large>", "occlusion:<none|partial|heavy>",
    "category:<car|bus|van|others>".
    """
    if name == "overall":
        return (lambda gt: True), None
    if ":" not in name:
        raise ValidationError(f"bad subset name {name!r}")
    kind, value = name.split(":", 1)
    if kind == "difficulty":
        return (lambda gt: gt.difficulty == value), None
    if kind == "weather":
        return (lambda gt: gt.weather == value), None
    return (lambda gt: True), _entry_predicate(kind, value)


def detection_report(pairs: Sequence[tuple[DetectionSet, GroundTruth]],
                     subsets: Sequence[str] = ("overall",),
                     iou_thr: float = DEFAULT_IOU_THR) -> dict[str, dict]:
    """AP + PR curve per named subset, pooled over sequences."""
    report: dict[str, dict] = {}
    for name in subsets:
        seq_filter, entry_pred = resolve_subset(name)
        selected = [(d, g) for d, g in pairs if seq_filter(g)]
        if not selected:
            raise ValidationError(f"empty evaluation target set for subset {name!r}")
        curve = pr_curve_multi(selected, iou_thr, entry_pred)
        report[name] = {
            "ap": average_precision(curve),
            "points": [vars(p) for p in curve.points],
        }
    return report
