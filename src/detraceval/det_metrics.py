"""Detection evaluation: PR curves, average precision, attribute-subset reports.

Ignore semantics: GT boxes lying inside ignore regions (coverage > 0.5) are
excluded from matching and never counted; an unmatched detection whose box is
covered > 0.5 by ignore regions is neutral rather than a false positive.
Subset evaluation treats out-of-subset GT as ignorable: a detection matched
to it is neutral, so detections on out-of-subset objects are not punished.

One labeling pass per sequence serves every subset and every threshold
(`_label_detections`). It is exact because the subset never changes the
matching: the pool a detection may match (GT with ignore coverage <= 0.5)
holds in- and out-of-subset GT alike, so a subset only decides whether a
matched detection is a true positive or neutral, and which GT counts in the
denominator. The pass therefore records, per detection, the GT row it
matched (or none) and whether ignore regions cover it; a subset is a boolean
mask over GT rows (all rows or none for the sequence-level `weather` and
`difficulty`), and its counts are read off the pass. Greedy matching takes
detections in descending score, so the detections above any threshold are
a prefix of the pass and their matching is the one a pass over them alone
would give: the PR curve reads every distinct score, the threshold sweep its
thresholds (`threshold_counts`).

AP uses the exact all-point envelope rule: the area under the monotone
non-increasing precision envelope over recall in [0, max recall].
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datamodel import (CATEGORIES, DIFFICULTIES, WEATHERS, DetectionColumns,
                        DetectionSet, GroundTruth, GtColumns, ValidationError)
from .geometry import (OcclusionClass, ScaleClass, ignore_coverages,
                       occlusion_bands, scale_bands)
from .matching import match_frame_greedy

DEFAULT_IOU_THR = 0.7

# Coverage above which a box counts as lying inside ignore regions.
IGNORE_COVERAGE_THR = 0.5

# Subset kind -> the values it accepts.
_SUBSET_VALUES = {
    "scale": tuple(c.value for c in ScaleClass),
    "occlusion": tuple(c.value for c in OcclusionClass),
    "category": CATEGORIES,
    "weather": WEATHERS,
    "difficulty": DIFFICULTIES,
}

Dets = DetectionSet | DetectionColumns
Truth = GroundTruth | GtColumns


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


@dataclass(frozen=True, eq=False)
class _Labels:
    """One sequence's labeling pass, before any subset is applied.

    Detections are in frame order, input order within a frame. `matched`
    is the GT row each one matched, or -1; `covered` marks the unmatched
    ones that ignore regions cover. `pooled` marks the GT rows in the
    matching pool.
    """

    gt: GtColumns
    score: np.ndarray
    matched: np.ndarray
    covered: np.ndarray
    pooled: np.ndarray

    def counts(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """(TP scores, FP scores, GT count) when `rows` marks the GT rows in
        the subset; a detection matched to a GT row outside it is neutral."""
        hit = self.matched >= 0
        tp = hit.copy()
        tp[hit] = rows[self.matched[hit]]
        return (self.score[tp], self.score[~hit & ~self.covered],
                int(np.count_nonzero(self.pooled & rows)))


def _label_detections(dets: Dets, gt: Truth, iou_thr: float) -> _Labels:
    """Run one greedy pass per frame over a sequence; see the module
    docstring for why this one pass serves every subset and threshold."""
    d = dets.columns if isinstance(dets, DetectionSet) else dets
    g = gt.columns if isinstance(gt, GroundTruth) else gt
    g_corners = g.corners()
    pooled = ignore_coverages(g_corners, g.width * g.height, g.frame,
                              g.ignore) <= IGNORE_COVERAGE_THR
    # The pool of each frame in row order, the detections in frame order.
    pool = np.flatnonzero(pooled)
    pool = pool[np.argsort(g.frame[pool], kind="stable")]
    order = np.argsort(d.frame, kind="stable")
    frame, score = d.frame[order], d.score[order]
    d_corners = d.corners()[order]
    pool_frame = g.frame[pool]
    frames = np.unique(frame)
    matched = np.full(len(order), -1, dtype=np.int64)
    bounds = zip(np.searchsorted(frame, frames, "left").tolist(),
                 np.searchsorted(frame, frames, "right").tolist(),
                 np.searchsorted(pool_frame, frames, "left").tolist(),
                 np.searchsorted(pool_frame, frames, "right").tolist())
    for d_lo, d_hi, g_lo, g_hi in bounds:
        if g_lo == g_hi:
            continue
        pairs = match_frame_greedy(d_corners[d_lo:d_hi], score[d_lo:d_hi],
                                   g_corners[pool[g_lo:g_hi]], iou_thr).pairs
        if pairs:
            gi, di, _ = zip(*pairs)
            matched[d_lo + np.array(di)] = pool[g_lo + np.array(gi)]
    covered = np.zeros(len(order), dtype=bool)
    left = np.flatnonzero(matched < 0)
    covered[left] = ignore_coverages(
        d_corners[left], (d.width * d.height)[order[left]], frame[left],
        g.ignore) > IGNORE_COVERAGE_THR
    return _Labels(g, score, matched, covered, pooled)


def _curve(counts: Sequence[tuple[np.ndarray, np.ndarray, int]]) -> PRCurve:
    """PR curve of (TP scores, FP scores, GT count) pooled over sequences."""
    n_gt = sum(n for _, _, n in counts)
    if n_gt == 0:
        raise ValidationError("empty evaluation target set")
    tp_scores = [tp for tp, _, _ in counts]
    fp_scores = [fp for _, fp, _ in counts]
    scores = np.concatenate(tp_scores + fp_scores)
    if not len(scores):
        return PRCurve((PRPoint(math.inf, 1.0, 0.0, 0, 0, n_gt),))
    is_tp = np.zeros(len(scores), dtype=np.int64)
    is_tp[:sum(map(len, tp_scores))] = 1
    # Stable: detections of equal score stay in sequence, frame and input
    # order, TPs first, and the last of them gives the point's threshold
    # (equal scores can differ as -0.0 and 0.0).
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    tp = np.cumsum(is_tp[order])
    # One point per distinct score, at its last detection.
    last = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    points = [PRPoint(score, t / (i + 1), t / n_gt, t, i + 1 - t, n_gt - t)
              for score, t, i in zip(scores[last].tolist(), tp[last].tolist(),
                                     last.tolist())]
    points.sort(key=lambda p: (p.recall, -p.precision))
    return PRCurve(tuple(points))


def _subset_value(name: str) -> tuple[str, str]:
    """(kind, value) of a subset name; see `detection_report`."""
    if name == "overall":
        return name, ""
    if ":" not in name:
        raise ValidationError(f"bad subset name {name!r}")
    kind, value = name.split(":", 1)
    if kind not in _SUBSET_VALUES:
        raise ValidationError(f"unknown subset kind {kind!r}")
    if value not in _SUBSET_VALUES[kind]:
        raise ValidationError(f"unknown {kind} {value!r} in subset {name!r}, "
                              f"expected one of {_SUBSET_VALUES[kind]}")
    return kind, value


def _subset_rows(kind: str, value: str, g: GtColumns) -> np.ndarray | None:
    """Mask of the GT rows in the subset, or None when the subset leaves
    out the whole sequence."""
    if kind == "scale":
        return scale_bands(g.width, g.height) == value
    if kind == "occlusion":
        return occlusion_bands(g.occlusion) == value
    if kind == "category":
        return np.fromiter((c == value for c in g.category), bool, len(g))
    if kind in ("weather", "difficulty") and getattr(g, kind) != value:
        return None
    return np.ones(len(g), dtype=bool)


def _subset_curve(labels: Sequence[_Labels], name: str) -> PRCurve:
    kind, value = _subset_value(name)
    counts = []
    for lab in labels:
        rows = _subset_rows(kind, value, lab.gt)
        if rows is not None:
            counts.append(lab.counts(rows))
    if not counts:
        raise ValidationError(f"empty evaluation target set for subset {name!r}")
    return _curve(counts)


def pr_curve(dets: Dets, gt: Truth, iou_thr: float = DEFAULT_IOU_THR,
             subset: str = "overall") -> PRCurve:
    return _subset_curve([_label_detections(dets, gt, iou_thr)], subset)


def pr_curve_multi(pairs: Sequence[tuple[Dets, Truth]],
                   iou_thr: float = DEFAULT_IOU_THR,
                   subset: str = "overall") -> PRCurve:
    """PR curve with counts pooled over several sequences."""
    return _subset_curve(
        [_label_detections(d, g, iou_thr) for d, g in pairs], subset)


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


def threshold_counts(pairs: Sequence[tuple[Dets, Truth]],
                     iou_thr: float = DEFAULT_IOU_THR) -> ThresholdCounts:
    """Label each sequence once; the result gives (tp, fp, fn) at any threshold."""
    counts = [lab.counts(np.ones(len(lab.gt), dtype=bool)) for lab in
              (_label_detections(d, g, iou_thr) for d, g in pairs)]
    return ThresholdCounts(
        tp_scores=tuple(sorted(np.concatenate([c[0] for c in counts]).tolist())),
        fp_scores=tuple(sorted(np.concatenate([c[1] for c in counts]).tolist())),
        n_gt=sum(c[2] for c in counts))


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


def detection_report(pairs: Sequence[tuple[Dets, Truth]],
                     subsets: Sequence[str] = ("overall",),
                     iou_thr: float = DEFAULT_IOU_THR) -> dict[str, dict]:
    """AP + PR curve per named subset, pooled over sequences, from one
    labeling pass per sequence.

    Names: "overall", "difficulty:<easy|medium|hard>", "weather:<...>",
    "scale:<small|medium|large>", "occlusion:<none|partial|heavy>",
    "category:<car|bus|van|others>".
    """
    labels = [_label_detections(d, g, iou_thr) for d, g in pairs]
    report: dict[str, dict] = {}
    for name in subsets:
        curve = _subset_curve(labels, name)
        report[name] = {
            "ap": average_precision(curve),
            "points": [vars(p) for p in curve.points],
        }
    return report
