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
`difficulty`), and its counts are read off the pass. `detection_report`
applies every subset to a sequence as soon as it is labeled and keeps only
each subset's counts (`Labels.counts`), so it holds one sequence's GT,
detections and labels at a time; `Labels` keep no GT. Greedy matching
takes detections in descending score, so the detections above any
threshold are a prefix of the pass and their matching is the one a pass
over them alone would give.

The pass reads the sequence's GT x detection edge table
(`matching.edge_table`): every same-frame (GT row, detection row, IoU)
with IoU >= iou_thr, computed once per sequence by `geometry.iou_edges`.
Of it the pass keeps the edges whose GT row is in the pool and whose IoU is
> 0: exactly the pairs greedy matching may take. `matching.split_conflicts`
splits them by the conflict rule stated once in the `matching` docstring,
over the detections and every GT row, each side in frame order. In a
frame where no detection and no GT row holds two kept edges, greedy
matching is the set of those edges: a detection's only candidate is its
edge's GT, and no other detection has an edge to that GT, so it is still
free whatever the score order. Only the other, conflicted, frames run
`matching.match_frame_greedy`, in frame order, on the frame's (detection,
GT) IoU matrix filled from the kept edges, with -1 elsewhere. A -1 never
matches, and every other entry is the IoU a per-frame `iou_matrix` gives,
bit for bit (`iou_broadcast` is symmetric). The matrix holds the frame's
GT rows outside the pool too, which makes no difference: such a row
holds no kept edge, so it never matches, and the pooled rows keep their
input order within the frame, so greedy's lowest-column tie rule picks
the GT a pool-only matrix would. The sweep
builds each sequence's table itself, labels from it and hands it to CLEAR
as well, one sequence at a time (`pr_integration.sweep_sequence`).

The labels' counts, pooled over sequences in sequence order, become one
`CountTable` (`count_table`): cumulative TP and detection counts at every
distinct score, in descending score order. Its rows are the PR curve that
`detection_report` writes and integrates, and the sweep reads its
thresholds off the same table, built from the counts that each sequence's
run returns (`count_table(...).at`).
Along descending score the TP count never falls, and at a fixed TP count
precision falls as detections are added, so the rows are already in curve
order: recall ascending, ties by precision descending.

AP uses the exact all-point envelope rule: the area under the monotone
non-increasing precision envelope over recall in [0, max recall].
`PRCurve` and `PRPoint` are the input of the numeric AP oracle
(`synth.oracle_ap`); no evaluation path builds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .datamodel import (CATEGORIES, DIFFICULTIES, WEATHERS, DetectionColumns,
                        GtColumns, Rows, ValidationError, check_frame_count,
                        distinct, positions)
from .geometry import (OcclusionClass, ScaleClass, covered, occlusion_bands,
                       scale_bands)
from .matching import (EdgeTable, edge_table, match_frame_greedy,
                       split_conflicts)

DEFAULT_IOU_THR = 0.7

# Subset kind -> the values it accepts.
_SUBSET_VALUES = {
    "scale": tuple(c.value for c in ScaleClass),
    "occlusion": tuple(c.value for c in OcclusionClass),
    "category": CATEGORIES,
    "weather": WEATHERS,
    "difficulty": DIFFICULTIES,
}

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
    """Operating points ordered by ascending recall, ties by descending
    precision: the input of `synth.oracle_ap`."""

    points: tuple[PRPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValidationError("PRCurve must contain at least one point")


@dataclass(frozen=True, eq=False)
class CountTable:
    """Detection counts pooled over sequences, at every operating point.

    Row 0 keeps nothing (score inf); then one row per distinct detection
    score, in descending score order, which is also curve order. `tp` and
    `kept` count the TPs and the counted detections (TP or FP) with score
    >= the row's score; `n_gt` is the GT count.
    """

    score: np.ndarray
    tp: np.ndarray
    kept: np.ndarray
    n_gt: int

    def at(self, threshold: float) -> tuple[int, int, int]:
        """(tp, fp, fn) of the detections with score >= threshold."""
        i = np.searchsorted(-self.score, -threshold, side="right") - 1
        tp = int(self.tp[i])
        return tp, int(self.kept[i]) - tp, self.n_gt - tp


def rates(tp, kept, n_gt) -> tuple[np.ndarray, np.ndarray]:
    """Precision and recall of counts (arrays or numbers): precision is 1.0
    when nothing is kept, and recall 0.0 when there is no GT."""
    tp = np.asarray(tp, dtype=np.float64)
    return (np.divide(tp, kept, out=np.ones_like(tp), where=np.asarray(kept) > 0),
            np.divide(tp, n_gt, out=np.zeros_like(tp), where=n_gt > 0))


@dataclass(frozen=True, eq=False)
class Labels:
    """One sequence's labeling pass, before any subset is applied.

    Detections are in frame order, input order within a frame. `matched`
    is the GT row each one matched, or -1; `covered` marks the unmatched
    ones that ignore regions cover. `pooled` marks the GT rows in the
    matching pool. `inside` marks every detection that lies inside ignore
    regions, in input order: the sequence's one `geometry.covered` call
    on its detections, which the sweep also hands to CLEAR.
    """

    score: np.ndarray
    matched: np.ndarray
    covered: np.ndarray
    pooled: np.ndarray
    inside: np.ndarray

    def counts(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """(TP scores, FP scores, GT count) when `rows` marks the GT rows in
        the subset; a detection matched to a GT row outside it is neutral."""
        hit = self.matched >= 0
        tp = hit.copy()
        tp[hit] = rows[self.matched[hit]]
        return (self.score[tp], self.score[~hit & ~self.covered],
                int(np.count_nonzero(self.pooled & rows)))


def _label_detections(g: GtColumns, d: DetectionColumns, edges: EdgeTable,
                      iou_thr: float) -> Labels:
    """One sequence's greedy labeling, read off its GT x detection edge
    table at iou_thr; see the module docstring for why this one pass
    serves every subset and threshold, and why a conflict-free frame is
    matched by its edges."""
    check_frame_count(g, d, "detections")
    pooled = ~covered(g, g.ignore)
    # Each side in frame order, input order within a frame (the order
    # `edge_table` sorts in); an edge's rows are their positions there.
    order = np.argsort(d.frame, kind="stable")
    g_order = np.argsort(g.frame, kind="stable")
    frame, g_frame = d.frame[order], g.frame[g_order]
    frames = distinct(np.concatenate((frame, g_frame)))
    n_d, n_g = (np.diff(np.searchsorted(col, frames, "right"), prepend=0)
                for col in (frame, g_frame))
    on = pooled[edges.gt] & (edges.iou > 0.0)
    e_det, e_gt = (positions(order, edges.box[on]),
                   positions(g_order, edges.gt[on]))
    free, conflicts = split_conflicts(n_d, n_g, e_det, e_gt, edges.iou[on])
    matched = np.full(len(order), -1, dtype=np.int64)
    matched[e_det[free]] = g_order[e_gt[free]]
    score = d.score[order]
    for _, d0, g0, iou_mat in conflicts:
        pairs = match_frame_greedy(iou_mat, score[d0:d0 + len(iou_mat)],
                                   iou_thr)
        if pairs:
            gi, di, _ = zip(*pairs)
            matched[d0 + np.array(di)] = g_order[g0 + np.array(gi)]
    inside = covered(d, g.ignore)
    return Labels(score, matched, inside[order] & (matched < 0), pooled, inside)


def count_table(counts: Sequence[tuple[np.ndarray, np.ndarray, int]]
                ) -> CountTable:
    """The count table of per-sequence (TP scores, FP scores, GT count)
    (`Labels.counts`), pooled in sequence order: it gives (tp, fp, fn) at
    any threshold."""
    tp_scores = [tp for tp, _, _ in counts]
    scores = np.concatenate(tp_scores + [fp for _, fp, _ in counts])
    is_tp = np.zeros(len(scores), dtype=np.int64)
    is_tp[:sum(map(len, tp_scores))] = 1
    # Stable: detections of equal score stay in sequence, frame and input
    # order, TPs first, and the last of them gives the row's score (equal
    # scores can differ as -0.0 and 0.0).
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    last = np.flatnonzero(np.append(scores[1:] != scores[:-1], len(scores) > 0))
    return CountTable(np.append(math.inf, scores[last]),
                      np.append(0, np.cumsum(is_tp[order])[last]),
                      np.append(0, last + 1), sum(n for _, _, n in counts))


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
        return g.category == CATEGORIES.index(value)
    if kind in ("weather", "difficulty") and getattr(g, kind) != value:
        return None
    return np.ones(len(g), dtype=bool)


def threshold_counts(pairs: Iterable[tuple[GtColumns, DetectionColumns]],
                     iou_thr: float = DEFAULT_IOU_THR) -> CountTable:
    """Label each (GT, detections) pair once, on its `matching.edge_table`
    at iou_thr; the table gives (tp, fp, fn) at any threshold, every GT
    row counted."""
    return count_table([
        _label_detections(g, d, edge_table(g, d, iou_thr), iou_thr).counts(
            np.ones(len(g), dtype=bool))
        for g, d in pairs])


def average_precision(recall: np.ndarray, precision: np.ndarray) -> float:
    """Area under the monotone precision envelope over [0, max recall], of
    points in curve order (recall ascending, ties by precision descending).
    The envelope at a point is the highest precision at or after it; each
    rise in recall is summed left to right at the envelope where it ends."""
    env = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.append(0.0, recall[:-1])
    step = recall > prev
    return np.cumsum(np.append(0.0, (recall - prev)[step] * env[step]))[-1].item()


def detection_report(pairs: Iterable[tuple[GtColumns, DetectionColumns]],
                     subsets: Sequence[str] = ("overall",),
                     iou_thr: float = DEFAULT_IOU_THR) -> dict[str, dict]:
    """AP + PR curve per named subset, pooled over the (GT, detections)
    pairs, from one labeling pass per sequence. Every name is checked
    before the first pair is drawn; then each pair, drawn from any
    iterable, is labeled and reduced to its subsets' counts before the
    next is drawn. A subset's `points` are its
    count table's rows in curve order, one per distinct score, or the one
    row of nothing kept when there are no detections: `Rows` with the
    float64 columns threshold, precision and recall and the int64 columns
    tp, fp and fn, each the table's array as it is; the writer turns them
    into Python scalars one chunk of rows at a time.

    Names: "overall", "difficulty:<easy|medium|hard>", "weather:<...>",
    "scale:<small|medium|large>", "occlusion:<none|partial|heavy>",
    "category:<car|bus|van|others>".
    """
    kinds = [_subset_value(name) for name in subsets]

    def sequence_counts(pair):
        g, d = pair
        labels = _label_detections(g, d, edge_table(g, d, iou_thr), iou_thr)
        return [None if (rows := _subset_rows(kind, value, g)) is None
                else labels.counts(rows) for kind, value in kinds]

    # `map` drops each pair, and its labels, before it draws the next.
    by_sequence = list(map(sequence_counts, pairs))
    report: dict[str, dict] = {}
    for i, name in enumerate(subsets):
        counts = [seq[i] for seq in by_sequence if seq[i] is not None]
        if not counts or (table := count_table(counts)).n_gt == 0:
            raise ValidationError(
                f"empty evaluation target set for subset {name!r}")
        # Row 0 (nothing kept) is a point only when there are no detections.
        rows = slice(1 if len(table.score) > 1 else 0, None)
        tp, kept = table.tp[rows], table.kept[rows]
        precision, recall = rates(tp, kept, table.n_gt)
        columns = {"threshold": table.score[rows], "precision": precision,
                   "recall": recall, "tp": tp, "fp": kept - tp,
                   "fn": table.n_gt - tp}
        report[name] = {
            "ap": average_precision(recall, precision),
            "points": Rows(columns),
        }
    return report
