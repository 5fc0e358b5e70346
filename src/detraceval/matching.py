"""Assignment machinery for the evaluation pipeline.

Three layers:

* ``hungarian`` -- minimum-cost maximum-cardinality assignment on a
  rectangular cost matrix with a ``FORBIDDEN`` sentinel for disallowed pairs.
* ``match_frame_greedy`` -- score-ordered detection-to-GT matching used for
  detection PR curves (a detection takes the unmatched GT of highest overlap
  if that overlap clears the threshold).
* ``clear_correspond`` -- the temporal correspondence step of the CLEAR
  procedure: previous pairs persist while their overlap clears the threshold,
  then remaining boxes are matched to maximize total overlap. It takes one
  frame as two ascending id lists plus their (n, 4) corner arrays (the
  `geometry.box_array` layout), so CLEAR can feed it slices of columns
  without building a box object.

Residual matching follows a documented deterministic rule: maximum
cardinality, then maximum total IoU, then, scanning ground-truth ids in
ascending order, each takes the smallest hypothesis id consistent with an
optimal overall assignment. Ties in total IoU closer than 1e-12 are treated
as equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .datamodel import BBox, Detection
from .geometry import box_array, iou_broadcast, iou_matrix

FORBIDDEN = math.inf

_IOU_TIE_TOL = 1e-12


def hungarian(cost: Sequence[Sequence[float]]) -> dict[int, int]:
    """Min-cost max-cardinality assignment over allowed (finite-cost) pairs.

    Returns a partial row -> column map covering only allowed pairs.
    """
    mat = np.asarray(cost, dtype=float)
    if mat.size == 0:
        return {}
    allowed = np.isfinite(mat)
    if not allowed.any():
        return {}
    # Big-M: one forbidden pair costs more than any spread of finite costs,
    # so cardinality over allowed pairs is maximized first.
    big = 2.0 * float(np.abs(mat[allowed]).sum()) + 1.0
    filled = np.where(allowed, mat, big)
    rows, cols = linear_sum_assignment(filled)
    return {int(r): int(c) for r, c in zip(rows, cols) if allowed[r, c]}


@dataclass(frozen=True)
class FrameMatching:
    """One frame's correspondence: matched (gt, hyp, iou) plus leftovers."""

    pairs: tuple[tuple[Hashable, Hashable, float], ...]
    unmatched_gt: tuple[Hashable, ...]
    unmatched_hyp: tuple[Hashable, ...]

    def as_map(self) -> dict[Hashable, Hashable]:
        return {g: h for g, h, _ in self.pairs}


def match_frame_greedy(dets: Sequence[Detection], gts: Sequence[BBox],
                       iou_thr: float) -> FrameMatching:
    """Greedy score-ordered matching for detection PR evaluation.

    Detections are processed in descending score (ties by input order); each
    takes the unmatched GT of maximum IoU (ties by smallest GT index) if that
    IoU is > 0 and >= iou_thr.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    free = set(range(len(gts)))
    pairs: list[tuple[int, int, float]] = []
    matched_det: set[int] = set()
    if dets and gts:
        iou_mat = iou_matrix(box_array([d.box for d in dets]), box_array(gts))
        # An entry that cannot match never becomes a row's match, so it is
        # masked once up front; taken columns are masked as they go.
        iou_mat[(iou_mat <= 0.0) | (iou_mat < iou_thr)] = -1.0
        for di in order:
            row = iou_mat[di]
            gi = int(row.argmax())
            best_iou = float(row[gi])
            if best_iou < 0.0:
                continue
            pairs.append((gi, di, best_iou))
            free.discard(gi)
            matched_det.add(di)
            iou_mat[:, gi] = -1.0
    return FrameMatching(
        pairs=tuple(pairs),
        unmatched_gt=tuple(sorted(free)),
        unmatched_hyp=tuple(i for i in range(len(dets)) if i not in matched_det),
    )


def _residual_value(iou_mat: np.ndarray, iou_thr: float) -> tuple[int, float]:
    """(cardinality, total IoU) of the optimal residual matching."""
    cost = np.where(iou_mat >= iou_thr, 1.0 - iou_mat, FORBIDDEN)
    assign = hungarian(cost)
    return len(assign), float(sum(iou_mat[r, c] for r, c in assign.items()))


def _residual_match(iou_mat: np.ndarray, iou_thr: float) -> list[tuple[int, int]]:
    """Optimal residual matching, canonicalized per the documented tie-break."""
    n, m = iou_mat.shape
    if n == 0 or m == 0:
        return []
    card, total = _residual_value(iou_mat, iou_thr)
    if card == 0:
        return []
    rows = list(range(n))
    cols = list(range(m))
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        rows.remove(i)
        chosen = -1
        for j in cols:
            if iou_mat[i, j] < iou_thr:
                continue
            sub = iou_mat[np.ix_(rows, [c for c in cols if c != j])]
            sub_card, sub_total = _residual_value(sub, iou_thr)
            if sub_card + 1 == card and sub_total + iou_mat[i, j] >= total - _IOU_TIE_TOL:
                chosen = j
                card, total = sub_card, sub_total
                break
        if chosen >= 0:
            pairs.append((i, chosen))
            cols.remove(chosen)
        if card == 0:
            break
    return pairs


def clear_correspond(prev: Mapping[Hashable, Hashable] | None,
                     gt_ids: Sequence[Hashable], gt_boxes: np.ndarray,
                     hyp_ids: Sequence[Hashable], hyp_boxes: np.ndarray,
                     iou_thr: float) -> FrameMatching:
    """One step of CLEAR temporal correspondence on one frame.

    `gt_ids` and `hyp_ids` are the frame's ids in ascending order;
    `gt_boxes` and `hyp_boxes` hold their boxes as (n, 4) `box_array` rows
    (left, top, right, bottom), row i for id i. `prev` maps gt id -> hyp id
    from the previous frame's correspondence.
    Rule 1: a previous pair persists if both boxes exist now and still overlap
    at >= iou_thr; the IoUs of all carried pairs come from one
    `iou_broadcast` call. Rule 2: leftovers are matched by optimal
    assignment maximizing total IoU subject to the threshold.
    Pairs list the persisted ones by ascending gt id, then the residual ones.
    """
    used_gt = [False] * len(gt_ids)
    used_hyp = [False] * len(hyp_ids)
    pairs: list[tuple[Hashable, Hashable, float]] = []
    if prev:
        hyp_row = {h: j for j, h in enumerate(hyp_ids)}
        carried = [(i, hyp_row[prev[g]]) for i, g in enumerate(gt_ids)
                   if g in prev and prev[g] in hyp_row]
        if carried:
            rows_g, rows_h = (list(rows) for rows in zip(*carried))
            values = iou_broadcast(gt_boxes[rows_g], hyp_boxes[rows_h]).tolist()
            for i, j, v in zip(rows_g, rows_h, values):
                if v >= iou_thr:
                    pairs.append((gt_ids[i], hyp_ids[j], v))
                    used_gt[i] = used_hyp[j] = True

    rest_gt = [i for i, used in enumerate(used_gt) if not used]
    rest_hyp = [j for j, used in enumerate(used_hyp) if not used]
    if rest_gt and rest_hyp:
        iou_mat = iou_matrix(gt_boxes[rest_gt], hyp_boxes[rest_hyp])
        for a, b in _residual_match(iou_mat, iou_thr):
            i, j = rest_gt[a], rest_hyp[b]
            pairs.append((gt_ids[i], hyp_ids[j], float(iou_mat[a, b])))
            used_gt[i] = used_hyp[j] = True

    return FrameMatching(
        pairs=tuple(pairs),
        unmatched_gt=tuple(g for g, used in zip(gt_ids, used_gt) if not used),
        unmatched_hyp=tuple(h for h, used in zip(hyp_ids, used_hyp) if not used),
    )
