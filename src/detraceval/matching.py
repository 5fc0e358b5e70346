"""Assignment machinery for the evaluation pipeline.

Three layers:

* ``hungarian`` -- minimum-cost maximum-cardinality assignment on a
  rectangular cost matrix with a ``FORBIDDEN`` sentinel for disallowed pairs.
* ``match_frame_greedy`` -- score-ordered detection-to-GT matching used for
  detection PR curves (a detection takes the unmatched GT of highest overlap
  if that overlap clears the threshold). It takes one frame as its
  (detection, GT) IoU matrix plus the detections' scores.
* ``clear_correspond`` -- the temporal correspondence step of the CLEAR
  procedure: previous pairs persist while their overlap clears the threshold,
  then remaining boxes are matched to maximize total overlap. It takes one
  frame as two ascending id lists plus the frame's IoU matrix.

Both matchers get their frames from one sequence's `EdgeTable`
(`edge_table`: every same-frame GT x box pair with IoU >= the threshold,
computed once by `geometry.iou_edges`), and `split_conflicts` decides, for
both callers (`det_metrics._label_detections` and
`mot_metrics._correspond`), which frames a matcher runs on. The conflict
rule: a frame is conflicted when some row on either side holds two of the
edges the caller passes. A conflict-free frame is matched by exactly its
edges, which the caller takes without calling a matcher (each caller's
docstring says why its matcher agrees); a conflicted frame goes to the
matcher as its IoU matrix, filled from its edges and with -1 elsewhere.
`match_frame_greedy` ignores an entry <= 0 or below the threshold, and
`clear_correspond` an entry below the threshold only, so at threshold 0
it matches a pair of IoU 0 that greedy matching leaves out. Both ignore
an entry < 0, so the -1 changes nothing.

Both matchers return one frame's matches as a list of (gt, hypothesis, IoU)
pairs and nothing else: a box that no pair holds is unmatched, and a caller
that needs the unmatched boxes reads them off the pairs.

Residual matching follows a documented deterministic rule: maximum
cardinality, then maximum total IoU, then, scanning ground-truth ids in
ascending order, each takes the smallest hypothesis id consistent with an
optimal overall assignment. Ties in total IoU closer than 1e-12 are treated
as equal: at each ground truth, a candidate pair is consistent when the best
total with that pair fixed falls short of the best total of what is still
unassigned by at most 1e-12.

The rule is applied per connected component. The residual IoU matrix is a
bipartite graph whose edges are the pairs with IoU >= the threshold (the
same ``>=`` that admits a pair to the assignment, so at threshold 0 every
pair is an edge). Components share no rows or columns, so cardinality and
total IoU add up across them, and fixing one ground truth's pair changes
only its own component's part of both. The rule therefore decides each
component on its own:

* an isolated edge, one whose row and column hold no other edge, is a
  component of its own, and it is its component's answer;
* the other components are labeled by union-find over their edges, and
  each goes through `_canonical_match` on its own sub-matrix. That walk
  fixes the ground truths in ascending order and asks `_residual_value`,
  for every candidate pair, for the optimum of what would remain.

`_residual_value` enumerates when the smaller side of its matrix is at most
2: the best single pair, or the best two disjoint pairs. Only a matrix with
both sides >= 3 goes to `hungarian`. So a component with a side <= 2 solves
no assignment, and a larger one solves one per candidate pair until its
sub-problems shrink to a side of 2. At the default threshold the
conflicted frames of a sweep hold mostly single edges and components with
a side of 2: on the benchmark's `system-sweep` seed-1 input they solve no
assignment.

scipy is imported on first use only: by `hungarian` (residual components
with both sides >= 3, and direct callers) and by `synth.gen_scenario` for
clutter. Importing the package, and evaluating inputs whose residual
components all have a side <= 2, loads none of it.

Where the 1e-12 tolerance makes this differ from running `_canonical_match`
on the whole matrix with every value from the solver:

* Near-ties in several components at once do not add up. Each choice is
  measured against the optimum of what is still unassigned, never against
  the global optimum, so a 0.6e-12 near-tie in each of two components takes
  the smaller index in both, although the two together fall 1.2e-12 short.
  The whole-matrix routine does the same; an enumeration that compares
  complete assignments against the global total (``synth._oracle_residual``)
  can disagree on such input, and random boxes do not produce it.
* Float re-summation. The whole-matrix routine compares global totals in
  which every other component's IoUs appear on both sides. In real
  arithmetic they cancel; in floats they are summed in another order, and
  possibly from another of several tied optimal assignments, which moves
  the comparison by a few units in the last place of the total (about
  n * 2**-52 for n pairs of IoU <= 1). The enumeration returns the exact
  maximum of at most two summed IoUs, the same sum the solver path forms
  for the same pairs; the solver minimizes the costs 1 - IoU, whose
  rounding can make it return a tied assignment whose IoU total is a unit
  or two in the last place lower. Both effects are orders of magnitude
  below 1e-12, so a decision can differ only where a shortfall lies within
  that few-ulp band around 1e-12 itself, where the whole-matrix routine's
  own answer already depended on which tied assignment the solver returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from .datamodel import DetectionColumns, GtColumns, TrackColumns, distinct
from .geometry import iou_edges

FORBIDDEN = math.inf

_IOU_TIE_TOL = 1e-12


def hungarian(cost: Sequence[Sequence[float]]) -> dict[int, int]:
    """Min-cost max-cardinality assignment over allowed (finite-cost) pairs.

    Returns a partial row -> column map covering only allowed pairs.
    """
    # scipy is imported here, on first use, to keep it off the import path
    from scipy.optimize import linear_sum_assignment

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


def match_frame_greedy(iou_mat: np.ndarray, det_scores: Sequence[float],
                       iou_thr: float) -> list[tuple[int, int, float]]:
    """Greedy score-ordered matching for detection PR evaluation.

    One frame is given as its (detections, GT) IoU matrix, `iou_mat[d, g]`
    being the IoU of detection d with GT g (`iou_matrix` of their corners),
    plus the detections' scores. Detections are processed in descending
    score (ties by row order); each takes the unmatched GT of maximum IoU
    (ties by smallest GT column) if that IoU is > 0 and >= iou_thr. Pairs
    are (gt column, detection row, IoU) in processing order.
    """
    pairs: list[tuple[int, int, float]] = []
    if iou_mat.size:
        order = np.argsort(-np.asarray(det_scores, dtype=np.float64),
                           kind="stable")
        # An entry that cannot match never becomes a row's match, so it is
        # masked once up front; taken columns are masked as they go. The
        # caller's matrix is left as it is.
        iou_mat = np.where((iou_mat <= 0.0) | (iou_mat < iou_thr), -1.0,
                           iou_mat)
        for di in order.tolist():
            row = iou_mat[di]
            gi = int(row.argmax())
            best_iou = float(row[gi])
            if best_iou < 0.0:
                continue
            pairs.append((gi, di, best_iou))
            iou_mat[:, gi] = -1.0
    return pairs


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """One sequence's same-frame (GT row, box row) pairs with IoU >= the
    threshold it was built at: `gt`, `box` and `iou` hold one edge each,
    rows in input order, no two edges alike. `n_boxes` is the number of
    box rows the table covers."""

    gt: np.ndarray
    box: np.ndarray
    iou: np.ndarray
    n_boxes: int

    def take(self, rows: np.ndarray) -> EdgeTable:
        """The table of the boxes that the distinct box rows `rows` select,
        in its order: the edges of those rows, each box row renumbered as
        its position in `rows`."""
        position = np.full(self.n_boxes, -1)
        position[rows] = np.arange(len(rows))
        box = position[self.box]
        on = box >= 0
        return EdgeTable(self.gt[on], box[on], self.iou[on], len(rows))


def edge_table(gt: GtColumns, boxes: DetectionColumns | TrackColumns,
               iou_thr: float) -> EdgeTable:
    """The `EdgeTable` of GT x `boxes` at iou_thr. Each side is sorted by
    frame, and every frame that holds GT goes to one `geometry.iou_edges`
    call with the GT as its first side; it skips the frames without boxes."""
    g_order = np.argsort(gt.frame, kind="stable")
    b_order = np.argsort(boxes.frame, kind="stable")
    g_frame, b_frame = gt.frame[g_order], boxes.frame[b_order]
    frames = g_frame[np.diff(g_frame, prepend=g_frame[:1] - 1) != 0]
    g_lo, b_lo = (np.searchsorted(col, frames) for col in (g_frame, b_frame))
    n_g = np.searchsorted(g_frame, frames, "right") - g_lo
    n_b = np.searchsorted(b_frame, frames, "right") - b_lo
    g, b, iou = iou_edges(gt, g_order, g_lo, n_g, boxes, b_order, b_lo, n_b,
                          iou_thr)
    return EdgeTable(g_order[g], b_order[b], iou, len(boxes))


def split_conflicts(n_a: np.ndarray, n_b: np.ndarray, e_a: np.ndarray,
                    e_b: np.ndarray, e_iou: np.ndarray,
                    a_at: np.ndarray | None = None
                    ) -> tuple[np.ndarray, Iterator[tuple]]:
    """The conflict rule of the module docstring, over one sequence.

    Each side's rows are in frame order, frame k holding n_a[k] rows of
    side a and n_b[k] of side b after those of the frames before it; the
    frames cover every row of both sides. Edge i joins a row e_a[i] to b
    row e_b[i] at IoU e_iou[i]. `a_at` is the frame k of each a row,
    ``np.repeat(np.arange(len(n_a)), n_a)``, built here unless the caller
    has it. Returns the mask of the edges in
    conflict-free frames, and an iterator over the conflicted frames in
    frame order: (k, the frame's first a row, its first b row, its
    (n_a[k], n_b[k]) IoU matrix, filled from its edges and -1 elsewhere),
    each matrix built as it is reached."""
    a_lo, b_lo = np.cumsum(n_a) - n_a, np.cumsum(n_b) - n_b
    if a_at is None:
        a_at = np.repeat(np.arange(len(n_a)), n_a)
    conflicted = np.zeros(len(n_a), dtype=bool)
    conflicted[a_at[np.flatnonzero(np.bincount(e_a) > 1)]] = True
    # b_lo finds the frame of a b row; only rows with two edges need one
    twice = np.flatnonzero(np.bincount(e_b) > 1)
    conflicted[np.searchsorted(b_lo, twice, "right") - 1] = True
    hard = conflicted[a_at[e_a]]

    def matrices() -> Iterator[tuple]:
        # the edges of conflicted frames by a row, so by frame
        at = np.flatnonzero(hard)[np.argsort(e_a[hard], kind="stable")]
        frames = np.flatnonzero(conflicted)
        for k, edges in zip(frames.tolist(), np.split(
                at, np.searchsorted(e_a[at], a_lo[frames[1:]]))):
            a0, b0 = int(a_lo[k]), int(b_lo[k])
            iou = np.full((n_a[k], n_b[k]), -1.0)
            iou[e_a[edges] - a0, e_b[edges] - b0] = e_iou[edges]
            yield k, a0, b0, iou
    return ~hard, matrices()


def _residual_value(iou_mat: np.ndarray, iou_thr: float) -> tuple[int, float]:
    """(cardinality, total IoU) of the optimal residual matching.

    With at most two rows or two columns, by enumeration: the best single
    pair, or the best two disjoint pairs. Otherwise by `hungarian`.
    """
    if min(iou_mat.shape) > 2:
        cost = np.where(iou_mat >= iou_thr, 1.0 - iou_mat, FORBIDDEN)
        assign = hungarian(cost)
        return len(assign), float(sum(iou_mat[r, c] for r, c in assign.items()))
    if iou_mat.size == 0:
        return 0, 0.0
    # a pair below the threshold is worth -inf; at most two rows after this
    value = np.where(iou_mat >= iou_thr, iou_mat, -np.inf)
    if len(value) > 2:
        value = value.T
    if len(value) == 2:
        both = np.add.outer(value[0], value[1])
        np.fill_diagonal(both, -np.inf)
        best = float(both.max())
        if best > -np.inf:
            return 2, best
    best = float(value.max())
    return (1, best) if best > -np.inf else (0, 0.0)


def _canonical_match(iou_mat: np.ndarray, iou_thr: float) -> list[tuple[int, int]]:
    """Optimal residual matching, canonicalized per the documented tie-break,
    by one Hungarian solve per candidate pair: rows in ascending order each
    take the first column that keeps the optimum of what remains.
    `iou_mat` is one connected component of `_residual_match`'s edges, so
    both its sides are non-empty and its optimum holds a pair."""
    n, m = iou_mat.shape
    card, total = _residual_value(iou_mat, iou_thr)
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


def _residual_match(iou_mat: np.ndarray, iou_thr: float) -> list[tuple[int, int]]:
    """Optimal residual matching, canonicalized per the documented tie-break,
    one connected component at a time (see the module docstring).

    Edges are the pairs with IoU >= iou_thr. An isolated edge, one whose
    row and column hold no other edge, is a component of its own and is
    matched as it is. The other components, labeled by union-find over
    their edges, each go through `_canonical_match` on their sub-matrix.
    Pairs are (row, column), sorted by row.
    """
    rows, cols = np.nonzero(iou_mat >= iou_thr)
    n, m = iou_mat.shape
    alone = ((np.bincount(rows, minlength=n)[rows] == 1)
             & (np.bincount(cols, minlength=m)[cols] == 1))
    pairs = list(zip(rows[alone].tolist(), cols[alone].tolist()))
    if alone.all():
        return pairs
    rows, cols = rows[~alone], cols[~alone]
    # nodes: row i is i, column j is n + j
    parent = list(range(n + m))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for r, c in zip(rows.tolist(), cols.tolist()):
        parent[root(r)] = root(n + c)
    label = np.array([root(r) for r in rows.tolist()])
    for comp in distinct(label):
        in_comp = label == comp
        comp_rows, comp_cols = distinct(rows[in_comp]), distinct(cols[in_comp])
        matched = _canonical_match(iou_mat[np.ix_(comp_rows, comp_cols)], iou_thr)
        pairs.extend((int(comp_rows[a]), int(comp_cols[b])) for a, b in matched)
    pairs.sort()
    return pairs


def clear_correspond(prev: Mapping[Hashable, Hashable] | None,
                     gt_ids: Sequence[Hashable], hyp_ids: Sequence[Hashable],
                     iou_mat: np.ndarray,
                     iou_thr: float) -> list[tuple[Hashable, Hashable, float]]:
    """One step of CLEAR temporal correspondence on one frame.

    `gt_ids` and `hyp_ids` are the frame's ids in ascending order, and
    `iou_mat[i, j]` is the IoU of gt i with hypothesis j (`iou_matrix` of
    their boxes). `prev` maps gt id -> hyp id from the correspondence at
    the frame before.
    Rule 1: a previous pair persists if both boxes exist now and still overlap
    at >= iou_thr. Rule 2: leftovers are matched by optimal assignment
    maximizing total IoU subject to the threshold.
    Returns (gt id, hyp id, IoU) pairs: the persisted ones by ascending gt
    id, then the residual ones by ascending gt row.
    """
    used_gt = [False] * len(gt_ids)
    used_hyp = [False] * len(hyp_ids)
    pairs: list[tuple[Hashable, Hashable, float]] = []
    if prev:
        hyp_row = {h: j for j, h in enumerate(hyp_ids)}
        for i, g in enumerate(gt_ids):
            j = hyp_row.get(prev[g], -1) if g in prev else -1
            if j >= 0 and iou_mat[i, j] >= iou_thr:
                pairs.append((g, hyp_ids[j], float(iou_mat[i, j])))
                used_gt[i] = used_hyp[j] = True

    rest_gt = [i for i, used in enumerate(used_gt) if not used]
    rest_hyp = [j for j, used in enumerate(used_hyp) if not used]
    if rest_gt and rest_hyp:
        rest = iou_mat[np.ix_(rest_gt, rest_hyp)]
        for a, b in _residual_match(rest, iou_thr):
            i, j = rest_gt[a], rest_hyp[b]
            pairs.append((gt_ids[i], hyp_ids[j], float(rest[a, b])))
    return pairs
