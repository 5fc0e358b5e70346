"""Detection labeling as a per-frame loop: one greedy matching per frame
that holds a detection and a pooled GT box, over the `iou_matrix` of the
frame's boxes. It is the reference that the edge-table labeling
(`det_metrics._label_detections`) is tested against.
"""

from __future__ import annotations

import numpy as np

from detraceval.datamodel import DetectionColumns, GtColumns, check_frame_count
from detraceval.det_metrics import Labels
from detraceval.geometry import covered, iou_matrix
from detraceval.matching import match_frame_greedy
from frame_walk import frame_slices


def frame_loop_label_detections(g: GtColumns, d: DetectionColumns,
                                iou_thr: float) -> Labels:
    """Run one greedy pass per frame over a sequence."""
    check_frame_count(g, d, "detections")
    g_corners = g.corners()
    pooled = ~covered(g, g.ignore)
    # The pool of each frame in row order, the detections in frame order.
    pool = np.flatnonzero(pooled)
    pool = pool[np.argsort(g.frame[pool], kind="stable")]
    order = np.argsort(d.frame, kind="stable")
    frame, score = d.frame[order], d.score[order]
    d_corners = d.corners()[order]
    matched = np.full(len(order), -1, dtype=np.int64)
    for _, d_lo, d_hi, g_lo, g_hi in frame_slices(np.unique(frame), frame,
                                                  g.frame[pool]):
        if g_lo == g_hi:
            continue
        pairs = match_frame_greedy(
            iou_matrix(d_corners[d_lo:d_hi], g_corners[pool[g_lo:g_hi]]),
            score[d_lo:d_hi], iou_thr)
        if pairs:
            gi, di, _ = zip(*pairs)
            matched[d_lo + np.array(di)] = pool[g_lo + np.array(gi)]
    ignored = np.zeros(len(order), dtype=bool)
    left = np.flatnonzero(matched < 0)
    ignored[left] = covered(d.take(order[left]), g.ignore)
    return Labels(score, matched, ignored, pooled, covered(d, g.ignore))
