"""The builtin tracker's greedy IoU linker as a per-frame loop: one
`iou_matrix` call per frame, between the active tracks' last boxes and the
frame's detections. It is the reference that the link-table linker
(`trackers.link_table` and `LinkTable.tracks`) is tested against.

Run as a script, it is an external tracker for `cmd:` specs:

    python reference_linker.py DETECTIONS.csv TRACKS.csv [MAX_GAP]

reads a detection CSV, links it with link_thr 0.5, the given max_gap
(default 1) and min_track_len 1, and writes a track CSV.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from detraceval.datamodel import (DetectionColumns, TrackColumns,
                                  read_detections, write_tracks)
from detraceval.geometry import iou_matrix
from frame_walk import frame_slices


def frame_loop_greedy_iou_track(dets: DetectionColumns, link_thr: float = 0.5,
                                max_gap: int = 1,
                                min_track_len: int = 1) -> TrackColumns:
    """Frame-by-frame greedy IoU linking.

    Each frame's detections are linked to active tracks in descending IoU to
    the track's last box (ties by track age, then input order); links below
    link_thr are rejected, leftovers start new tracks, and a track idle for
    more than max_gap frames is closed. Tracks shorter than min_track_len
    are suppressed from the output. Deterministic given input order.
    Returns the linked detections as rows sorted by (track_id, frame), the
    layout of `read_tracks`.
    """
    # Frame order, input order within a frame; a frame is a slice of rows.
    order = np.argsort(dets.frame, kind="stable")
    frame, corners = dets.frame[order], dets.corners()[order]
    track = np.empty(len(order), dtype=np.int64)  # track id of each row
    # active: track id -> (last frame, row of its last box)
    active: dict[int, tuple[int, int]] = {}
    next_id = 1
    for f, lo, hi in frame_slices(np.unique(frame), frame):
        active = {tid: state for tid, state in active.items()
                  if f - state[0] <= max_gap + 1}
        live = list(active)
        used_tracks: set[int] = set()
        used_dets: set[int] = set()
        if live:
            iou_mat = iou_matrix(corners[[active[tid][1] for tid in live]],
                                 corners[lo:hi])
            ti, di = np.nonzero(iou_mat >= link_thr)
            # candidates in (-iou, track index, det index) order
            ranked = np.lexsort((di, ti, -iou_mat[ti, di]))
            for t, k in zip(ti[ranked].tolist(), di[ranked].tolist()):
                if t in used_tracks or k in used_dets:
                    continue
                used_tracks.add(t)
                used_dets.add(k)
                track[lo + k] = live[t]
                active[live[t]] = (f, lo + k)
        for k in range(hi - lo):
            if k not in used_dets:
                track[lo + k] = next_id
                active[next_id] = (f, lo + k)
                next_id += 1
    rows = np.argsort(track, kind="stable")
    rows = rows[np.bincount(track, minlength=next_id)[track[rows]] >= min_track_len]
    keep = order[rows]
    return TrackColumns(dets.left[keep], dets.top[keep], dets.width[keep],
                        dets.height[keep], frame=dets.frame[keep],
                        track_id=track[rows])


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        detections = read_detections(fh)
    max_gap = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    with open(sys.argv[2], "w") as fh:
        write_tracks(frame_loop_greedy_iou_track(detections, max_gap=max_gap),
                     fh)
