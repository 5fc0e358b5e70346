"""CLEAR MOT evaluation: MOTA, MOTP, MT, ML, IDS, FM, FP, FN.

Conventions (documented once, used by the oracle too):

* MOTA = 100 * (1 - (FN + FP + IDS) / GT), counts summed over frames (and
  over sequences before the ratio when aggregating). Can be negative.
  One fold (`Totals`) sums a sequence's stats into a running total, in
  sequence order: `evaluate_clear`'s bundle is one sequence's total,
  `aggregate`'s the fold over every sequence, and the sweep keeps one
  running total per threshold as it runs sequence by sequence.
* MOTP = 100 * (sum of matched IoU) / (number of matches); higher is better.
* Correspondence (`matching.clear_correspond`): a pair matched at frame
  f - 1 persists at frame f while it still overlaps at >= the threshold;
  the rest is matched by the residual rule. Only a match at frame f - 1
  persists: a frame with no box at all ends every correspondence, as a
  frame whose boxes all go unmatched does.
* An identity switch compares a GT's matched hypothesis id against its most
  recent prior match, so a gap followed by the same id is not a switch.
* A fragmentation is any matched -> unmatched -> matched transition over a
  GT track's annotated frames; each interruption counts once.
* MT: matched in strictly more than 80% of annotated frames; ML: strictly
  fewer than 20%. Coverage is identity-agnostic.
* An unmatched hypothesis box inside ignore regions (covered > 0.5,
  `geometry.covered`) is dropped rather than counted as a false positive.
  GT inside ignore regions still counts, as FN when missed and toward
  MT/ML; the detection layer drops such GT instead. `evaluate_clear`
  computes the hypotheses' coverage unless the caller passes it: the
  sweep passes, for the builtin tracker, the track rows' part of the
  detections' coverage that labeling took once per sequence, since a
  builtin track row is a detection row with its box and frame unchanged.

Algorithm. Each side is sorted by (frame, id); a scored frame (one with a
GT or a hypothesis box) is a slice of rows on each side.

1. The edge table (`matching.edge_table`): every same-frame (GT row,
   hypothesis row, IoU) with IoU >= the threshold. `geometry.iou_edges`
   computes it: the frames, ordered by width, go in chunks of at most
   `datamodel.EDGE_CHUNK_PAIRS` padded pairs, one `iou_broadcast` call per
   chunk with the GT side first. `evaluate_clear` builds it from the GT
   and the tracks (`eval-mot`, `cmd:` trackers) unless the caller passes
   one. The sweep passes, for the builtin tracker, the track rows' part of
   the sequence's GT x detection table (`EdgeTable.take`): a builtin track
   row is a detection row with its box unchanged, so its IoUs are that
   detection's.
2. Conflicts, by `matching.split_conflicts` (the rule is stated once in
   the `matching` docstring) over every edge of the table. A
   conflict-free frame matches exactly its edges. The conflicted frames
   go through `matching.clear_correspond` in frame order, each given its
   (n, m) IoU matrix, filled from its edges and with -1 (below any
   threshold) elsewhere, and the pairs matched at the frame before.
3. Counts, from the matched pairs in array passes. FN and FP per frame
   from the pair counts; IDS, FM, MT and ML over the GT rows ordered by
   (id, frame); each frame's IoU sum adds its pairs in the order
   `clear_correspond` returns them, one pass per pair rank.

Memory. The table lives while `_correspond` runs: 24 bytes an edge (two
row numbers and an IoU), plus the chunk being computed while it is built,
and `_correspond`'s per-edge arrays. At the default threshold a sequence
has about one edge per GT box. At threshold 0 every same-frame pair is an
edge, so the table holds the sum over frames of GT boxes x hypothesis
boxes and is no longer bounded by the chunk size: a sequence of 5000
frames of 20 GT and 20 hypothesis boxes has 2M edges, 48 MB of table,
and `eval-mot` on it peaks about 120 MB higher than with a per-chunk
table.

Why this equals running `clear_correspond` on every frame in order:

* `iou_broadcast` is elementwise and symmetric bit for bit (`min`, `max`
  and `+` commute in IEEE arithmetic), so every IoU is bit for bit the one
  a per-frame `iou_matrix` of the GT and hypothesis boxes gives, whichever
  table it was read from.
* `clear_correspond` reads an IoU only where it is >= the threshold, in
  persistence and in the residual alike, so the -1 of a non-edge changes
  nothing.
* A conflict-free frame: a persisted pair is an edge. An edge that does
  not persist has both rows free, because each row has one edge only, so
  it is in the residual; and a residual whose rows and columns have at
  most one edge each is matched by its edges (`_residual_match`'s first
  branch). So the frame's match is its edges, whatever the frame before
  held.
* A conflicted frame gets the same input as in a frame-by-frame walk: its
  IoU matrix and the pairs matched at the frame before, whichever path
  (a conflict-free frame, an earlier conflicted frame) found them.
* A pair (g, h) matched at frame f is one that `clear_correspond`
  persisted exactly when (g, h) was matched at f - 1: it is then carried
  and is an edge, and a persisted pair was matched at f - 1. Persisted
  pairs come first by gt id, then residual pairs by gt row, and within a
  frame gt rows ascend with gt id; each frame's IoU sum starts from the
  int 0 and adds its pairs left to right in that order, as Python's `sum`
  does, so a frame without a match keeps the int 0.
* At threshold 0 every same-frame pair is an edge, so every frame with two
  boxes on one side is conflicted and runs `clear_correspond`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .datamodel import (GtColumns, Rows, TrackColumns, ValidationError,
                        check_frame_count, distinct, ordered_sum, positions)
from .det_metrics import DEFAULT_IOU_THR
from .geometry import covered
from .matching import (EdgeTable, clear_correspond, edge_table,
                       split_conflicts)

MT_COVERAGE = 0.8
ML_COVERAGE = 0.2


@dataclass(frozen=True)
class SequenceStats:
    """Everything needed to re-derive a MetricBundle or aggregate sequences.

    `frame_counts` holds one row per scored frame (a frame with a GT or a
    hypothesis box), in frame order, with the columns frame, gt, matches,
    fn, fp, ids and iou_sum. `evaluate_clear` gives the six counts as
    int64 arrays and iou_sum as a list: the int 0 at a frame without a
    match, the float sum of the matched IoUs otherwise.
    """

    sequence_id: str
    frame_counts: Rows
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


@dataclass(frozen=True)
class Totals:
    """CLEAR counts summed over sequences: the running state that
    `aggregate`, `evaluate_clear` and the sweep fold each sequence's stats
    into (`add`), in sequence order. MOTP's IoU total goes on as one left
    fold across sequences, frame by frame (`ordered_sum` from the total so
    far), so it is the float a fold over every frame of every sequence
    gives, on every interpreter, and the int 0 while no frame matched.
    Every count is a Python int, whether a stats column is an int64 array
    or a list."""

    gt: int = 0
    matches: int = 0
    fn: int = 0
    fp: int = 0
    ids: int = 0
    iou_sum: float = 0
    fm: int = 0
    mt: int = 0
    ml: int = 0
    n_tracks: int = 0

    def add(self, stats: SequenceStats) -> Totals:
        counts = stats.frame_counts
        return Totals(*(getattr(self, k) + int(np.sum(counts[k]))
                        for k in ("gt", "matches", "fn", "fp", "ids")),
                      ordered_sum(counts["iou_sum"], self.iou_sum),
                      self.fm + stats.fm, self.mt + stats.mt,
                      self.ml + stats.ml, self.n_tracks + stats.n_tracks)

    def bundle(self) -> MetricBundle:
        errors = self.fn + self.fp + self.ids
        mota = (100.0 * (1.0 - errors / self.gt) if self.gt > 0
                else 100.0 if errors == 0 else 0.0)
        return MetricBundle(
            mota=mota, motp=_percent(self.iou_sum, self.matches),
            mt=self.mt, ml=self.ml, mt_pct=_percent(self.mt, self.n_tracks),
            ml_pct=_percent(self.ml, self.n_tracks),
            ids=self.ids, fm=self.fm, fp=self.fp, fn=self.fn)


def _percent(part, whole) -> float:
    return 100.0 * part / whole if whole else 0.0


def _correspond(frames: np.ndarray, gt: GtColumns, g_order: np.ndarray,
                n_g: np.ndarray, g_at: np.ndarray, tracks: TrackColumns,
                h_order: np.ndarray, n_h: np.ndarray, edges: EdgeTable,
                iou_thr: float) -> tuple[np.ndarray, np.ndarray]:
    """CLEAR's correspondence over a sequence from its edge table (see the
    module docstring). Rows are positions in the sorted orders `g_order`
    and `h_order`; scored frame k, numbered frames[k], holds the next
    n_g[k] GT rows and n_h[k] hypothesis rows after those of the frames
    before it, and g_at[i] is the frame k of GT row i. Returns (match,
    match_iou): the hypothesis row matched to each GT row (-1 if none) and
    their IoU. The table and the arrays made from it live only while this
    runs."""
    g_ids, h_ids = gt.target_id[g_order], tracks.track_id[h_order]
    e_g, e_h = positions(g_order, edges.gt), positions(h_order, edges.box)
    free, conflicts = split_conflicts(n_g, n_h, e_g, e_h, edges.iou, g_at)
    match = np.full(len(g_ids), -1)
    match_iou = np.zeros(len(g_ids))
    match[e_g[free]] = e_h[free]
    match_iou[e_g[free]] = edges.iou[free]
    # Conflicted frames in frame order; the frame before is settled: a
    # conflict-free frame above, or an earlier pass of this loop.
    for f, g0, h0, iou in conflicts:
        prev: dict[int, int] = {}
        if f and frames[f - 1] == frames[f] - 1:
            rows = np.arange(g0 - n_g[f - 1], g0)
            rows = rows[match[rows] >= 0]
            prev = dict(zip(g_ids[rows].tolist(), h_ids[match[rows]].tolist()))
        gts = g_ids[g0:g0 + n_g[f]].tolist()
        hyps = h_ids[h0:h0 + n_h[f]].tolist()
        g_row = {g: g0 + a for a, g in enumerate(gts)}
        h_row = {h: h0 + b for b, h in enumerate(hyps)}
        for g, h, v in clear_correspond(prev, gts, hyps, iou, iou_thr):
            match[g_row[g]], match_iou[g_row[g]] = h_row[h], v
    return match, match_iou


def evaluate_clear(gt: GtColumns, tracks: TrackColumns,
                   iou_thr: float = DEFAULT_IOU_THR,
                   edges: EdgeTable | None = None,
                   inside: np.ndarray | None = None
                   ) -> tuple[MetricBundle, SequenceStats]:
    """CLEAR MOT of one sequence from its GT and hypothesis columns
    (`read_ground_truth` / `read_tracks`, or `GroundTruth.columns` and
    the `TrackColumns` a tracker returns), by the edge-table algorithm of
    the module docstring. `edges` is the GT x `tracks` table at iou_thr
    (`matching.edge_table`) and `inside` the mask of the track rows inside
    ignore regions (`covered(tracks, gt.ignore)`) when the caller has
    them, as the sweep has for the builtin tracker; each is computed here
    otherwise."""
    check_frame_count(gt, tracks, "output tracks")

    # Each side sorted once by (frame, id); a frame is a slice of the rows.
    g_order = np.lexsort((gt.target_id, gt.frame))
    h_order = np.lexsort((tracks.track_id, tracks.frame))
    g_frame, h_frame = gt.frame[g_order], tracks.frame[h_order]
    frames = distinct(np.concatenate((g_frame, h_frame)))
    n_g, n_h = (np.diff(np.searchsorted(col, frames, "right"), prepend=0)
                for col in (g_frame, h_frame))
    n_frames = len(frames)
    g_at = np.repeat(np.arange(n_frames), n_g)   # frame index of each row
    match, match_iou = _correspond(
        frames, gt, g_order, n_g, g_at, tracks, h_order, n_h,
        edge_table(gt, tracks, iou_thr) if edges is None else edges, iou_thr)

    hit = match >= 0
    n_matches = np.bincount(g_at[hit], minlength=n_frames)
    taken = np.zeros(len(tracks), dtype=bool)
    taken[match[hit]] = True
    if inside is None:
        inside = covered(tracks, gt.ignore)
    dropped = inside[h_order] & ~taken
    n_fp = n_h - n_matches - np.bincount(
        np.repeat(np.arange(n_frames), n_h)[dropped], minlength=n_frames)

    # GT rows by (id, frame): a stable sort by id keeps the frame order
    by_id = np.argsort(gt.target_id[g_order], kind="stable")
    tid, on = gt.target_id[g_order[by_id]], hit[by_id]
    hid = np.zeros(len(tid), dtype=tracks.track_id.dtype)
    hid[on] = tracks.track_id[h_order[match[by_id[on]]]]
    new_track = np.ones(len(tid), dtype=bool)
    new_track[1:] = tid[1:] != tid[:-1]
    same = ~new_track[1:]
    # IDS: the matched hyp id changes between a GT's successive matches
    rows = np.flatnonzero(on)
    switch = ((tid[rows[1:]] == tid[rows[:-1]])
              & (hid[rows[1:]] != hid[rows[:-1]]))
    n_ids = np.bincount(g_at[by_id[rows[1:][switch]]], minlength=n_frames)
    # persisted: the same pair was matched at the frame before
    persisted = np.zeros(len(tid), dtype=bool)
    persisted[by_id[1:]] = (same & on[1:] & on[:-1] & (hid[1:] == hid[:-1])
                            & (g_frame[by_id[1:]] == g_frame[by_id[:-1]] + 1))
    # FM: unmatched -> matched steps within a track, but not the first match
    track = np.cumsum(new_track) - 1
    n_tracks = int(new_track.sum())
    matched_entries = np.bincount(track[on], minlength=n_tracks)
    coverage = matched_entries / np.bincount(track, minlength=n_tracks)
    fm = (np.count_nonzero(same & on[1:] & ~on[:-1])
          - np.count_nonzero(~on[new_track] & (matched_entries > 0)))

    # Each frame's IoU sum in clear_correspond's pair order, persisted pairs
    # then residual pairs, each by gt row: one pass per pair rank adds the
    # rank's pair of every frame that has one.
    hit_rows = np.flatnonzero(hit)
    ranked = hit_rows[np.argsort(2 * g_at[hit_rows] + ~persisted[hit_rows],
                                 kind="stable")]
    first = np.cumsum(n_matches) - n_matches
    iou_sums = np.zeros(n_frames)
    for rank in range(int(n_matches.max()) if n_frames else 0):
        at = np.flatnonzero(n_matches > rank)
        iou_sums[at] += match_iou[ranked[first[at] + rank]]

    stats = SequenceStats(
        sequence_id=gt.sequence_id,
        frame_counts=Rows({
            "frame": frames, "gt": n_g, "matches": n_matches,
            "fn": n_g - n_matches, "fp": n_fp, "ids": n_ids,
            "iou_sum": [v if m else 0 for v, m in zip(iou_sums.tolist(),
                                                       n_matches.tolist())]}),
        fm=int(fm), mt=int(np.count_nonzero(coverage > MT_COVERAGE)),
        ml=int(np.count_nonzero(coverage < ML_COVERAGE)), n_tracks=n_tracks,
    )
    return Totals().add(stats).bundle(), stats


def aggregate(stats: Sequence[SequenceStats]) -> MetricBundle:
    """Benchmark-level bundle: counts summed across sequences before ratios
    (`Totals`)."""
    if not stats:
        raise ValidationError("aggregate requires at least one sequence")
    return reduce(Totals.add, stats, Totals()).bundle()
