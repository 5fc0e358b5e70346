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
  MT/ML; the detection layer drops such GT instead. CLEAR computes the
  hypotheses' coverage unless the caller passes it: the sweep passes, for
  the builtin tracker, the track rows' part of the detections' coverage
  that labeling took once per sequence, since a builtin track row is a
  detection row with its box and frame unchanged.

Algorithm. `evaluate_clear_runs` scores several runs over one sequence
(the sweep's tracks at every threshold) in one pass, and `evaluate_clear`
is its one-run case. The runs are stacked, each with its own copy of the
GT rows. A scored frame is a run and a frame number at which that run or
the GT has a box. Its key is run * W + the rank of its number among the
W distinct frame numbers of the GT and every run, so keys order frames by
run, then by frame number, and stay below runs * W: no frame number is
shifted, so none can overflow. Each side is sorted by (run, frame, id),
and a scored frame is a slice of rows on each side.

1. The edge table (`matching.edge_table`) of each run: every same-frame
   (GT row, hypothesis row, IoU) with IoU >= the threshold.
   `geometry.iou_edges` computes it: the frames, ordered by width, go in
   chunks of at most `datamodel.EDGE_CHUNK_PAIRS` padded pairs, and each
   chunk makes one row-aligned `iou_broadcast` call, with the GT side
   first, on its candidate pairs: at a threshold above 0 the same-frame
   pairs whose boxes overlap strictly on both axes, at 0 every same-frame
   pair. The pairs left out have IoU exactly 0. CLEAR builds it
   from the GT and the tracks (`eval-mot`, `cmd:` trackers) unless the
   caller passes one. The sweep passes, for the builtin tracker, the
   track rows' part of the sequence's GT x detection table
   (`EdgeTable.take`): a builtin track row is a detection row with its
   box unchanged, so its IoUs are that detection's. The runs' tables are
   stacked, each GT row taken to its run's copy.
2. Correspondence (`_correspond`). `matching.split_conflicts` (the rule is
   stated once in the `matching` docstring) splits every edge: a
   conflict-free frame matches exactly its edges. A conflicted frame's
   *level* is its place, from 0, in a chain of conflicted frames of one
   run with consecutive frame numbers (`_levels`). The levels go in order,
   each in one array pass over its frames' edges:
   a. an edge persists when the same target's row at the frame number
      before was matched to a hypothesis with this edge's track id; it is
      matched, and every other edge of its two rows is dropped;
   b. the remaining edges go through `split_conflicts`: a frame where
      no row holds two of them matches exactly them;
   c. a frame that still conflicts goes to
      `matching.clear_correspond(None, ...)`, the one residual rule, with
      its (n, m) IoU matrix filled from the remaining edges and -1 (below
      any threshold) elsewhere, and its rows standing in for its ids.
3. Counts, from the matched pairs in array passes. FN and FP per frame
   from the pair counts; IDS, FM, MT and ML over the GT rows ordered by
   (run, id, frame), each run's copy of a target being a track of its
   own; each frame's IoU sum adds its pairs in the order
   `clear_correspond` returns them, by one `np.add.at` over the pairs
   ranked in that order. A run's stats are its slice of the frames and
   its tracks' FM, MT and ML.

Memory. The stacked tables live while `_correspond` runs: 24 bytes an
edge (two row numbers and an IoU), plus the chunk being computed while a
table is built, and `_correspond`'s per-edge arrays. At the default
threshold a run has about one edge per GT box, so a sweep's stacked
tables hold about one edge per GT box and threshold. At threshold 0 every
same-frame pair is an edge, so a table holds the sum over frames of GT
boxes x hypothesis boxes and is no longer bounded by the chunk size: a
sequence of 5000 frames of 20 GT and 20 hypothesis boxes has 2M edges,
48 MB of table, and `eval-mot` on it peaks about 120 MB higher than with
a per-chunk table. The sweep's stack then holds every threshold's such
table at once.

Why this equals running `clear_correspond` on every frame of every run in
order, each run alone:

* `iou_broadcast` is elementwise and symmetric bit for bit (`min`, `max`
  and `+` commute in IEEE arithmetic), so every IoU is bit for bit the one
  a per-frame `iou_matrix` of the GT and hypothesis boxes gives, whichever
  table it was read from.
* The runs stay apart. An edge joins a run's hypothesis row to a row of
  the run's own GT copy; a row's frame before is a row of the same run
  (`before`), and a level runs on within one run. The keys order each
  run's frames by frame number in one slice, the frames the run alone
  would score, and a target's rows in a run form a track of their own.
* `clear_correspond` reads an IoU only where it is >= the threshold, in
  persistence and in the residual alike, so the -1 of a non-edge changes
  nothing.
* A conflict-free frame: a persisted pair is an edge. An edge that does
  not persist has both rows free, because each row has one edge only, so
  it is in the residual, where it is isolated and so matched as it is
  (`_residual_match`). So the frame's match is its edges, whatever the
  frame before held.
* Levels. A frame at level 0 follows a conflict-free frame, or has no
  scored frame at the frame number before in its run and so nothing to
  persist; a frame at level L > 0 follows one at level L - 1. So when a
  level's pass runs, the frame before each of its frames is settled, with
  the pairs a frame walk has found there.
* Persistence. `clear_correspond` persists the pair (g, prev[g]) when
  that hypothesis is in the frame and the pair's IoU is >= the threshold,
  that is when it is an edge; prev holds the pairs matched at the frame
  number before, by id. Track ids are distinct within a frame, so the
  edge to the remembered id is the one, and the persisted pairs form a
  matching, as the pairs they come from do.
* The residual. `clear_correspond` matches the rows and columns that did
  not persist, by `_residual_match`, which reads edges only. With every
  edge of a persisted row dropped, those rows are in no component of the
  frame's matrix, so the residual of the whole matrix holds the same
  pairs. Where no row holds two of the remaining edges, each is isolated
  and matched as it is, as in step 2b. Called with no pairs to persist,
  `clear_correspond` uses the ids only to name its pairs, and a frame's
  rows ascend as its ids do.
* A pair (g, h) matched at frame f is one that `clear_correspond`
  persisted exactly when (g, h) was matched at f - 1: it is then carried
  and is an edge, and a persisted pair was matched at f - 1. Persisted
  pairs come first by gt id, then residual pairs by gt row, and within a
  frame gt rows ascend with gt id; each frame's IoU sum starts from the
  int 0 and adds its pairs left to right in that order, as Python's `sum`
  does, so a frame without a match keeps the int 0.
* At threshold 0 every same-frame pair is an edge, so every frame with two
  boxes on one side is conflicted; after persistence, only the frames
  whose remaining edges still conflict run `clear_correspond`.
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


# One run of CLEAR over a sequence: the hypothesis columns, with the GT x
# hypothesis edge table at the threshold (`matching.edge_table`) and the mask
# of the hypothesis rows inside ignore regions where the caller has them.
Run = tuple[TrackColumns, EdgeTable | None, np.ndarray | None]


def _levels(k: np.ndarray, run: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The level of each conflicted frame, the ascending frame indices k:
    its place, from 0, in a chain of conflicted frames of one run with
    consecutive frame numbers."""
    chained = np.zeros(len(k), dtype=bool)
    chained[1:] = ((run[k[1:]] == run[k[:-1]])
                   & (frame[k[1:]] - 1 == frame[k[:-1]]))
    starts = np.flatnonzero(~chained)
    return np.arange(len(k)) - starts[np.cumsum(~chained) - 1]


def _correspond(run: np.ndarray, frame: np.ndarray, n_g: np.ndarray,
                n_h: np.ndarray, g_at: np.ndarray, before: np.ndarray,
                h_ids: np.ndarray, e_g: np.ndarray, e_h: np.ndarray,
                e_iou: np.ndarray, iou_thr: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """CLEAR's correspondence over a sequence's stacked runs (see the
    module docstring). Scored frame k, number frame[k] of run run[k], holds
    the next n_g[k] GT rows and n_h[k] hypothesis rows after those of the
    frames before it; g_at[i] is the frame k of GT row i and before[i] the
    row of the same run and target at frame number frame[k] - 1 (-1 if
    none); h_ids[j] is the track id of hypothesis row j. Edge i joins GT
    row e_g[i] to hypothesis row e_h[i] at IoU e_iou[i]. Returns (match,
    match_iou): the hypothesis row matched to each GT row (-1 if none) and
    their IoU."""
    free, _ = split_conflicts(n_g, n_h, e_g, e_h, e_iou, g_at)
    match = np.full(len(g_at), -1)
    match_iou = np.zeros(len(g_at))
    match[e_g[free]] = e_h[free]
    match_iou[e_g[free]] = e_iou[free]
    # A conflicted frame's frame before is settled once the levels below
    # its own are, so each level is one pass.
    hard = np.flatnonzero(~free)
    k = distinct(g_at[e_g[hard]])
    level = np.zeros(len(n_g), dtype=np.int64)
    level[k] = _levels(k, run, frame)
    e_level = level[g_at[e_g[hard]]]
    order = np.argsort(e_level, kind="stable")
    hard, e_level = hard[order], e_level[order]
    g_lo, h_lo = np.cumsum(n_g) - n_g, np.cumsum(n_h) - n_h
    held_g = np.zeros(len(g_at), dtype=bool)
    held_h = np.zeros(len(h_ids), dtype=bool)
    n_levels = int(e_level[-1]) + 1 if len(hard) else 0
    for edges in np.split(hard, np.searchsorted(e_level,
                                                np.arange(1, n_levels))):
        g, h, iou = e_g[edges], e_h[edges], e_iou[edges]
        # Persistence: the target's row at the frame before was matched to
        # a hypothesis with this edge's track id.
        prior = before[g]
        prior = np.where(prior >= 0, match[prior], -1)
        kept = prior >= 0
        kept[kept] = h_ids[prior[kept]] == h_ids[h[kept]]
        match[g[kept]], match_iou[g[kept]] = h[kept], iou[kept]
        held_g[g[kept]] = held_h[h[kept]] = True
        rest = ~(held_g[g] | held_h[h])
        if not rest.any():
            continue
        g, h, iou = g[rest], h[rest], iou[rest]
        # The residual edges, the level's frames renumbered from row 0
        at = g_at[g]
        frames = distinct(at)
        place = np.searchsorted(frames, at)
        a_n, b_n = n_g[frames], n_h[frames]
        loose, conflicts = split_conflicts(
            a_n, b_n, g - g_lo[at] + (np.cumsum(a_n) - a_n)[place],
            h - h_lo[at] + (np.cumsum(b_n) - b_n)[place], iou)
        match[g[loose]], match_iou[g[loose]] = h[loose], iou[loose]
        for i, _, _, iou_mat in conflicts:
            # the frame's rows stand in for its ids, in the same order
            pairs = clear_correspond(None, range(len(iou_mat)),
                                     range(iou_mat.shape[1]), iou_mat, iou_thr)
            if pairs:
                a, b, v = map(np.array, zip(*pairs))
                f = frames[i]
                match[g_lo[f] + a], match_iou[g_lo[f] + a] = h_lo[f] + b, v
    return match, match_iou


def evaluate_clear_runs(gt: GtColumns, runs: Sequence[Run],
                        iou_thr: float = DEFAULT_IOU_THR
                        ) -> list[SequenceStats]:
    """CLEAR MOT of several runs over one sequence, in one pass: one
    `SequenceStats` per (tracks, edges, inside) run, each what the run
    scored alone gives (`evaluate_clear`). `edges` is the GT x `tracks`
    table at iou_thr (`matching.edge_table`) and `inside` the mask of the
    track rows inside ignore regions (`covered(tracks, gt.ignore)`) when
    the caller has them, as the sweep has for the builtin tracker; each is
    computed here for a run that gives None. The runs are stacked, each
    with its own copy of the GT rows, and kept apart as the module
    docstring says."""
    for tracks, _, _ in runs:
        check_frame_count(gt, tracks, "output tracks")
    n, n_runs = len(gt), len(runs)
    if not n_runs:
        return []
    runs_at = np.arange(n_runs)
    # Each side sorted by (run, frame, id); a frame is a slice of the rows.
    # The GT is sorted once and repeated, run after run.
    g_order = np.lexsort((gt.target_id, gt.frame))
    g_frame = gt.frame[g_order]
    h_len = [len(tracks) for tracks, _, _ in runs]
    h_start = np.cumsum(h_len) - h_len
    orders = [np.lexsort((tracks.track_id, tracks.frame))
              for tracks, _, _ in runs]
    h_order = np.concatenate([order + start for order, start
                              in zip(orders, h_start.tolist())])
    h_frame, h_ids = (np.concatenate([getattr(tracks, name)[order] for
                                      (tracks, _, _), order in zip(runs, orders)])
                      for name in ("frame", "track_id"))
    h_run = np.repeat(runs_at, h_len)
    # A frame's key is run * width + the rank of its number among the
    # width frame numbers met, so keys stay below n_runs * width.
    # The hypothesis rows come in groups of one run and frame; each group's
    # first row stands for the group.
    heads = np.ones(len(h_frame), dtype=bool)
    heads[1:] = (h_frame[1:] != h_frame[:-1]) | (h_run[1:] != h_run[:-1])
    heads = np.flatnonzero(heads)
    numbers = distinct(np.concatenate((g_frame, h_frame[heads])))
    width = len(numbers)
    g_rank = np.searchsorted(numbers, g_frame)
    h_key = np.repeat(np.searchsorted(numbers, h_frame[heads])
                      + width * h_run[heads],
                      np.diff(heads, append=len(h_frame)))
    scored = np.zeros((n_runs, width), dtype=bool)
    scored[:, g_rank] = True
    scored.ravel()[h_key] = True
    keys = np.flatnonzero(scored)
    run, rank = np.divmod(keys, width)
    frame = numbers[rank]
    n_g = np.bincount(g_rank, minlength=width)[rank]
    n_h = np.bincount(h_key, minlength=n_runs * width)[keys]
    n_frames = len(keys)
    g_at = np.repeat(np.arange(n_frames), n_g)   # frame index of each row

    # GT rows by (run, id, frame): a stable sort by id keeps the frame order
    one_by_id = np.argsort(gt.target_id[g_order], kind="stable")
    tid = gt.target_id[g_order[one_by_id]]
    one_new = np.ones(n, dtype=bool)
    one_new[1:] = tid[1:] != tid[:-1]
    step = ~one_new[1:] & (g_frame[one_by_id[1:]] - 1 == g_frame[one_by_id[:-1]])
    before = np.full(n, -1)
    before[one_by_id[1:][step]] = one_by_id[:-1][step]
    offset = n * runs_at[:, None]
    before = np.where(before >= 0, before + offset, -1).ravel()
    by_id = (one_by_id + offset).ravel()
    new_track = np.tile(one_new, n_runs)
    same = ~new_track[1:]

    tables = [edge_table(gt, tracks, iou_thr) if edges is None else edges
              for tracks, edges, _ in runs]
    e_g = (positions(g_order, np.concatenate([t.gt for t in tables]))
           + np.repeat(n * runs_at, [len(t.gt) for t in tables]))
    e_h = positions(h_order, np.concatenate(
        [t.box + start for t, start in zip(tables, h_start.tolist())]))
    e_iou = np.concatenate([t.iou for t in tables])
    del tables
    match, match_iou = _correspond(run, frame, n_g, n_h, g_at, before, h_ids,
                                   e_g, e_h, e_iou, iou_thr)
    del e_g, e_h, e_iou

    hit = match >= 0
    n_matches = np.bincount(g_at[hit], minlength=n_frames)
    taken = np.zeros(len(h_ids), dtype=bool)
    taken[match[hit]] = True
    inside = np.concatenate([covered(tracks, gt.ignore) if inside is None
                             else inside for tracks, _, inside in runs])
    dropped = inside[h_order] & ~taken
    n_fp = n_h - n_matches - np.bincount(
        np.repeat(np.arange(n_frames), n_h)[dropped], minlength=n_frames)

    on = hit[by_id]
    hid = np.zeros(len(by_id), dtype=h_ids.dtype)
    hid[on] = h_ids[match[by_id[on]]]
    track = np.cumsum(new_track) - 1
    # IDS: the matched hyp id changes between a GT's successive matches
    rows = np.flatnonzero(on)
    switch = ((track[rows[1:]] == track[rows[:-1]])
              & (hid[rows[1:]] != hid[rows[:-1]]))
    n_ids = np.bincount(g_at[by_id[rows[1:][switch]]], minlength=n_frames)
    # persisted: the same pair was matched at the frame before
    persisted = np.zeros(len(by_id), dtype=bool)
    persisted[by_id[1:]] = (np.tile(np.append(False, step)[:n], n_runs)[1:]
                            & on[1:] & on[:-1] & (hid[1:] == hid[:-1]))
    # FM: unmatched -> matched steps within a track, but not the first
    # match; FM, MT and ML are counted per run.
    n_tracks = int(one_new.sum())
    track_run = np.repeat(runs_at, n_tracks)
    matched_entries = np.bincount(track[on], minlength=n_tracks * n_runs)
    coverage = matched_entries / np.bincount(track, minlength=n_tracks * n_runs)
    fm = (np.bincount(np.repeat(runs_at, n)[1:][same & on[1:] & ~on[:-1]],
                      minlength=n_runs)
          - np.bincount(track_run[~on[new_track] & (matched_entries > 0)],
                        minlength=n_runs))
    mt, ml = (np.bincount(track_run[cut], minlength=n_runs)
              for cut in (coverage > MT_COVERAGE, coverage < ML_COVERAGE))

    # Each frame's IoU sum in clear_correspond's pair order, persisted pairs
    # then residual pairs, each by gt row: `np.add.at` adds the pairs one at
    # a time in `ranked` order, so each frame's sum starts at 0.0 and takes
    # its pairs in that order.
    hit_rows = np.flatnonzero(hit)
    ranked = hit_rows[np.argsort(2 * g_at[hit_rows] + ~persisted[hit_rows],
                                 kind="stable")]
    iou_sums = np.zeros(n_frames)
    np.add.at(iou_sums, g_at[ranked], match_iou[ranked])
    iou_sum = [v if m else 0 for v, m in zip(iou_sums.tolist(),
                                             n_matches.tolist())]
    columns = {"frame": frame, "gt": n_g, "matches": n_matches,
               "fn": n_g - n_matches, "fp": n_fp, "ids": n_ids}
    bounds = np.searchsorted(run, np.arange(n_runs + 1)).tolist()
    return [SequenceStats(
        sequence_id=gt.sequence_id,
        frame_counts=Rows({**{name: column[lo:hi]
                              for name, column in columns.items()},
                           "iou_sum": iou_sum[lo:hi]}),
        fm=int(fm[r]), mt=int(mt[r]), ml=int(ml[r]), n_tracks=n_tracks)
        for r, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


def evaluate_clear(gt: GtColumns, tracks: TrackColumns,
                   iou_thr: float = DEFAULT_IOU_THR,
                   edges: EdgeTable | None = None,
                   inside: np.ndarray | None = None
                   ) -> tuple[MetricBundle, SequenceStats]:
    """CLEAR MOT of one sequence from its GT and hypothesis columns
    (`read_ground_truth` / `read_tracks`, or `GroundTruth.columns` and
    the `TrackColumns` a tracker returns): `evaluate_clear_runs` of the
    one run (tracks, edges, inside), and its bundle."""
    stats, = evaluate_clear_runs(gt, [(tracks, edges, inside)], iou_thr)
    return Totals().add(stats).bundle(), stats


def aggregate(stats: Sequence[SequenceStats]) -> MetricBundle:
    """Benchmark-level bundle: counts summed across sequences before ratios
    (`Totals`)."""
    if not stats:
        raise ValidationError("aggregate requires at least one sequence")
    return reduce(Totals.add, stats, Totals()).bundle()
