"""Detection-threshold sweeps and line integration along the PR curve.

The protocol: thin the detections at a ladder of score thresholds, run the
tracker at each, record the operating point (precision, recall, CLEAR
bundle), then integrate each metric along the resulting PR polyline:

    score = 1/2 * sum_i (psi_i + psi_{i+1}) / 2 * ds_i,
    ds_i = sqrt(dp_i^2 + dr_i^2)

MOTA/MOTP/MT%/ML% integrate as percents; IDS/FM/FP/FN as raw counts.
The curve is not extended to synthetic endpoints; only realized operating
points are integrated.

The sweep is sequence-major: `sweep_sequence` runs one sequence through
every threshold, and `sweep` calls it for each sequence in order. Per
sequence it builds three things once:

* the GT x detection edge table (`matching.edge_table`): every same-frame
  (GT row, detection row, IoU) with IoU >= iou_thr, over all detections;
* from it, the detection labeling pass (`det_metrics._label_detections`),
  whose counts give precision and recall at every threshold once every
  sequence's are pooled in one count table; the pass also marks, once,
  every detection inside ignore regions (`Labels.inside`);
* the tracker's entry point (`by_threshold`, see `trackers`) over all
  detections; the builtin tracker computes its link IoUs there, in one
  link table. Its tracks at threshold tau equal a call on the detections
  with score >= tau, whatever rows it was built over; at the CLI the
  lowest threshold is the lowest score, so every row takes part anyway.

Then only the tracker's step runs once per threshold, and one CLEAR call
(`mot_metrics.evaluate_clear_runs`) scores the tracks of every threshold
whose step succeeded. The builtin tracker's step also names the detection
row behind each track row; CLEAR then reads those rows' part of the edge
table (`EdgeTable.take`) and of the ignore mask, and computes no IoU and
no coverage. A `cmd:` tracker's output is a new set of boxes, so CLEAR
builds its table and its coverage from them. The sequence's tables and
labels die when `sweep_sequence` returns; what `sweep` keeps between
sequences is the labels' counts and, per threshold, a running CLEAR total
(`mot_metrics.Totals`) that each sequence's stats are folded into, in
sequence order, so every total is the one `aggregate` gives.

Threads. With jobs > 1 the tracker steps of one sequence run on that
many threads, and nothing else in the package does: only an external
(`cmd:`) tracker's processes overlap there, while reading, the built-in
tracker and CLEAR hold Python's interpreter lock. Sequences, and each
sequence's CLEAR call, run in order on the calling thread, and every
value of jobs gives the same result.

The sweep stays in columns: thinning at a threshold is the mask
``score >= threshold`` over `DetectionColumns`, and CLEAR scores the
`TrackColumns` the tracker returns as they are. Tracker output past the
sequence's last frame is a tracker failure at that threshold, like an
exception in the tracker.

Failures. The error raised is the first failure in (threshold, sequence)
order, thresholds in the order given. Without keep_going a sequence stops
at its own first failure (a step skips a threshold above a known
failure), and later sequences run only the thresholds below the lowest
failure found so far. With keep_going a threshold that failed on any
sequence is a gap, and later sequences skip it; when every threshold
failed, the error names the first failure. Once a failure is known and
no threshold is left to run, the error is decided: `sweep` builds no
later sequence's tables and raises it.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .datamodel import (DetectionColumns, GtColumns, TrackColumns,
                        ValidationError, check_frame_count, ordered_sum)
from .det_metrics import (DEFAULT_IOU_THR, _label_detections, count_table,
                          rates)
from .matching import edge_table
from .mot_metrics import MetricBundle, Totals, evaluate_clear_runs

# Columns in, columns out: a tracker gets one sequence's detections with
# score >= the threshold, in input order, and the sequence id, and returns
# its tracks. A `cmd:` tracker sees the same data as CSV files (`trackers`).
# A tracker with a `by_threshold(dets, sequence_id)` method gives the sweep
# one function of the threshold per sequence instead (`trackers.TracksAt`).
TrackerAdapter = Callable[[DetectionColumns, str], TrackColumns]

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
    """`integrals` maps each name of `SCORE_NAMES` to its integrated score."""

    integrals: Mapping[str, float]
    arc_length: float
    curve: tuple[OperatingPoint, ...]

    def scores(self) -> dict[str, float]:
        return {k: self.integrals[k] for k in SCORE_NAMES}


def check_threshold_count(n: int) -> None:
    """Both spacings need at least two thresholds."""
    if n < 2:
        raise ValidationError(f"need n >= 2 thresholds, got {n}")


def _score_list(scores: Sequence[float] | np.ndarray, n: int) -> list[float]:
    """The scores as Python floats, after the checks both spacings share."""
    if len(scores) == 0:
        raise ValidationError("no detections: cannot select score thresholds")
    check_threshold_count(n)
    return np.asarray(scores, dtype=np.float64).tolist()


def select_thresholds(scores: Sequence[float] | np.ndarray,
                      n: int = DEFAULT_N_THRESHOLDS) -> list[float]:
    """n values uniformly spaced over [min score, max score] of the pooled
    detection scores."""
    values = _score_list(scores, n)
    lo, hi = min(values), max(values)
    if lo == hi:
        warnings.warn("all detection scores are equal; single threshold")
        return [lo]
    # Where hi - lo overflows a double, the ladder is stepped at half scale;
    # scaling by 1.0 leaves every other ladder bit for bit as it was.
    scale = 1.0 if math.isfinite(hi - lo) else 0.5
    step = (hi * scale - lo * scale) / (n - 1)
    return _ascending([(lo * scale + i * step) / scale for i in range(n - 1)] + [hi])


def select_thresholds_quantile(scores: Sequence[float] | np.ndarray,
                               n: int = DEFAULT_N_THRESHOLDS) -> list[float]:
    """Alternative spacing: score quantiles instead of uniform values."""
    scores = sorted(_score_list(scores, n))
    return _ascending(scores[round(i * (len(scores) - 1) / (n - 1))] for i in range(n))


def _ascending(values: Iterable[float]) -> list[float]:
    """`values` in order, each kept only if it is above the last one kept."""
    out: list[float] = []
    for v in values:
        if not out or v > out[-1]:
            out.append(v)
    return out


def _bare(exc: Exception) -> Exception:
    """`exc` without its traceback and the exceptions chained to it, whose
    frames would keep a failed sequence's tables alive for as long as
    `sweep` holds the failure. Its type and message, all that the error
    line shows, stay."""
    exc.__traceback__ = exc.__context__ = exc.__cause__ = None
    return exc


def sweep_sequence(gt: GtColumns, dets: DetectionColumns,
                   tracker: TrackerAdapter, thresholds: Sequence[float],
                   iou_thr: float = DEFAULT_IOU_THR, keep_going: bool = False,
                   jobs: int = 1) -> tuple[tuple, list]:
    """One sequence through every threshold: its labels' counts
    (`Labels.counts`, every GT row) and, per threshold, its CLEAR stats,
    the tracker's failure there, or None where it was not run. The edge
    table, the labels and the tracker's entry point are built here, once,
    over all of `dets` (see the module docstring), and die when this
    returns. The tracker steps run first, on `jobs` threads when jobs > 1
    (the package's one thread pool; see the module docstring); then one
    `evaluate_clear_runs` call, on the calling thread, scores the tracks of
    every threshold whose step succeeded. Without keep_going a threshold
    after a failed one in `thresholds` is not run. An entry point that
    fails fails every threshold."""
    edges = edge_table(gt, dets, iou_thr)
    labels = _label_detections(gt, dets, edges, iou_thr)
    counts = labels.counts(np.ones(len(gt), dtype=bool))
    by_threshold = getattr(tracker, "by_threshold", None)
    try:
        at = (by_threshold(dets, gt.sequence_id) if by_threshold
              else lambda tau: (tracker(dets.take(dets.score >= tau),
                                        gt.sequence_id), None))
    except Exception as exc:
        return counts, [_bare(exc)] * len(thresholds)
    # Without keep_going, the thresholds seen to fail; each step writes
    # only its own slot, so threads need no lock.
    failed = [False] * len(thresholds)

    def step(i: int) -> tuple | Exception | None:
        if any(failed[:i]):
            return None
        try:
            tracks, rows = at(thresholds[i])
            check_frame_count(gt, tracks, "tracker output")
        except Exception as exc:
            failed[i] = not keep_going
            return _bare(exc)
        return tracks, rows
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(step, range(len(thresholds))))
    else:
        outcomes = list(map(step, range(len(thresholds))))
    ran = [i for i, outcome in enumerate(outcomes)
           if isinstance(outcome, tuple)]
    runs = [(tracks, None, None) if rows is None
            else (tracks, edges.take(rows), labels.inside[rows])
            for tracks, rows in (outcomes[i] for i in ran)]
    for i, stats in zip(ran, evaluate_clear_runs(gt, runs, iou_thr)):
        outcomes[i] = stats
    return counts, outcomes


def sweep(pairs: Sequence[tuple[GtColumns, DetectionColumns]],
          tracker: TrackerAdapter,
          thresholds: Sequence[float],
          iou_thr: float = DEFAULT_IOU_THR,
          keep_going: bool = False,
          jobs: int = 1) -> list[OperatingPoint]:
    """Evaluate the full system at every threshold.

    `pairs` holds each sequence's (GT, detections) columns. At a threshold
    the tracker gets the detections with score >= threshold, in input
    order. Each sequence runs through the thresholds in turn
    (`sweep_sequence`), and its stats are folded into one running total
    per threshold. Results are returned in curve order regardless of
    execution order. With keep_going, a failing threshold leaves a gap
    instead of aborting (see the module docstring for which thresholds a
    sequence runs).
    """
    if not all(map(math.isfinite, thresholds)):
        raise ValidationError(f"thresholds must be finite: {list(map(float, thresholds))}")
    if len(thresholds) == 0:
        return []
    totals = [Totals()] * len(thresholds)
    failures: dict[int, tuple[str, Exception]] = {}  # the first, per threshold
    counts = []
    for gt, dets in pairs:
        live = [i for i in range(len(thresholds)) if i not in failures
                and (keep_going or all(i < j for j in failures))]
        if failures and not live:  # decided: the error below is raised
            break
        seq_counts, outcomes = sweep_sequence(
            gt, dets, tracker, [thresholds[i] for i in live], iou_thr,
            keep_going, jobs)
        counts.append(seq_counts)
        for i, outcome in zip(live, outcomes):
            if isinstance(outcome, Exception):
                failures[i] = (gt.sequence_id, outcome)
            elif outcome is not None:
                totals[i] = totals[i].add(outcome)
    if failures and (not keep_going or len(failures) == len(thresholds)):
        i = min(failures)
        sequence_id, exc = failures[i]
        every = "every threshold failed; first: " if keep_going else ""
        raise SweepError(f"{every}tracker failed at threshold {thresholds[i]:g}"
                         f" on sequence {sequence_id!r}: {exc}") from exc
    table = count_table(counts)
    points = []
    for i, tau in enumerate(thresholds):
        if i not in failures:
            tp, fp, fn = table.at(tau)
            precision, recall = rates(tp, tp + fp, tp + fn)
            points.append(OperatingPoint(tau, precision.item(), recall.item(),
                                         totals[i].bundle()))
    points.sort(key=lambda p: (p.recall, -p.precision))
    return points


def _check_points(points: Sequence[OperatingPoint]) -> None:
    """An error for no point; a warning for one, whose integrals are 0."""
    if not points:
        raise ValidationError("integrate requires at least one operating point")
    if len(points) == 1:
        warnings.warn("single operating point: line integral is 0")


def integrate(points: Sequence[OperatingPoint],
              extractor: Callable[[MetricBundle], float]) -> float:
    """Trapezoidal line integral of a metric along the PR polyline, halved."""
    _check_points(points)
    return _integral(points, extractor)


def _integral(points: Sequence[OperatingPoint],
              extractor: Callable[[MetricBundle], float]) -> float:
    """`integrate` without the checks: 0 for one point."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        ds = math.hypot(b.precision - a.precision, b.recall - a.recall)
        total += 0.5 * (extractor(a.metrics) + extractor(b.metrics)) * ds
    return 0.5 * total


def arc_length(points: Sequence[OperatingPoint]) -> float:
    return ordered_sum(math.hypot(b.precision - a.precision,
                                  b.recall - a.recall)
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
    _check_points(ordered)  # one warning per report, not one per score
    return PRIntegratedReport(
        {name: _integral(ordered, fn) for name, fn in _EXTRACTORS.items()},
        arc_length(ordered), tuple(ordered))


def mean_scores(rows: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """Key-wise arithmetic mean of score mappings, over the first one's keys."""
    return {k: ordered_sum(r[k] for r in rows) / len(rows) for k in rows[0]}
