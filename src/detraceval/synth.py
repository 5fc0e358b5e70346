"""Seeded synthetic scenarios and independent brute-force oracles.

The generator uses numpy's PCG64 stream (seeded through SeedSequence, which
is stable across platforms and versions), split into independent child
streams per concern so that, with a fixed seed:

* raising drop_rate only removes detections (one uniform draw per GT box is
  compared to the rate);
* changing drop_rate leaves clutter untouched;
* per-frame clutter counts come from inverse-CDF Poisson sampling on a shared
  uniform, so they are pointwise non-decreasing in clutter_rate.

The oracles re-derive CLEAR metrics and AP by exhaustive enumeration and
fine-grid integration, and the sweep's detection counts by thresholding
first and then matching with the scalar IoU; they share no code path with
the production implementations beyond the domain types and the scalar
geometry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .datamodel import (BBox, Detection, DetectionSet, GroundTruth, GtEntry,
                        GtTrack, OutTrack, TrackSet, ValidationError, CATEGORIES)
from .det_metrics import DEFAULT_IOU_THR, IGNORE_COVERAGE_THR, PRCurve
from .geometry import ignore_coverage, iou, occlusion_class, scale_class
from .mot_metrics import (ML_COVERAGE, MT_COVERAGE, FrameCounts, MetricBundle,
                          SequenceStats)

ORACLE_MAX_OBJECTS = 5
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class ScenarioConfig:
    n_targets: int = 4
    n_frames: int = 30
    arena: tuple[float, float] = (960.0, 540.0)
    speed: tuple[float, float] = (2.0, 8.0)
    box_size: tuple[float, float] = (30.0, 80.0)
    drop_rate: float = 0.0
    clutter_rate: float = 0.0
    jitter_sigma: float = 0.0
    tp_mean: float = 0.8
    clutter_mean: float = 0.3
    score_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ValidationError(f"drop_rate out of range: {self.drop_rate}")
        if self.clutter_rate < 0.0:
            raise ValidationError(f"clutter_rate must be >= 0: {self.clutter_rate}")
        if self.n_frames < 1:
            raise ValidationError(f"n_frames must be >= 1: {self.n_frames}")
        if self.tp_mean <= self.clutter_mean:
            raise ValidationError("tp_mean must exceed clutter_mean "
                                  "(scores must be separable)")
        if (self.box_size[1] >= self.arena[0]
                or self.box_size[1] >= self.arena[1]):
            raise ValidationError("degenerate arena: smaller than box_size")


def _reflect(pos: float, vel: float, limit: float) -> tuple[float, float]:
    pos += vel
    if pos < 0.0:
        return -pos, -vel
    if pos > limit:
        return 2.0 * limit - pos, -vel
    return pos, vel


def gen_scenario(config: ScenarioConfig) -> tuple[GroundTruth, DetectionSet]:
    """Constant-velocity targets with wall reflection, plus detector noise."""
    ss = np.random.SeedSequence(config.seed)
    r_motion, r_attr, r_drop, r_jitter, r_score, r_clutter = (
        np.random.default_rng(s) for s in ss.spawn(6))
    aw, ah = config.arena

    tracks: list[GtTrack] = []
    per_frame_boxes: list[list[BBox]] = [[] for _ in range(config.n_frames)]
    for target in range(config.n_targets):
        w = r_motion.uniform(*config.box_size)
        h = r_motion.uniform(*config.box_size)
        x = r_motion.uniform(0.0, aw - w)
        y = r_motion.uniform(0.0, ah - h)
        speed = r_motion.uniform(*config.speed)
        angle = r_motion.uniform(0.0, 2.0 * math.pi)
        vx, vy = speed * math.cos(angle), speed * math.sin(angle)
        category = CATEGORIES[r_attr.integers(0, len(CATEGORIES))]
        occlusion = float(r_attr.uniform(0.0, 0.8))
        entries = []
        for t in range(config.n_frames):
            box = BBox(x, y, w, h)
            entries.append(GtEntry(frame=t + 1, box=box,
                                   occlusion_ratio=occlusion,
                                   truncation_ratio=0.0, category=category))
            per_frame_boxes[t].append(box)
            x, vx = _reflect(x, vx, aw - w)
            y, vy = _reflect(y, vy, ah - h)
        tracks.append(GtTrack(target + 1, tuple(entries)))

    dets: list[Detection] = []
    for t in range(config.n_frames):
        for box in per_frame_boxes[t]:
            # draws happen regardless of the drop decision so that raising
            # drop_rate with a fixed seed only removes detections
            u = r_drop.uniform()
            jit = r_jitter.normal(0.0, config.jitter_sigma, 4) \
                if config.jitter_sigma > 0 else np.zeros(4)
            score = float(r_score.normal(config.tp_mean, config.score_sigma)) \
                if config.score_sigma > 0 else config.tp_mean
            if u < config.drop_rate:
                continue
            dets.append(Detection(
                frame=t + 1,
                box=BBox(box.left + jit[0], box.top + jit[1],
                         max(box.width + jit[2], 1.0),
                         max(box.height + jit[3], 1.0)),
                score=score))

    if config.clutter_rate > 0:
        clutter_u = r_clutter.uniform(size=config.n_frames)
        counts = sps.poisson.ppf(clutter_u, config.clutter_rate).astype(int)
        r_cbox = np.random.default_rng(ss.spawn(1)[0])
        for t in range(config.n_frames):
            for _ in range(int(counts[t])):
                w = r_cbox.uniform(*config.box_size)
                h = r_cbox.uniform(*config.box_size)
                x = r_cbox.uniform(0.0, aw - w)
                y = r_cbox.uniform(0.0, ah - h)
                score = float(r_cbox.normal(config.clutter_mean,
                                            config.score_sigma)) \
                    if config.score_sigma > 0 else config.clutter_mean
                dets.append(Detection(t + 1, BBox(x, y, w, h), score))

    dets.sort(key=lambda d: d.frame)
    gt = GroundTruth(sequence_id=f"synth-{config.seed}",
                     frame_count=config.n_frames, tracks=tuple(tracks))
    return gt, DetectionSet(tuple(dets))


# ---------------------------------------------------------------------------
# Random tiny scenarios for oracle equivalence testing
# ---------------------------------------------------------------------------

def random_tiny_scenario(seed: int) -> tuple[GroundTruth, TrackSet]:
    """A small GT plus a noisy hypothesis set: jittered copies of GT boxes
    with random drops, identity churn, and occasional clutter tracks."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_tracks = int(rng.integers(1, 4))
    n_frames = int(rng.integers(2, 6))
    tracks = []
    for tid in range(1, n_tracks + 1):
        x = rng.uniform(0, 160)
        y = rng.uniform(0, 90)
        w = rng.uniform(12, 30)
        h = rng.uniform(12, 30)
        vx, vy = rng.uniform(-4, 4, 2)
        first = int(rng.integers(1, n_frames))
        entries = []
        for f in range(first, n_frames + 1):
            entries.append(GtEntry(frame=f, box=BBox(x, y, w, h)))
            x, y = x + vx, y + vy
        tracks.append(GtTrack(tid, tuple(entries)))
    gt = GroundTruth(sequence_id=f"tiny-{seed}", frame_count=n_frames,
                     tracks=tuple(tracks))

    hyp_boxes: dict[int, list[tuple[int, BBox]]] = {}
    next_id = 1
    id_of: dict[int, int] = {}
    for tr in gt.tracks:
        id_of[tr.target_id] = next_id
        next_id += 1
    for tr in gt.tracks:
        for e in tr.entries:
            if rng.uniform() < 0.25:
                continue  # dropped frame
            if rng.uniform() < 0.15:
                id_of[tr.target_id] = next_id  # identity churn
                next_id += 1
            b = e.box
            jitter = rng.normal(0, 1.5, 4)
            box = BBox(b.left + jitter[0], b.top + jitter[1],
                       max(b.width + jitter[2], 2.0),
                       max(b.height + jitter[3], 2.0))
            hyp_boxes.setdefault(id_of[tr.target_id], []).append((e.frame, box))
    n_clutter = int(rng.integers(0, 3))
    for _ in range(n_clutter):
        f = int(rng.integers(1, n_frames + 1))
        box = BBox(rng.uniform(0, 160), rng.uniform(0, 90),
                   rng.uniform(8, 25), rng.uniform(8, 25))
        hyp_boxes.setdefault(next_id, []).append((f, box))
        next_id += 1
    out = [OutTrack(tid, tuple(sorted(items)))
           for tid, items in sorted(hyp_boxes.items())]
    return gt, TrackSet(tuple(out))


# ---------------------------------------------------------------------------
# Brute-force CLEAR oracle
# ---------------------------------------------------------------------------

def _enumerate_partial_assignments(n: int, m: int):
    """All injective partial maps rows -> cols, as tuples with -1 = unmatched."""
    def recurse(i: int, taken: frozenset, acc: tuple):
        if i == n:
            yield acc
            return
        yield from recurse(i + 1, taken, acc + (-1,))
        for j in range(m):
            if j not in taken:
                yield from recurse(i + 1, taken | {j}, acc + (j,))
    yield from recurse(0, frozenset(), ())


def _oracle_residual(gids: list, hids: list,
                     boxes_g: dict, boxes_h: dict, iou_thr: float) -> dict:
    """Best residual assignment by exhaustive enumeration: max cardinality,
    then max total IoU (1e-12 tolerance), then lexicographically smallest
    partner tuple over ascending gt ids."""
    n, m = len(gids), len(hids)
    if n == 0 or m == 0:
        return {}
    iou_tab = [[iou(boxes_g[g], boxes_h[h]) for h in hids] for g in gids]
    best: tuple | None = None  # (card, total, key, mapping)
    for mapping in _enumerate_partial_assignments(n, m):
        if any(j >= 0 and iou_tab[i][j] < iou_thr
               for i, j in enumerate(mapping)):
            continue
        card = sum(1 for j in mapping if j >= 0)
        total = sum(iou_tab[i][j] for i, j in enumerate(mapping) if j >= 0)
        key = tuple(j if j >= 0 else m for j in mapping)
        if best is None:
            best = (card, total, key, mapping)
            continue
        bcard, btotal, bkey, _ = best
        if card > bcard:
            best = (card, total, key, mapping)
        elif card == bcard:
            if total > btotal + _TIE_TOL:
                best = (card, total, key, mapping)
            elif total >= btotal - _TIE_TOL and key < bkey:
                best = (card, max(total, btotal), key, mapping)
    if best is None:
        return {}
    return {gids[i]: hids[j] for i, j in enumerate(best[3]) if j >= 0}


def oracle_clear(gt: GroundTruth, tracks: TrackSet,
                 iou_thr: float = DEFAULT_IOU_THR) -> MetricBundle:
    """Independent CLEAR implementation for tiny instances.

    Same definitions as evaluate_clear, derived differently: correspondence
    residuals by exhaustive enumeration, and IDS/FM/MT/ML recomputed from the
    full per-target match log after the frame pass.
    """
    match_log: dict[int, list[tuple[int, int | None]]] = {
        tr.target_id: [] for tr in gt.tracks}
    fn_total = fp_total = gt_total = matches_total = 0
    iou_total = 0.0
    prev: dict[int, int] = {}

    for frame in range(1, gt.frame_count + 1):
        entries = gt.entries_at(frame)
        if len(entries) > ORACLE_MAX_OBJECTS:
            raise ValidationError("oracle_clear: instance too large")
        hyps = tracks.boxes_at(frame)
        if len(hyps) > ORACLE_MAX_OBJECTS:
            raise ValidationError("oracle_clear: instance too large")
        boxes_g = {g: e.box for g, e in entries.items()}

        kept = {}
        for g, h in prev.items():
            if g in boxes_g and h in hyps and iou(boxes_g[g], hyps[h]) >= iou_thr:
                kept[g] = h
        rest_g = sorted(g for g in boxes_g if g not in kept)
        rest_h = sorted(h for h in hyps if h not in kept.values())
        assigned = dict(kept)
        assigned.update(_oracle_residual(rest_g, rest_h, boxes_g, hyps, iou_thr))
        prev = assigned

        gt_total += len(boxes_g)
        matches_total += len(assigned)
        fn_total += len(boxes_g) - len(assigned)
        for g, h in assigned.items():
            iou_total += iou(boxes_g[g], hyps[h])
        for h, box in hyps.items():
            if h not in assigned.values():
                if ignore_coverage(box, gt.ignore_regions, frame) <= IGNORE_COVERAGE_THR:
                    fp_total += 1
        for g in boxes_g:
            match_log[g].append((frame, assigned.get(g)))

    ids_total = fm_total = mt = ml = 0
    for tr in gt.tracks:
        log = match_log[tr.target_id]
        matched = [h for _, h in log if h is not None]
        # IDS: changes over the sequence of matched ids, gaps skipped
        ids_total += sum(1 for a, b in zip(matched, matched[1:]) if a != b)
        # FM: runs of unmatched strictly inside the matched span
        flags = [h is not None for _, h in log]
        if any(flags):
            first = flags.index(True)
            last = len(flags) - 1 - flags[::-1].index(True)
            inside = flags[first:last + 1]
            fm_total += sum(1 for i in range(1, len(inside))
                            if inside[i] and not inside[i - 1])
        coverage = len(matched) / len(log)
        if coverage > MT_COVERAGE:
            mt += 1
        elif coverage < ML_COVERAGE:
            ml += 1

    if gt_total > 0:
        mota = 100.0 * (1.0 - (fn_total + fp_total + ids_total) / gt_total)
    else:
        mota = 100.0 if fn_total + fp_total + ids_total == 0 else 0.0
    motp = 100.0 * iou_total / matches_total if matches_total else 0.0
    n_tracks = len(gt.tracks)
    return MetricBundle(
        mota=mota, motp=motp, mt=mt, ml=ml,
        mt_pct=100.0 * mt / n_tracks if n_tracks else 0.0,
        ml_pct=100.0 * ml / n_tracks if n_tracks else 0.0,
        ids=ids_total, fm=fm_total, fp=fp_total, fn=fn_total,
    )


def oracle_sweep_counts(pairs: Sequence[tuple[DetectionSet, GroundTruth]],
                        threshold: float,
                        iou_thr: float = DEFAULT_IOU_THR,
                        subset: str = "overall") -> tuple[int, int, int]:
    """(tp, fp, fn) pooled over sequences at one score threshold, the slow
    way: drop the detections below the threshold, then match what is left
    from scratch, frame by frame, with the scalar IoU.

    Same rules as the detection layer: GT covered > 0.5 by ignore regions
    leaves the pool; detections go in descending score, ties in input order,
    each taking the free GT of highest IoU (ties to the lowest index) if that
    IoU is > 0 and >= iou_thr; an unmatched detection covered > 0.5 is
    neutral. With a `subset` (a `det_metrics.detection_report` name),
    sequences of another weather or difficulty are skipped, a match to
    pooled GT outside the subset is neutral, and only pooled GT inside it
    counts.
    """
    kind, _, value = subset.partition(":")

    def in_subset(e: GtEntry) -> bool:
        if kind == "scale":
            return scale_class(e.box).value == value
        if kind == "occlusion":
            return occlusion_class(e.occlusion_ratio).value == value
        if kind == "category":
            return e.category == value
        return True

    tp = fp = n_gt = 0
    for dets, gt in pairs:
        if kind in ("weather", "difficulty") and getattr(gt, kind) != value:
            continue
        kept = [d for d in dets if d.score >= threshold]
        frames = {d.frame for d in kept} | {
            e.frame for tr in gt.tracks for e in tr.entries}
        for frame in sorted(frames):
            pool = [e for tr in gt.tracks for e in tr.entries
                    if e.frame == frame and ignore_coverage(
                        e.box, gt.ignore_regions, frame) <= IGNORE_COVERAGE_THR]
            n_gt += sum(map(in_subset, pool))
            free = list(range(len(pool)))
            frame_dets = [d for d in kept if d.frame == frame]
            for d in sorted(frame_dets, key=lambda d: -d.score):
                overlaps = [(iou(d.box, pool[g].box), -g) for g in free]
                best, neg_g = max(overlaps, default=(0.0, 0))
                if best > 0.0 and best >= iou_thr:
                    free.remove(-neg_g)
                    tp += in_subset(pool[-neg_g])
                elif ignore_coverage(d.box, gt.ignore_regions,
                                     frame) <= IGNORE_COVERAGE_THR:
                    fp += 1
    return tp, fp, n_gt - tp


def oracle_ap(curve: PRCurve, grid_step: float = 1e-4) -> float:
    """AP by midpoint-grid numeric integration of the precision envelope."""
    pts = sorted(curve.points, key=lambda p: p.recall)
    max_r = pts[-1].recall
    if max_r == 0.0:
        return 0.0
    recalls = np.array([p.recall for p in pts])
    precisions = np.array([p.precision for p in pts])
    # envelope at recall r: max precision among points with recall >= r
    env = np.maximum.accumulate(precisions[::-1])[::-1]
    n = int(math.ceil(max_r / grid_step))
    edges = np.minimum(np.arange(1, n + 1) * grid_step, max_r)
    widths = np.diff(np.concatenate(([0.0], edges)))
    mids = edges - widths / 2.0
    idx = np.searchsorted(recalls, mids, side="left")
    return float(np.sum(env[idx] * widths))
