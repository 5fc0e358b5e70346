"""Named reproducible scenarios used by the test suite and the CLI demo.

* "perfect": noiseless detections at a constant score; every metric should
  sit at its ideal value and the PR sweep collapses to a single point.
* "crossing": two targets crossing paths with a detection dropout on one of
  them; the builtin tracker fragments and re-identifies, so IDS >= 1.
* "ranking-flip": clutter plus dropouts tuned so that two builtin tracker
  configurations swap MOTA ranking between detection thresholds.
* "fp-heavy": clutter dominates the ground truth, driving MOTA negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import (BBox, DetectionColumns, GroundTruth, GtEntry, GtTrack,
                        ValidationError, _box_columns, _ints)
from .synth import ScenarioConfig, gen_scenario
from .trackers import BuiltinGreedyTracker


@dataclass(frozen=True)
class Fixture:
    name: str
    gt: GroundTruth
    dets: DetectionColumns
    trackers: dict[str, BuiltinGreedyTracker] = field(default_factory=dict)


def _perfect() -> Fixture:
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=4, n_frames=30, drop_rate=0.0, clutter_rate=0.0,
        jitter_sigma=0.0, tp_mean=1.0, clutter_mean=0.0, score_sigma=0.0,
        seed=1))
    return Fixture("perfect", gt, dets,
                   {"builtin": BuiltinGreedyTracker()})


def _crossing() -> Fixture:
    # Two 24x24 targets on a collision course along y=100; target 2 loses
    # its detections for frames 8-10 (a gap the default tracker cannot
    # bridge), forcing a fresh identity on re-acquisition.
    n_frames = 21
    entries_a = []
    entries_b = []
    det_frames, det_boxes = [], []
    for t in range(n_frames):
        frame = t + 1
        box_a = BBox(10.0 + 8.0 * t, 100.0, 24.0, 24.0)
        box_b = BBox(170.0 - 8.0 * t, 100.0, 24.0, 24.0)
        entries_a.append(GtEntry(frame=frame, box=box_a))
        entries_b.append(GtEntry(frame=frame, box=box_b))
        det_frames.append(frame)
        det_boxes.append(box_a)
        if not 8 <= frame <= 10:
            det_frames.append(frame)
            det_boxes.append(box_b)
    tracks = [GtTrack(1, tuple(entries_a)), GtTrack(2, tuple(entries_b))]
    gt = GroundTruth(sequence_id="crossing", frame_count=n_frames,
                     tracks=tuple(tracks))
    dets = DetectionColumns(**_box_columns(det_boxes), frame=_ints(det_frames),
                            score=np.ones(len(det_frames)))
    return Fixture("crossing", gt, dets, {"builtin": BuiltinGreedyTracker()})


def _ranking_flip() -> Fixture:
    # Heavy clutter at low scores, moderate dropouts on true boxes. A
    # keep-everything tracker wins once the threshold has removed the
    # clutter; a short-track-suppressing tracker wins while clutter
    # dominates. Tuned empirically; the inversion is asserted in tests.
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=3, n_frames=60, drop_rate=0.25, clutter_rate=3.0,
        jitter_sigma=0.5, tp_mean=0.75, clutter_mean=0.35, score_sigma=0.08,
        seed=7))
    return Fixture(
        "ranking-flip", gt, dets,
        {
            "keep_all": BuiltinGreedyTracker(link_thr=0.5, max_gap=2,
                                             min_track_len=1),
            "suppress_short": BuiltinGreedyTracker(link_thr=0.5, max_gap=2,
                                                   min_track_len=6),
        })


def _fp_heavy() -> Fixture:
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=2, n_frames=40, drop_rate=0.1, clutter_rate=5.0,
        jitter_sigma=0.5, tp_mean=0.8, clutter_mean=0.4, score_sigma=0.1,
        seed=11))
    return Fixture("fp-heavy", gt, dets,
                   {"builtin": BuiltinGreedyTracker()})


_BUILDERS = {
    "perfect": _perfect,
    "crossing": _crossing,
    "ranking-flip": _ranking_flip,
    "fp-heavy": _fp_heavy,
}

FIXTURE_NAMES = tuple(_BUILDERS)


def load_fixture(name: str) -> Fixture:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValidationError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}") from None
    return builder()
