"""Tracking subjects for the sweep: a built-in greedy IoU linker and an
adapter that shells out to an external tracker executable.

External tracker contract: the command template receives {input} (detection
CSV), {output} (track CSV to produce) and optionally {sequence}; exit 0
means success. The workspace directory is removed on success and kept for
inspection on failure.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np

from .datamodel import (DetectionSet, OutTrack, TrackSet, ValidationError,
                        parse_tracks, write_detections)
from .geometry import box_array, iou_matrix

TMPDIR_ENV = "DETRACEVAL_TMPDIR"


class TrackerError(RuntimeError):
    """An external tracker run failed; the message carries diagnostics."""


def greedy_iou_track(dets: DetectionSet, link_thr: float = 0.5,
                     max_gap: int = 1, min_track_len: int = 1) -> TrackSet:
    """Frame-by-frame greedy IoU linking.

    Each frame's detections are linked to active tracks in descending IoU to
    the track's last box (ties by track age, then input order); links below
    link_thr are rejected, leftovers start new tracks, and a track idle for
    more than max_gap frames is closed. Tracks shorter than min_track_len
    are suppressed from the output. Deterministic given input order.
    """
    by_frame = dets.by_frame()
    # active: track_id -> (last_frame, last box as a box_array row)
    active: dict[int, tuple[int, np.ndarray]] = {}
    boxes: dict[int, list[tuple[int, object]]] = {}
    next_id = 1
    for frame in sorted(by_frame):
        frame_dets = by_frame[frame]
        det_arr = box_array([d.box for d in frame_dets])
        active = {tid: state for tid, state in active.items()
                  if frame - state[0] <= max_gap + 1}
        live = list(active)
        used_tracks: set[int] = set()
        used_dets: set[int] = set()
        if live:
            iou_mat = iou_matrix(np.array([active[tid][1] for tid in live]),
                                 det_arr)
            ti, di = np.nonzero(iou_mat >= link_thr)
            # candidates in (-iou, track index, det index) order
            order = np.lexsort((di, ti, -iou_mat[ti, di]))
            for t, d in zip(ti[order].tolist(), di[order].tolist()):
                if t in used_tracks or d in used_dets:
                    continue
                used_tracks.add(t)
                used_dets.add(d)
                tid = live[t]
                active[tid] = (frame, det_arr[d])
                boxes[tid].append((frame, frame_dets[d].box))
        for d, det in enumerate(frame_dets):
            if d not in used_dets:
                tid = next_id
                next_id += 1
                active[tid] = (frame, det_arr[d])
                boxes[tid] = [(frame, det.box)]
    tracks = [OutTrack(tid, tuple(items)) for tid, items in sorted(boxes.items())
              if len(items) >= min_track_len]
    return TrackSet(tuple(tracks))


@dataclass(frozen=True)
class BuiltinGreedyTracker:
    link_thr: float = 0.5
    max_gap: int = 1
    min_track_len: int = 1

    def __call__(self, dets: DetectionSet, sequence_id: str) -> TrackSet:
        return greedy_iou_track(dets, self.link_thr, self.max_gap,
                                self.min_track_len)


@dataclass(frozen=True)
class ExternalTracker:
    """Adapter invoking an external tracker executable per sequence."""

    command: str
    timeout: float | None = None
    workdir: str | None = None

    def __post_init__(self) -> None:
        if "{input}" not in self.command or "{output}" not in self.command:
            raise ValidationError(
                "external tracker command must contain {input} and {output} "
                "placeholders")

    def __call__(self, dets: DetectionSet, sequence_id: str) -> TrackSet:
        return run_external(self, dets, sequence_id)


def run_external(adapter: ExternalTracker, dets: DetectionSet,
                 sequence_id: str) -> TrackSet:
    base = adapter.workdir or os.environ.get(TMPDIR_ENV) or None
    workspace = tempfile.mkdtemp(prefix=f"detraceval-{sequence_id}-", dir=base)
    input_path = os.path.join(workspace, "detections.csv")
    output_path = os.path.join(workspace, "tracks.csv")
    with open(input_path, "w") as fh:
        write_detections(dets, fh)
    argv = [arg.format(input=input_path, output=output_path,
                       sequence=sequence_id)
            for arg in shlex.split(adapter.command)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=adapter.timeout)
    except subprocess.TimeoutExpired:
        raise TrackerError(
            f"tracker timed out after {adapter.timeout}s on sequence "
            f"{sequence_id!r}: {' '.join(argv)} (workspace kept: {workspace})")
    except OSError as exc:
        raise TrackerError(
            f"cannot run tracker command {argv[0]!r}: {exc} "
            f"(workspace kept: {workspace})") from exc
    if proc.returncode != 0:
        raise TrackerError(
            f"tracker exited with status {proc.returncode} on sequence "
            f"{sequence_id!r}; stderr: {proc.stderr.strip()!r} "
            f"(workspace kept: {workspace})")
    if not os.path.exists(output_path):
        raise TrackerError(
            f"tracker produced no output file on sequence {sequence_id!r} "
            f"(workspace kept: {workspace})")
    try:
        with open(output_path) as fh:
            tracks = parse_tracks(fh)
    except ValidationError as exc:
        raise TrackerError(
            f"unparseable tracker output on sequence {sequence_id!r}: {exc} "
            f"(workspace kept: {workspace})") from exc
    shutil.rmtree(workspace, ignore_errors=True)
    return tracks


def make_tracker(spec: str):
    """Build an adapter from a CLI spec: "builtin",
    "builtin:link_thr=0.4,max_gap=2,min_track_len=3" or "cmd:<template>"."""
    if spec == "builtin":
        return BuiltinGreedyTracker()
    if spec.startswith("builtin:"):
        kwargs: dict[str, float | int] = {}
        for part in spec[len("builtin:"):].split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key == "link_thr":
                kwargs[key] = float(value)
            elif key in ("max_gap", "min_track_len"):
                kwargs[key] = int(value)
            else:
                raise ValidationError(f"unknown builtin tracker option {key!r}")
        return BuiltinGreedyTracker(**kwargs)
    if spec.startswith("cmd:"):
        return ExternalTracker(spec[len("cmd:"):])
    raise ValidationError(
        f"bad tracker spec {spec!r}: expected 'builtin', 'builtin:<opts>' "
        f"or 'cmd:<template>'")
