"""Tracking subjects for the sweep: a built-in greedy IoU linker and an
adapter that shells out to an external tracker executable.

Both take one sequence's detections as `DetectionColumns` and return
`TrackColumns`, rows sorted by (track_id, frame) as `read_tracks` gives
them.

External tracker contract, in files: the command template receives {input}
(detection CSV, written by `write_detections`), {output} (track CSV to
produce, read by `read_tracks`) and optionally {sequence}; exit 0 means
success. The workspace directory is removed on success and kept for
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

from .datamodel import (DetectionColumns, TrackColumns, ValidationError,
                        read_tracks, write_detections)
from .geometry import iou_matrix

TMPDIR_ENV = "DETRACEVAL_TMPDIR"


class TrackerError(RuntimeError):
    """An external tracker run failed; the message carries diagnostics."""


def greedy_iou_track(dets: DetectionColumns, link_thr: float = 0.5,
                     max_gap: int = 1, min_track_len: int = 1) -> TrackColumns:
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
    frames = np.unique(frame)
    bounds = zip(frames.tolist(), np.searchsorted(frame, frames, "left").tolist(),
                 np.searchsorted(frame, frames, "right").tolist())
    track = np.empty(len(order), dtype=np.int64)  # track id of each row
    # active: track id -> (last frame, row of its last box)
    active: dict[int, tuple[int, int]] = {}
    next_id = 1
    for f, lo, hi in bounds:
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


@dataclass(frozen=True)
class BuiltinGreedyTracker:
    link_thr: float = 0.5
    max_gap: int = 1
    min_track_len: int = 1

    def __post_init__(self) -> None:
        # `not 0 < x <= 1` also rejects nan, which links nothing.
        if not 0.0 < self.link_thr <= 1.0:
            raise ValidationError(
                f"builtin tracker option link_thr: expected a number in "
                f"(0, 1], got {self.link_thr!r}")
        if self.max_gap < 0:
            raise ValidationError(
                f"builtin tracker option max_gap: expected an integer >= 0, "
                f"got {self.max_gap!r}")
        if self.min_track_len < 1:
            raise ValidationError(
                f"builtin tracker option min_track_len: expected an integer "
                f">= 1, got {self.min_track_len!r}")

    def __call__(self, dets: DetectionColumns, sequence_id: str) -> TrackColumns:
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
        try:
            argv = shlex.split(self.command)
        except ValueError as exc:
            raise ValidationError(
                f"bad external tracker command {self.command!r}: {exc}") from None
        # Split and trial-fill once here, so a bad template fails before any
        # workspace exists; run_external fills in the placeholders per
        # sequence.
        for arg in argv:
            try:
                arg.format(input="detections.csv", output="tracks.csv",
                           sequence="sequence")
            except (KeyError, IndexError, ValueError, AttributeError,
                    TypeError) as exc:
                raise ValidationError(
                    f"bad external tracker command {self.command!r}: cannot "
                    f"fill in {arg!r} ({type(exc).__name__}: {exc}); the "
                    f"placeholders are {{input}}, {{output}} and {{sequence}}, "
                    f"and a literal brace is written {{{{ or }}}}") from None
        object.__setattr__(self, "_argv", tuple(argv))

    def __call__(self, dets: DetectionColumns, sequence_id: str) -> TrackColumns:
        return run_external(self, dets, sequence_id)


def run_external(adapter: ExternalTracker, dets: DetectionColumns,
                 sequence_id: str) -> TrackColumns:
    base = adapter.workdir or os.environ.get(TMPDIR_ENV) or None
    workspace = tempfile.mkdtemp(prefix=f"detraceval-{sequence_id}-", dir=base)
    input_path = os.path.join(workspace, "detections.csv")
    output_path = os.path.join(workspace, "tracks.csv")
    with open(input_path, "w") as fh:
        write_detections(dets, fh)
    argv = [arg.format(input=input_path, output=output_path,
                       sequence=sequence_id)
            for arg in adapter._argv]
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
            tracks = read_tracks(fh)
    except ValidationError as exc:
        raise TrackerError(
            f"unparseable tracker output on sequence {sequence_id!r}: {exc} "
            f"(workspace kept: {workspace})") from exc
    shutil.rmtree(workspace, ignore_errors=True)
    return tracks


# builtin tracker option -> the type its value is read as
_BUILTIN_OPTIONS = {"link_thr": float, "max_gap": int, "min_track_len": int}


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
            kind = _BUILTIN_OPTIONS.get(key)
            if kind is None:
                raise ValidationError(f"unknown builtin tracker option {key!r}")
            try:
                kwargs[key] = kind(value)
            except ValueError:
                raise ValidationError(
                    f"builtin tracker option {key}: expected "
                    f"{'an integer' if kind is int else 'a number'}, "
                    f"got {value!r}") from None
        return BuiltinGreedyTracker(**kwargs)
    if spec.startswith("cmd:"):
        return ExternalTracker(spec[len("cmd:"):])
    raise ValidationError(
        f"bad tracker spec {spec!r}: expected 'builtin', 'builtin:<opts>' "
        f"or 'cmd:<template>'")
