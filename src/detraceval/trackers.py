"""Tracking subjects for the sweep: a built-in greedy IoU linker and an
adapter that shells out to an external tracker executable.

Both take one sequence's detections as `DetectionColumns` and return
`TrackColumns`, rows sorted by (track_id, frame) as `read_tracks` gives
them. The builtin linker also has one per-sequence entry point for the
threshold sweep, ``by_threshold(dets, sequence_id)``, which returns a
function of the score threshold tau (`TracksAt`): it gives what a call on
``dets.take(dets.score >= tau)`` returns, and the row of `dets` behind
each track row, or None where the tracker cannot say. The sweep makes it
once per sequence, so only the tracker's per-threshold step and CLEAR run
once per threshold. The builtin linker computes its link IoUs there, once
per sequence, in one `LinkTable` (`geometry.iou_edges` over the frame
pairs up to max_gap + 1 frames apart), and links each threshold's rows
from that table; its track rows are detection rows with their boxes
unchanged, so it names them, and the sweep's CLEAR reads their IoUs from
the sequence's GT x detection table. A tracker without an entry point,
such as a `cmd:` tracker, is called once per threshold on the thinned
detections, and names no rows.

External tracker contract, in files: the command template receives {input}
(detection CSV, written by `write_detections`), {output} (track CSV to
produce, read by `read_tracks`) and optionally {sequence}, the raw
sequence id; exit 0 means success. Both files are UTF-8. The tracker's
stdout and stderr are captured as bytes and never decoded on success; a
failure message quotes stderr decoded as UTF-8, with a byte that is not
UTF-8 read as U+FFFD, so what a tracker prints cannot fail a run. The
workspace directory is made under ``$DETRACEVAL_TMPDIR`` when it is set,
else the system temporary directory; it is removed on success and kept for
inspection on failure.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datamodel import (DetectionColumns, TrackColumns, ValidationError,
                        distinct, read_tracks, write_detections)
from .geometry import iou_edges

TMPDIR_ENV = "DETRACEVAL_TMPDIR"


# A per-sequence entry point (`by_threshold`): threshold tau -> the tracks,
# and the detection row behind each track row, or None when unknown.
TracksAt = Callable[[float], tuple[TrackColumns, np.ndarray | None]]


class TrackerError(RuntimeError):
    """An external tracker run failed; the message carries diagnostics."""


@dataclass(frozen=True, eq=False)
class LinkTable:
    """Step 1 of the greedy IoU linker, one sequence's worth: every link
    (source row, destination row, IoU) with 1 <= frame[dst] - frame[src]
    <= max_gap + 1 and IoU >= link_thr. Rows are positions in `order`, the
    detections sorted by frame (stable, so input order within a frame).
    Links are sorted by destination frame, then descending IoU, then
    destination row: the greedy rank wherever a frame's IoUs differ; then
    by lag and source row."""

    dets: DetectionColumns
    order: np.ndarray
    frame: np.ndarray  # frame of each sorted row
    src: np.ndarray
    dst: np.ndarray
    iou: np.ndarray

    def tracks(self, keep: np.ndarray | None = None,
               min_track_len: int = 1) -> tuple[TrackColumns, np.ndarray]:
        """Step 2: the greedy link of the rows `keep` selects (a mask in
        input order; every row if None), as `greedy_iou_track` documents,
        and the detection row (input order) behind each track row.

        A link takes part when both its rows are kept. At each frame the
        candidates are the links whose source row is still the last row of
        its track, ranked by (-IoU, track, destination row); a candidate
        whose track or destination row is taken is skipped. Tracks are
        numbered in creation order, which is the order of their first rows,
        so the rank reads a track's first row and ids are given after the
        loop. Kept rows that no link reaches start tracks."""
        kept = (np.ones(len(self.order), dtype=bool) if keep is None
                else keep[self.order])
        on = kept[self.src] & kept[self.dst]
        src, dst, iou = self.src[on], self.dst[on], self.iou[on]
        # Frames where two links tie on IoU: there the rank needs the
        # tracks' first rows, known only once the earlier frames are linked.
        frame = self.frame[dst]
        tie = (frame[1:] == frame[:-1]) & (iou[1:] == iou[:-1])
        tied = distinct(frame[1:][tie])
        head = np.array(_greedy_link(
            len(kept), src.tolist(), dst.tolist(), iou.tolist(),
            list(zip(np.searchsorted(frame, tied).tolist(),
                     np.searchsorted(frame, tied, "right").tolist()))),
            dtype=np.intp)
        rows = np.flatnonzero(kept)
        # A track's id: the number of tracks whose first row is not later.
        track = np.cumsum(kept & (head == np.arange(len(kept))))[head[rows]]
        by_track = np.argsort(track, kind="stable")
        by_track = by_track[np.bincount(track)[track[by_track]]
                            >= min_track_len]
        out = self.order[rows[by_track]]
        dets = self.dets
        return TrackColumns(dets.left[out], dets.top[out], dets.width[out],
                            dets.height[out], frame=dets.frame[out],
                            track_id=track[by_track]), out


def _greedy_link(n_rows: int, src: list[int], dst: list[int],
                 iou: list[float], tied: list[tuple[int, int]]) -> list[int]:
    """The frame-by-frame greedy pass over links in `LinkTable` order, with
    the links of each tied frame lo:hi re-ranked by (-IoU, first row of the
    source's track, destination row). Returns the first row of each row's
    track."""
    first = list(range(n_rows))  # first[d] < d once d is linked to
    extended = bytearray(n_rows)  # rows no longer the last of their track

    def link(pairs) -> None:
        for s, d in pairs:
            if extended[s] or first[d] != d:
                continue
            extended[s] = 1
            first[d] = first[s]

    done = 0
    for lo, hi in tied + [(len(src), len(src))]:
        link(zip(src[done:lo], dst[done:lo]))
        ranked = sorted(zip(iou[lo:hi], src[lo:hi], dst[lo:hi]),
                        key=lambda e: (-e[0], first[e[1]], e[2]))
        link((s, d) for _, s, d in ranked)
        done = hi
    return first


def link_table(dets: DetectionColumns, link_thr: float = 0.5,
               max_gap: int = 1) -> LinkTable:
    """Step 1 of `greedy_iou_track` (see `LinkTable`). The frame pairs at
    most max_gap + 1 present frames apart, at each lag, go through one
    `geometry.iou_edges` call, so each IoU is bit for bit the one an
    `iou_matrix` of the two frames gives."""
    order = np.argsort(dets.frame, kind="stable")
    frame = dets.frame[order]
    frames, lo, n = np.unique(frame, return_index=True, return_counts=True)
    # Present frames are distinct, so lag k spans at least k frames: the
    # lags end within the sequence's frame span, whatever max_gap is.
    # Lag k also needs k + 1 present frames.
    reach = min(max_gap + 1, int(frames[-1] - frames[0])) if len(frames) else 0
    lags = range(1, min(reach, len(frames) - 1) + 1)
    s = [np.flatnonzero(frames[lag:] - frames[:-lag] <= reach) for lag in lags]
    d = [a + lag for a, lag in zip(s, lags)]
    s, d = (np.concatenate([np.empty(0, dtype=np.intp), *x]) for x in (s, d))
    src, dst, iou = iou_edges(dets, order, lo[s], n[s], dets, order, lo[d],
                              n[d], link_thr)
    rank = np.lexsort((src, -frame[src], dst, -iou, frame[dst]))
    return LinkTable(dets, order, frame, src[rank], dst[rank], iou[rank])


def greedy_iou_track(dets: DetectionColumns, link_thr: float = 0.5,
                     max_gap: int = 1, min_track_len: int = 1) -> TrackColumns:
    """Frame-by-frame greedy IoU linking.

    Each frame's detections are linked to active tracks in descending IoU to
    the track's last box (ties by track age, then input order); links below
    link_thr are rejected, leftovers start new tracks, and a track idle for
    more than max_gap frames is closed. Tracks shorter than min_track_len
    are suppressed from the output. Deterministic given input order.
    Returns the linked detections as rows sorted by (track_id, frame), the
    layout of `read_tracks`. Runs `link_table`, then `LinkTable.tracks`.
    """
    return link_table(dets, link_thr, max_gap).tracks(None, min_track_len)[0]


def _is_int(value) -> bool:
    return type(value) is int or isinstance(value, np.integer)


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
        # A bool, a float (nan and 1.5 too) or a string is not an integer.
        if not (_is_int(self.max_gap) and self.max_gap >= 0):
            raise ValidationError(
                f"builtin tracker option max_gap: expected an integer >= 0, "
                f"got {self.max_gap!r}")
        if not (_is_int(self.min_track_len) and self.min_track_len >= 1):
            raise ValidationError(
                f"builtin tracker option min_track_len: expected an integer "
                f">= 1, got {self.min_track_len!r}")

    def __call__(self, dets: DetectionColumns, sequence_id: str) -> TrackColumns:
        return greedy_iou_track(dets, self.link_thr, self.max_gap,
                                self.min_track_len)

    def by_threshold(self, dets: DetectionColumns,
                     sequence_id: str) -> TracksAt:
        """The sequence's tracks at each score threshold tau, equal to
        ``self(dets.take(dets.score >= tau), sequence_id)``, and the row of
        `dets` behind each track row: the link table is built once, here,
        over all of `dets`, and each call links the rows with score >= tau."""
        table = link_table(dets, self.link_thr, self.max_gap)
        return lambda tau: table.tracks(dets.score >= tau, self.min_track_len)


@dataclass(frozen=True)
class ExternalTracker:
    """Adapter invoking an external tracker executable per sequence."""

    command: str
    timeout: float | None = None

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
    base = os.environ.get(TMPDIR_ENV) or None
    # The id goes into a directory name: path separators and other
    # characters become "_", and the length stays within NAME_MAX.
    safe_id = re.sub(r"[^A-Za-z0-9._-]", "_", sequence_id)[:64]
    workspace = tempfile.mkdtemp(prefix=f"detraceval-{safe_id}-", dir=base)
    input_path = os.path.join(workspace, "detections.csv")
    output_path = os.path.join(workspace, "tracks.csv")
    with open(input_path, "w", encoding="utf-8") as fh:
        write_detections(dets, fh)
    argv = [arg.format(input=input_path, output=output_path,
                       sequence=sequence_id)
            for arg in adapter._argv]
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=adapter.timeout)
    except subprocess.TimeoutExpired:
        raise TrackerError(
            f"tracker timed out after {adapter.timeout}s on sequence "
            f"{sequence_id!r}: {' '.join(argv)} (workspace kept: {workspace})")
    except OSError as exc:
        raise TrackerError(
            f"cannot run tracker command {argv[0]!r}: {exc} "
            f"(workspace kept: {workspace})") from exc
    if proc.returncode != 0:
        # Decoded as text mode would under a UTF-8 locale, newlines included,
        # but never failing: bytes that are not UTF-8 read as U+FFFD.
        stderr = proc.stderr.decode("utf-8", "replace")
        stderr = stderr.replace("\r\n", "\n").replace("\r", "\n").strip()
        raise TrackerError(
            f"tracker exited with status {proc.returncode} on sequence "
            f"{sequence_id!r}; stderr: {stderr!r} "
            f"(workspace kept: {workspace})")
    if not os.path.exists(output_path):
        raise TrackerError(
            f"tracker produced no output file on sequence {sequence_id!r} "
            f"(workspace kept: {workspace})")
    try:
        with open(output_path, encoding="utf-8") as fh:
            tracks = read_tracks(fh)
    except (ValidationError, UnicodeDecodeError) as exc:
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
            if key in kwargs:
                raise ValidationError(
                    f"builtin tracker option {key}: expected one value, got "
                    f"{value!r} after {kwargs[key]!r}")
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
