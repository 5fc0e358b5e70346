"""The per-box detection and track containers as they were before the
library dropped them for `DetectionColumns` and `TrackColumns`, their
constructors copied verbatim. They are what `test_parsers.py`'s `old_*`
reference parsers build, so that the readers can be checked against the
per-line parsers they replaced, error texts included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from detraceval.datamodel import BBox, _as_int, _check


@dataclass(frozen=True)
class Detection:
    frame: int
    box: BBox
    score: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "frame", _as_int(self.frame, "Detection.frame"))
        _check(self.frame >= 1, f"Detection.frame must be >= 1, got {self.frame}")
        _check(math.isfinite(self.score),
               f"Detection.score must be finite, got {self.score!r}")


@dataclass(frozen=True)
class DetectionSet:
    detections: tuple[Detection, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", tuple(self.detections))

    def __iter__(self):
        return iter(self.detections)


@dataclass(frozen=True)
class OutTrack:
    track_id: int
    boxes: tuple[tuple[int, BBox], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "track_id",
                           _as_int(self.track_id, "OutTrack.track_id"))
        object.__setattr__(self, "boxes", tuple(
            (_as_int(f, f"output track {self.track_id}: frame"), b)
            for f, b in self.boxes))
        _check(self.track_id >= 1,
               f"track_id must be a positive integer, got {self.track_id}")
        frames = [f for f, _ in self.boxes]
        _check(all(a < b for a, b in zip(frames, frames[1:])),
               f"output track {self.track_id}: frames must be strictly increasing")
        _check(all(f >= 1 for f in frames),
               f"output track {self.track_id}: frames must be >= 1")


@dataclass(frozen=True)
class TrackSet:
    tracks: tuple[OutTrack, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tracks", tuple(self.tracks))
        seen: set[int] = set()
        for tr in self.tracks:
            _check(tr.track_id not in seen,
                   f"duplicate track_id {tr.track_id} in TrackSet")
            seen.add(tr.track_id)
