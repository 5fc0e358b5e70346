"""Detection and track columns built in code, for the tests: the library
has no per-box detection or track type, so a test states its boxes as
rows and gets the columns the readers and trackers give."""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

from detraceval.datamodel import (BBox, DetectionColumns, TrackColumns,
                                  _box_columns, _floats, _ints)


def det_columns(*dets: tuple[int, BBox, float]) -> DetectionColumns:
    """One row per (frame, box, score), in the order given."""
    return DetectionColumns(**_box_columns([box for _, box, _ in dets]),
                            frame=_ints([frame for frame, _, _ in dets]),
                            score=_floats([score for _, _, score in dets]))


def track_columns(*tracks: tuple[int, Iterable[tuple[int, BBox]]]) -> TrackColumns:
    """One row per (frame, box) of each (track_id, boxes), in the order
    given: tracks in turn, each track's boxes in turn."""
    rows = [(track_id, frame, box) for track_id, boxes in tracks
            for frame, box in boxes]
    return TrackColumns(**_box_columns([box for _, _, box in rows]),
                        frame=_ints([frame for _, frame, _ in rows]),
                        track_id=_ints([track_id for track_id, _, _ in rows]))


def concat(first, *rest):
    """Column sets of one class joined: the rows of each in turn."""
    parts = (first, *rest)
    return type(first)(**{field.name: np.concatenate(
        [getattr(part, field.name) for part in parts])
        for field in dataclasses.fields(first)})


def relabel(tracks: TrackColumns, mapping: dict[int, int]) -> TrackColumns:
    """`tracks` with every track id t replaced by mapping[t]."""
    return dataclasses.replace(tracks, track_id=_ints(
        [mapping[track_id] for track_id in tracks.track_id.tolist()]))


def round_scores(dets: DetectionColumns, digits: int) -> DetectionColumns:
    """`dets` with every score rounded by Python's `round`."""
    return dataclasses.replace(dets, score=_floats(
        [round(score, digits) for score in dets.score.tolist()]))
