"""The frame walk of the per-frame reference loops (`reference_labeler`,
`reference_linker` and the CLEAR frame walk of `test_mot_metrics`): each
frame's row ranges in frame columns sorted ascending. The library walks
frames by its own per-frame counts (`matching.split_conflicts`), so the
references share no frame walk with the code they check.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def frame_slices(frames: np.ndarray,
                 *columns: np.ndarray) -> Iterator[tuple[int, ...]]:
    """(frame, lo_1, hi_1, lo_2, hi_2, ...) for each of `frames`: each
    column is a frame column sorted ascending, and its rows lo_k:hi_k are
    the ones at that frame."""
    bounds = [np.searchsorted(col, frames, side).tolist()
              for col in columns for side in ("left", "right")]
    return zip(frames.tolist(), *bounds)
