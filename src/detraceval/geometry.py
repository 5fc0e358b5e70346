"""Rectangle arithmetic: IoU, ignore-region coverage, scale and occlusion bands.

Band boundaries are upper-inclusive: scale (0,50] small, (50,150] medium,
(150,inf) large; occlusion [0,0.01) none, [0.01,0.5] partial, (0.5,1] heavy.
Boxes are half-open rectangles, so touching edges intersect with zero area.

`iou` is the scalar reference; `iou_broadcast` is the one array kernel. It
equals `iou` entry for entry, bit for bit, on row-aligned pairs and, as
`iou_matrix`, on every pair of two box sets. Likewise `scale_bands`,
`occlusion_bands` and `ignore_coverages` are the column forms of
`scale_class`, `occlusion_class` and `ignore_coverage`, with the same
results row by row.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .datamodel import BBox, IgnoreColumns, IgnoreRegion

# Upper edges of the scale bands (sqrt of box area) and of the occlusion
# bands; see the module docstring for which side of each edge is included.
SCALE_SMALL_MAX = 50.0
SCALE_MEDIUM_MAX = 150.0
OCCLUSION_NONE_BELOW = 0.01
OCCLUSION_PARTIAL_MAX = 0.5


class ScaleClass(enum.Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


class OcclusionClass(enum.Enum):
    NONE = "none"
    PARTIAL = "partial"
    HEAVY = "heavy"


def intersection_area(a: BBox, b: BBox) -> float:
    w = min(a.right, b.right) - max(a.left, b.left)
    h = min(a.bottom, b.bottom) - max(a.top, b.top)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def iou(a: BBox, b: BBox) -> float:
    inter = intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    # derive areas from the same corner coordinates as the intersection so
    # that identical boxes give exactly 1.0 and rounding stays monotone
    area_a = (a.right - a.left) * (a.bottom - a.top)
    area_b = (b.right - b.left) * (b.bottom - b.top)
    return inter / (area_a + area_b - inter)


def box_array(boxes: Sequence[BBox]) -> np.ndarray:
    """(n, 4) float64 array of left, top, right, bottom, taken from the
    `BBox` properties so that every corner equals the scalar path's."""
    return np.array([(b.left, b.top, b.right, b.bottom) for b in boxes],
                    dtype=np.float64).reshape(len(boxes), 4)


def iou_broadcast(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of `a[..., :]` with `b[..., :]`, rows of left, top, right, bottom
    (`box_array` layout) broadcast against each other: two (n, 4) arrays
    give the n row-aligned IoUs, (n, 1, 4) against (1, m, 4) the n x m
    matrix.

    Bit-identical to `iou`: every entry runs the scalar operation order in
    IEEE float64, that is, clipped width and height from min/max of
    corners, intersection 0 unless both are > 0 and their product is
    non-zero, areas from corner differences rather than width * height,
    union as (area_a + area_b) - inter, and the division last.
    """
    w = (np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0]))
    h = (np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1]))
    inter = np.where((w > 0.0) & (h > 0.0), w * h, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=inter != 0.0)
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of `a` with every row of `b`, both `box_array`s:
    `iou_broadcast` over (n, 1, 4) and (1, m, 4) views."""
    return iou_broadcast(a[:, None, :], b[None, :, :])


def scale_class(box: BBox) -> ScaleClass:
    scale = math.sqrt(box.area)
    if scale <= SCALE_SMALL_MAX:
        return ScaleClass.SMALL
    if scale <= SCALE_MEDIUM_MAX:
        return ScaleClass.MEDIUM
    return ScaleClass.LARGE


def scale_bands(width: np.ndarray, height: np.ndarray) -> np.ndarray:
    """`scale_class(box).value` of every box: sqrt(width * height) in
    float64, as `scale_class` computes it from `BBox.area`."""
    scale = np.sqrt(width * height)
    return np.where(scale <= SCALE_SMALL_MAX, ScaleClass.SMALL.value,
                    np.where(scale <= SCALE_MEDIUM_MAX, ScaleClass.MEDIUM.value,
                             ScaleClass.LARGE.value))


def occlusion_class(ratio: float) -> OcclusionClass:
    if ratio < OCCLUSION_NONE_BELOW:
        return OcclusionClass.NONE
    if ratio <= OCCLUSION_PARTIAL_MAX:
        return OcclusionClass.PARTIAL
    return OcclusionClass.HEAVY


def occlusion_bands(ratio: np.ndarray) -> np.ndarray:
    """`occlusion_class(r).value` of every ratio."""
    return np.where(ratio < OCCLUSION_NONE_BELOW, OcclusionClass.NONE.value,
                    np.where(ratio <= OCCLUSION_PARTIAL_MAX,
                             OcclusionClass.PARTIAL.value,
                             OcclusionClass.HEAVY.value))


def _union_area(rects: list[tuple[float, float, float, float]]) -> float:
    """Exact area of a union of (x0, y0, x1, y1) rectangles by coordinate
    compression: sweep x-strips, merge y-intervals inside each strip."""
    xs = sorted({x for r in rects for x in (r[0], r[2])})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        if x1 <= x0:
            continue
        intervals = sorted((r[1], r[3]) for r in rects if r[0] <= x0 and r[2] >= x1)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += (x1 - x0) * covered
    return total


def box_coverage(corners: Sequence[float], area: float,
                 regions: Sequence[Sequence[float]]) -> float:
    """Fraction of the box with `corners` (left, top, right, bottom) and
    `area` covered by the union of `regions`, each given by its corners."""
    left, top, right, bottom = corners
    clipped = []
    for r_left, r_top, r_right, r_bottom in regions:
        x0 = max(left, r_left)
        y0 = max(top, r_top)
        x1 = min(right, r_right)
        y1 = min(bottom, r_bottom)
        if x1 > x0 and y1 > y0:
            clipped.append((x0, y0, x1, y1))
    if not clipped:
        return 0.0
    return _union_area(clipped) / area


def ignore_coverage(box: BBox, regions: Sequence[IgnoreRegion], frame: int) -> float:
    """Fraction of `box` covered by the union of ignore regions active at `frame`."""
    return box_coverage(
        (box.left, box.top, box.right, box.bottom), box.area,
        [(r.box.left, r.box.top, r.box.right, r.box.bottom)
         for r in regions if r.active_at(frame)])


def ignore_coverages(corners: np.ndarray, areas: np.ndarray,
                     frames: np.ndarray, ignore: IgnoreColumns) -> np.ndarray:
    """Coverage of every box by the ignore regions active at its frame:
    row i equals `ignore_coverage` of the box with `corners[i]` (left, top,
    right, bottom) and area `areas[i]` (width * height) at `frames[i]`.

    One array test, with `box_coverage`'s max/min and `>` comparisons,
    finds the boxes that some active region clips. A box that no region
    clips has coverage exactly 0.0; only the clipped boxes go through the
    scalar `box_coverage`, given the regions that clip them, which are the
    ones it would keep from all active regions.
    """
    out = np.zeros(len(frames))
    if not len(ignore) or not len(frames):
        return out
    regions = ignore.corners()
    box, reg = corners[:, None, :], regions[None, :, :]
    unique_frames, at = np.unique(frames, return_inverse=True)
    clips = (ignore.active(unique_frames.tolist())[at]
             & (np.minimum(box[..., 2], reg[..., 2])
                > np.maximum(box[..., 0], reg[..., 0]))
             & (np.minimum(box[..., 3], reg[..., 3])
                > np.maximum(box[..., 1], reg[..., 1])))
    region_rows = regions.tolist()
    for i in np.flatnonzero(clips.any(axis=1)).tolist():
        out[i] = box_coverage(corners[i].tolist(), float(areas[i]),
                              [region_rows[j] for j in np.flatnonzero(clips[i])])
    return out
