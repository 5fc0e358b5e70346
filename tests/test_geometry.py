import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detraceval.datamodel import (BBox, DetectionColumns, GroundTruth,
                                  IgnoreRegion)
from detraceval.geometry import (IGNORE_COVERAGE_THR, OcclusionClass,
                                 ScaleClass, covered,
                                 ignore_coverage, iou, iou_broadcast,
                                 iou_matrix, occlusion_class, scale_class)

boxes = st.builds(
    BBox,
    left=st.floats(-500, 500),
    top=st.floats(-500, 500),
    width=st.floats(0.5, 300),
    height=st.floats(0.5, 300),
)


def test_iou_identical():
    b = BBox(3, 4, 10, 20)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 5, 5)) == 0.0


def test_iou_closed_form():
    # intersection 5x10 = 50, union 200 - 50 = 150
    assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == pytest.approx(50 / 150)


def test_touching_edges_zero_area():
    assert iou(BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)) == 0.0


@given(boxes, boxes)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@given(boxes, boxes, st.floats(-100, 100), st.floats(-100, 100))
def test_iou_translation_invariance(a, b, tx, ty):
    shifted_a = BBox(a.left + tx, a.top + ty, a.width, a.height)
    shifted_b = BBox(b.left + tx, b.top + ty, b.width, b.height)
    assert iou(shifted_a, shifted_b) == pytest.approx(iou(a, b), abs=1e-9)


sizes = st.floats(0.5, 300)


@st.composite
def box_pairs(draw):
    """Two box lists near a shared origin, far from 0 on some draws; each
    box of the first list gets an identical, edge-touching, nested,
    disjoint or unrelated partner in the second."""
    ox, oy = draw(st.sampled_from(((0.0, 0.0), (1e6, -1e6), (-3e7, 5e8),
                                   (1e9, 1e9), (123456.789, 0.1))))
    coords = st.floats(-500, 500)
    base = draw(st.lists(st.builds(
        lambda x, y, w, h: BBox(ox + x, oy + y, w, h),
        coords, coords, sizes, sizes), min_size=1, max_size=6))
    partners = []
    for b in base:
        kind = draw(st.sampled_from(
            ("identical", "touch-x", "touch-y", "nested", "disjoint", "any")))
        if kind == "identical":
            partners.append(BBox(b.left, b.top, b.width, b.height))
        elif kind == "touch-x":
            partners.append(BBox(b.right, b.top, draw(sizes), b.height))
        elif kind == "touch-y":
            partners.append(BBox(b.left, b.bottom, b.width, draw(sizes)))
        elif kind == "nested":
            partners.append(BBox(b.left + b.width / 4, b.top + b.height / 4,
                                 b.width / 2, b.height / 2))
        elif kind == "disjoint":
            partners.append(BBox(b.right + draw(sizes), b.bottom + draw(sizes),
                                 draw(sizes), draw(sizes)))
        else:
            partners.append(BBox(ox + draw(coords), oy + draw(coords),
                                 draw(sizes), draw(sizes)))
    return base, draw(st.permutations(partners))


def _corners(boxes):
    """(n, 4) left, top, right, bottom rows of BBox objects."""
    return np.array([(b.left, b.top, b.right, b.bottom) for b in boxes],
                    dtype=np.float64).reshape(len(boxes), 4)


@given(box_pairs())
@settings(max_examples=300, deadline=None)
def test_iou_matrix_equals_scalar_iou_bit_for_bit(pair):
    a, b = pair
    got = iou_matrix(_corners(a), _corners(b))
    assert got.shape == (len(a), len(b)) and got.dtype == np.float64
    for i, box_a in enumerate(a):
        for j, box_b in enumerate(b):
            assert got[i, j] == iou(box_a, box_b), (i, j)


@given(box_pairs())
@settings(max_examples=300, deadline=None)
def test_iou_broadcast_row_aligned_equals_scalar_iou_bit_for_bit(pair):
    a, b = pair
    got = iou_broadcast(_corners(a), _corners(b))
    assert got.shape == (len(a),) and got.dtype == np.float64
    for i, (box_a, box_b) in enumerate(zip(a, b)):
        assert got[i] == iou(box_a, box_b), i


def test_iou_matrix_empty_sides():
    a = _corners([BBox(0, 0, 10, 10)])
    assert iou_matrix(a, _corners([])).shape == (1, 0)
    assert iou_matrix(_corners([]), a).shape == (0, 1)


def test_scale_bands():
    assert scale_class(BBox(0, 0, 50, 50)) is ScaleClass.SMALL
    assert scale_class(BBox(0, 0, 51, 51)) is ScaleClass.MEDIUM
    assert scale_class(BBox(0, 0, 150, 150)) is ScaleClass.MEDIUM
    assert scale_class(BBox(0, 0, 151, 151)) is ScaleClass.LARGE


def test_occlusion_bands():
    assert occlusion_class(0.0) is OcclusionClass.NONE
    assert occlusion_class(0.009) is OcclusionClass.NONE
    assert occlusion_class(0.01) is OcclusionClass.PARTIAL
    assert occlusion_class(0.5) is OcclusionClass.PARTIAL
    assert occlusion_class(0.51) is OcclusionClass.HEAVY


def test_ignore_coverage_no_regions():
    assert ignore_coverage(BBox(0, 0, 10, 10), [], 1) == 0.0


def test_ignore_coverage_fully_inside():
    box = BBox(5, 5, 10, 10)
    region = IgnoreRegion(BBox(0, 0, 50, 50))
    assert ignore_coverage(box, [region], 1) == 1.0


def test_ignore_coverage_overlapping_regions_not_double_counted():
    box = BBox(0, 0, 10, 10)
    regions = [IgnoreRegion(BBox(0, 0, 6, 10)), IgnoreRegion(BBox(4, 0, 6, 10))]
    assert ignore_coverage(box, regions, 1) == pytest.approx(1.0)


def test_ignore_coverage_respects_frame_range():
    box = BBox(0, 0, 10, 10)
    region = IgnoreRegion(BBox(0, 0, 10, 10), first_frame=3, last_frame=5)
    assert ignore_coverage(box, [region], 2) == 0.0
    assert ignore_coverage(box, [region], 4) == 1.0


def _grid_coverage(box, regions, frame, step=0.01):
    xs = np.arange(box.left + step / 2, box.right, step)
    ys = np.arange(box.top + step / 2, box.bottom, step)
    gx, gy = np.meshgrid(xs, ys)
    covered = np.zeros(gx.shape, dtype=bool)
    for region in regions:
        if not region.active_at(frame):
            continue
        r = region.box
        covered |= ((gx >= r.left) & (gx < r.right)
                    & (gy >= r.top) & (gy < r.bottom))
    return covered.mean() if covered.size else 0.0


def test_ignore_coverage_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        box = BBox(rng.uniform(0, 5), rng.uniform(0, 5),
                   rng.uniform(2, 8), rng.uniform(2, 8))
        regions = [
            IgnoreRegion(BBox(rng.uniform(-2, 8), rng.uniform(-2, 8),
                              rng.uniform(1, 6), rng.uniform(1, 6)))
            for _ in range(rng.integers(1, 4))
        ]
        exact = ignore_coverage(box, regions, 1)
        approx = _grid_coverage(box, regions, 1)
        assert abs(exact - approx) < 0.02


# Boxes and regions on a half-unit grid, frames 1-6: exact 0.5 coverage,
# shared edges, overlapping regions and frames on span edges are common.
_grid_boxes = st.builds(BBox, st.integers(0, 16).map(lambda v: v / 2),
                        st.integers(0, 16).map(lambda v: v / 2),
                        st.integers(1, 12).map(lambda v: v / 2),
                        st.integers(1, 12).map(lambda v: v / 2))
_spans = st.one_of(st.just((None, None)),
                   st.tuples(st.integers(1, 6), st.integers(0, 3)).map(
                       lambda t: (t[0], t[0] + t[1])))
_regions = st.lists(st.builds(lambda box, span: IgnoreRegion(box, *span),
                              _grid_boxes, _spans), max_size=4)
_rows = st.lists(st.tuples(_grid_boxes, st.integers(1, 6)), max_size=12)
_SQUARE = BBox(0, 0, 10, 10)


def _columns(rows, regions):
    """(DetectionColumns of the (box, frame) rows, IgnoreColumns of the
    regions): the arguments of `covered`."""
    ignore = GroundTruth("s", 10, (), ignore_regions=tuple(regions)).columns.ignore
    cols = DetectionColumns(
        *(np.array([getattr(b, k) for b, _ in rows], dtype=np.float64)
          for k in ("left", "top", "width", "height")),
        frame=np.array([f for _, f in rows], dtype=np.int64),
        score=np.ones(len(rows)))
    return cols, ignore


@settings(max_examples=300, deadline=None)
@given(_rows, _regions)
# coverage exactly 0.5 (not inside) and just above it
@example([(_SQUARE, 1)], [IgnoreRegion(BBox(0, 0, 5, 10))])
@example([(_SQUARE, 1)], [IgnoreRegion(BBox(0, 0, 5.5, 10))])
# overlapping regions: the union is 0.5 although the areas sum to 0.6
@example([(_SQUARE, 1)], [IgnoreRegion(BBox(0, 0, 3, 10)),
                          IgnoreRegion(BBox(2, 0, 3, 10))])
# frames just outside, on and inside the edges of a span
@example([(_SQUARE, f) for f in range(1, 7)],
         [IgnoreRegion(_SQUARE, 2, 4), IgnoreRegion(BBox(0, 0, 4, 10), 4, 5),
          IgnoreRegion(BBox(3, 0, 4, 10), 5, 6)])
def test_covered_equals_scalar_coverage_test(rows, regions):
    """`covered` is the scalar `ignore_coverage(...) > IGNORE_COVERAGE_THR`
    row by row, for static and frame-ranged, overlapping regions."""
    want = [ignore_coverage(b, regions, f) > IGNORE_COVERAGE_THR
            for b, f in rows]
    got = covered(*_columns(rows, regions))
    assert got.dtype == bool and got.tolist() == want


def test_covered_threshold_and_span_edges():
    regions = (IgnoreRegion(BBox(0, 0, 5, 10)),
               IgnoreRegion(BBox(20, 0, 10, 10), 2, 4))
    rows = [(BBox(0, 0, 10, 10), 1),    # exactly 0.5: not inside
            (BBox(0, 0, 9, 10), 1),     # 5/9
            (BBox(20, 0, 10, 10), 1),   # before the span
            (BBox(20, 0, 10, 10), 2),   # first frame of the span
            (BBox(20, 0, 10, 10), 4),   # last frame of the span
            (BBox(20, 0, 10, 10), 5)]   # after it
    assert covered(*_columns(rows, regions)).tolist() == [
        False, True, False, True, True, False]
