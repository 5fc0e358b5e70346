import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from box_columns import det_columns, track_columns
from detraceval import datamodel, geometry, matching, trackers
from detraceval.datamodel import (BBox, DetectionColumns, GroundTruth,
                                  GtEntry, GtTrack, IgnoreRegion,
                                  frame_chunks)
from detraceval.geometry import (IGNORE_COVERAGE_THR, OcclusionClass,
                                 ScaleClass, covered,
                                 ignore_coverage, iou, iou_broadcast,
                                 iou_edges, iou_matrix, occlusion_class,
                                 scale_class)

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
                                   (1e9, 1e9), (123456.789, 0.1),
                                   (2.0**53, 2.0**53))))
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


EDGE_THRESHOLDS = (0.0, 1e-9, 0.3, 0.5, 0.7, 1.0)


@st.composite
def edge_scenes(draw):
    """Two box sets, stored in shuffled row order, and the frame pairs
    `iou_edges` takes over them: each pair is a `box_pairs` draw (touching,
    nested, identical and disjoint partners), some near 2**53 where
    left + width rounds, each side cut to a drawn length, so sides differ
    in width and some are empty. Returns
    (a, a_order, a_lo, a_n, b, b_order, b_lo, b_n)."""
    sides = ([], [])
    counts = ([], [])
    for _ in range(draw(st.integers(1, 6))):
        for side, boxes in enumerate(draw(box_pairs())):
            boxes = boxes[:draw(st.integers(0, len(boxes)))]
            sides[side].extend(boxes)
            counts[side].append(len(boxes))
    out = []
    for boxes, n in zip(sides, counts):
        order = np.array(draw(st.permutations(range(len(boxes)))),
                         dtype=np.intp)
        n = np.array(n, dtype=np.intp)
        out += [_stored(boxes, order), order, np.cumsum(n) - n, n]
    return tuple(out)


def _stored(boxes, order):
    """Detection columns holding boxes[p] at row order[p]."""
    rows = [None] * len(boxes)
    for position, row in enumerate(order.tolist()):
        rows[row] = boxes[position]
    return det_columns(*((1, box, 0.5) for box in rows))


def _reference_edges(a, a_order, a_lo, a_n, b, b_order, b_lo, b_n, iou_thr):
    """`iou_matrix` once per frame pair with a box on each side, the pairs
    taken in the order `frame_chunks` gives them, and its entries kept at
    or above iou_thr in row-major order."""
    pairs = np.flatnonzero((a_n > 0) & (b_n > 0))
    rows = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
             np.empty(0))]
    for chunk in frame_chunks(a_n[pairs], b_n[pairs]):
        for k in pairs[chunk]:
            at = np.arange(a_lo[k], a_lo[k] + a_n[k])
            bt = np.arange(b_lo[k], b_lo[k] + b_n[k])
            m = iou_matrix(a.corners(a_order[at]), b.corners(b_order[bt]))
            i, j = np.nonzero(m >= iou_thr)
            rows.append((at[i], bt[j], m[i, j]))
    return tuple(map(np.concatenate, zip(*rows)))


def _one_pair(a_boxes, b_boxes, b_order):
    """An `edge_scenes` value of one frame pair, the b boxes (given in
    position order) stored at rows `b_order`."""
    a_order, b_order = np.arange(len(a_boxes)), np.array(b_order)
    return (_stored(a_boxes, a_order), a_order, np.array([0]),
            np.array([len(a_boxes)]), _stored(b_boxes, b_order), b_order,
            np.array([0]), np.array([len(b_boxes)]))


@pytest.mark.parametrize("budget", ("default", 1))
@given(edge_scenes())
# left + width rounds to left at 2**53: zero-width boxes, IoU 0 or 1.
@example(_one_pair([BBox(2.0**53, 0.0, 1.0, 5.0), BBox(2.0**53, 0.0, 3.0, 5.0),
                    BBox(2.0**53 + 2.0, 0.0, 1.0, 5.0)],
                   [BBox(2.0**53, 0.0, 1.0, 5.0),
                    BBox(2.0**53 + 2.0, 0.0, 2.0, 5.0),
                    BBox(2.0**53 - 2.0, 0.0, 2.0, 5.0)], [2, 0, 1]))
# A shared edge has IoU 0: an edge at threshold 0 only.
@example(_one_pair([BBox(0.0, 0.0, 10.0, 10.0)],
                   [BBox(10.0, 0.0, 10.0, 10.0), BBox(0.0, 10.0, 10.0, 10.0)],
                   [1, 0]))
@settings(max_examples=150, deadline=None)
def test_iou_edges_equals_iou_matrix_per_frame_pair(budget, scene):
    """The candidate prefilter drops no edge: at every threshold, in
    padded chunks or one frame pair a chunk, `iou_edges` gives the
    reference's (a, b, IoU) triples in its order, each IoU bit for bit."""
    with pytest.MonkeyPatch.context() as patch:
        if budget != "default":
            patch.setattr(datamodel, "EDGE_CHUNK_PAIRS", budget)
        for iou_thr in EDGE_THRESHOLDS:
            got = iou_edges(*scene, iou_thr)
            want = _reference_edges(*scene, iou_thr)
            assert got[0].tolist() == want[0].tolist(), iou_thr
            assert got[1].tolist() == want[1].tolist(), iou_thr
            assert got[2].tobytes() == want[2].tobytes(), iou_thr


def _lane_scene(n_lanes=6, n_frames=30):
    """The `mot-long` shape at small size: boxes 40 px wide in lanes 60 px
    apart, never overlapping across lanes, and hypotheses that are the GT
    shifted right by 1 px, as tracks and as detections. Lane l is absent
    from the frames f with (f + l) % 4 == 0, so frames differ in width and
    chunks pad."""
    entries = {lane: [] for lane in range(n_lanes)}
    for frame in range(1, n_frames + 1):
        for lane in range(n_lanes):
            if (frame + lane) % 4:
                entries[lane].append((frame, BBox(60.0 * lane + 0.1 * frame,
                                                  200.0 + 3.0 * lane,
                                                  40.0, 40.0)))
    gt = GroundTruth("lanes", n_frames, [
        GtTrack(lane + 1, [GtEntry(frame, box) for frame, box in boxes])
        for lane, boxes in entries.items()])
    shifted = {lane: [(frame, BBox(box.left + 1.0, box.top, box.width,
                                   box.height)) for frame, box in boxes]
               for lane, boxes in entries.items()}
    tracks = track_columns(*((lane + 1, boxes)
                             for lane, boxes in shifted.items()))
    dets = det_columns(*((frame, box, 0.5) for boxes in shifted.values()
                         for frame, box in boxes))
    return gt.columns, tracks, dets


def test_iou_kernel_sees_only_candidate_pairs(monkeypatch):
    """The prefilter stays in place: on disjoint lanes the kernel gets as
    many pairs as there are edges at 0.7 (for the link table too), and
    every same-frame pair, not the padded ones, at 0."""
    gt, tracks, dets = _lane_scene()
    seen = [0]

    def counted(a, b):
        out = iou_broadcast(a, b)
        seen[0] += out.size
        return out
    monkeypatch.setattr(geometry, "iou_broadcast", counted)
    _, per_frame = np.unique(gt.frame, return_counts=True)
    same_frame = int((per_frame ** 2).sum())
    for iou_thr, want in ((0.7, len(gt)), (0.0, same_frame)):
        seen[0] = 0
        table = matching.edge_table(gt, tracks, iou_thr)
        assert len(table.iou) == seen[0] == want, iou_thr
    padded = sum(len(chunk) * int(per_frame[chunk].max()) ** 2
                 for chunk in frame_chunks(per_frame, per_frame))
    assert padded > same_frame
    seen[0] = 0
    links = trackers.link_table(dets, 0.5, 2)
    assert len(links.iou) == seen[0] > 0


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
_UNIT = BBox(0, 0, 1, 1)
_TOP = 2 ** 63 - 1  # the largest int64 frame


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
# one region: coverage exactly 0.5, and the next float above it
@example([(_UNIT, 1)], [IgnoreRegion(BBox(0, 0, 0.5, 1))])
@example([(_UNIT, 1)], [IgnoreRegion(BBox(0, 0, math.nextafter(0.5, 1), 1))])
# regions that touch the box's edges clip nothing
@example([(_SQUARE, 1)], [IgnoreRegion(BBox(10, 0, 10, 10)),
                          IgnoreRegion(BBox(0, -10, 10, 10)),
                          IgnoreRegion(BBox(-10, 0, 10, 10), 1, 1)])
# two overlapping regions clip one box, a third one another box
@example([(_SQUARE, 1), (BBox(20, 0, 10, 10), 1)],
         [IgnoreRegion(BBox(-5, 0, 9, 10)), IgnoreRegion(BBox(2, 2, 6, 6)),
          IgnoreRegion(BBox(20, 0, 6, 10))])
# spans that start, end, or start and end at the box's frame
@example([(_SQUARE, 3)], [IgnoreRegion(BBox(0, 0, 3, 10), 3, 5),
                          IgnoreRegion(BBox(7, 0, 3, 10), 1, 3)])
@example([(_SQUARE, 3), (_SQUARE, 4)], [IgnoreRegion(BBox(0, 0, 6, 10), 3, 3)])
# frames and spans at the int64 maximum, where float64 cannot tell
# neighbouring frames apart: only the frame _TOP - 2 box is inside
@example([(_SQUARE, _TOP), (_SQUARE, _TOP - 1), (_SQUARE, _TOP - 2)],
         [IgnoreRegion(BBox(0, 0, 4, 10), _TOP, _TOP),
          IgnoreRegion(BBox(4, 0, 4, 10), _TOP - 2, _TOP - 2),
          IgnoreRegion(BBox(8, 0, 2, 10), 1, _TOP - 1)])
def test_covered_equals_scalar_coverage_test(rows, regions):
    """`covered` is the scalar `ignore_coverage(...) > IGNORE_COVERAGE_THR`
    row by row, for static and frame-ranged, overlapping regions."""
    want = [ignore_coverage(b, regions, f) > IGNORE_COVERAGE_THR
            for b, f in rows]
    got = covered(*_columns(rows, regions))
    assert got.dtype == bool and got.tolist() == want


_near_boxes = st.builds(BBox, st.floats(-20, 20), st.floats(-20, 20),
                        st.floats(0.5, 30), st.floats(0.5, 30))
_float_spans = st.one_of(st.just((None, None)),
                         st.tuples(st.integers(-3, 6), st.integers(0, 4)).map(
                             lambda t: (t[0], t[0] + t[1])))
_float_regions = st.lists(st.builds(lambda box, span: IgnoreRegion(box, *span),
                                    _near_boxes, _float_spans), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_near_boxes, st.integers(1, 6)), max_size=12),
       _float_regions)
def test_covered_equals_scalar_coverage_on_float_boxes(rows, regions):
    """Off the grid too: boxes and regions with arbitrary float corners,
    where one-region coverages are rarely round numbers."""
    want = [ignore_coverage(b, regions, f) > IGNORE_COVERAGE_THR
            for b, f in rows]
    assert covered(*_columns(rows, regions)).tolist() == want


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
