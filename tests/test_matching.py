import itertools
import math

import numpy as np
import pytest

from detraceval.datamodel import BBox, Detection
from detraceval.geometry import box_array, iou
from detraceval.matching import (FORBIDDEN, clear_correspond, hungarian,
                                 match_frame_greedy)


def brute_force_min_cost(cost):
    """Exhaustive min-cost max-cardinality assignment over allowed pairs."""
    n = len(cost)
    m = len(cost[0]) if n else 0
    best = (0, 0.0)
    for k in range(min(n, m), -1, -1):
        found = None
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(m), k):
                if any(math.isinf(cost[r][c]) for r, c in zip(rows, cols)):
                    continue
                total = sum(cost[r][c] for r, c in zip(rows, cols))
                if found is None or total < found:
                    found = total
        if found is not None:
            return k, found
    return best


def test_hungarian_diagonal():
    assert hungarian([[1, 2], [2, 1]]) == {0: 0, 1: 1}


def test_hungarian_single():
    assert hungarian([[0]]) == {0: 0}


def test_hungarian_forbidden_pairs():
    cost = [[1.0, FORBIDDEN], [FORBIDDEN, FORBIDDEN]]
    assert hungarian(cost) == {0: 0}


def test_hungarian_all_forbidden():
    assert hungarian([[FORBIDDEN, FORBIDDEN]]) == {}


def test_hungarian_rectangular():
    assign = hungarian([[5.0, 1.0, 9.0]])
    assert assign == {0: 1}


def test_hungarian_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cost = (rng.integers(0, 256, size=(n, m)) / 64.0)
        if trial % 3 == 0:
            mask = rng.uniform(size=(n, m)) < 0.3
            cost = np.where(mask, FORBIDDEN, cost)
        assign = hungarian(cost)
        got_card = len(assign)
        got_cost = sum(cost[r][c] for r, c in sorted(assign.items()))
        want_card, want_cost = brute_force_min_cost(cost.tolist())
        assert got_card == want_card
        assert got_cost == want_cost


def _det(x, y, score, size=10.0):
    return Detection(1, BBox(x, y, size, size), score)


def _greedy(dets, gts, iou_thr):
    """match_frame_greedy on Detection and BBox lists."""
    return match_frame_greedy(box_array([d.box for d in dets]),
                              [d.score for d in dets], box_array(gts), iou_thr)


def test_greedy_exact_hit():
    gts = [BBox(0, 0, 10, 10)]
    m = _greedy([_det(0, 0, 0.9)], gts, 0.7)
    assert len(m.pairs) == 1
    assert m.unmatched_gt == () and m.unmatched_hyp == ()


def test_greedy_higher_score_wins():
    gts = [BBox(0, 0, 10, 10)]
    dets = [_det(1, 0, 0.8), _det(0, 0, 0.9)]
    m = _greedy(dets, gts, 0.7)
    assert len(m.pairs) == 1
    gi, di, _ = m.pairs[0]
    assert di == 1  # the 0.9-score detection
    assert m.unmatched_hyp == (0,)


def test_greedy_never_pairs_below_threshold():
    rng = np.random.default_rng(1)
    for _ in range(100):
        gts = [BBox(rng.uniform(0, 50), rng.uniform(0, 50), 10, 10)
               for _ in range(rng.integers(1, 5))]
        dets = [_det(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform())
                for _ in range(rng.integers(1, 5))]
        m = _greedy(dets, gts, 0.5)
        assert all(v >= 0.5 for _, _, v in m.pairs)


def test_greedy_cardinality_bounded_by_optimal():
    rng = np.random.default_rng(2)
    for _ in range(100):
        gts = [BBox(rng.uniform(0, 40), rng.uniform(0, 40), 12, 12)
               for _ in range(4)]
        dets = [_det(rng.uniform(0, 40), rng.uniform(0, 40), rng.uniform(), 12)
                for _ in range(4)]
        m = _greedy(dets, gts, 0.3)
        from detraceval.geometry import iou
        cost = [[0.0 if iou(d.box, g) >= 0.3 else FORBIDDEN
                 for g in gts] for d in dets]
        optimal = hungarian(cost)
        assert len(m.pairs) <= len(optimal)


def test_greedy_iou_tie_goes_to_smallest_gt_index():
    # the detection straddles two GT boxes at equal IoU
    gts = [BBox(20, 0, 10, 10), BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)]
    det = _det(5, 0, 0.9)
    assert iou(det.box, gts[1]) == iou(det.box, gts[2]) > 0.0
    m = _greedy([det], gts, 0.3)
    assert [gi for gi, _, _ in m.pairs] == [1]
    assert m.unmatched_gt == (0, 2)


def test_greedy_zero_overlap_never_matches_at_zero_threshold():
    gts = [BBox(0, 0, 10, 10)]
    dets = [_det(10, 0, 0.9), _det(50, 50, 0.8)]  # touching, disjoint
    m = _greedy(dets, gts, 0.0)
    assert m.pairs == ()
    assert m.unmatched_gt == (0,) and m.unmatched_hyp == (0, 1)


def test_greedy_matches_at_exactly_iou_thr():
    gts = [BBox(0, 0, 10, 20)]
    m = _greedy([_det(0, 0, 0.9)], gts, 0.5)  # IoU 100 / 200
    assert m.pairs == ((0, 0, 0.5),)


def _scalar_match_frame_greedy(dets, gts, iou_thr):
    """Reference matcher: the scalar loop over free GT per detection."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    free = set(range(len(gts)))
    pairs = []
    for di in order:
        best_gi, best_iou = -1, 0.0
        for gi in sorted(free):
            v = iou(dets[di].box, gts[gi])
            if v > best_iou:
                best_gi, best_iou = gi, v
        if best_gi >= 0 and best_iou >= iou_thr:
            pairs.append((best_gi, di, best_iou))
            free.discard(best_gi)
    return pairs


def test_greedy_matches_scalar_reference_with_ties():
    # integer coordinates on a coarse grid and 1-decimal scores make tied
    # IoUs and tied scores common
    rng = np.random.default_rng(4)
    for _ in range(300):
        gts = [BBox(*map(float, rng.integers(0, 6, 2) * 5), 10, 10)
               for _ in range(rng.integers(0, 6))]
        dets = [Detection(1, BBox(*map(float, rng.integers(0, 6, 2) * 5),
                                  10, 10), float(rng.integers(1, 4)) / 10)
                for _ in range(rng.integers(0, 6))]
        iou_thr = float(rng.choice([0.0, 0.3, 0.5]))
        m = _greedy(dets, gts, iou_thr)
        assert list(m.pairs) == _scalar_match_frame_greedy(dets, gts, iou_thr)


def _frame(boxes: dict) -> tuple[list, np.ndarray]:
    """One side of a frame in clear_correspond's shape: ascending ids and
    their corner rows."""
    ids = sorted(boxes)
    return ids, box_array([boxes[i] for i in ids])


def test_clear_correspond_static_scene():
    gts = {1: BBox(0, 0, 10, 10), 2: BBox(50, 50, 10, 10)}
    hyps = {10: BBox(0, 0, 10, 10), 20: BBox(50, 50, 10, 10)}
    prev = None
    for _ in range(3):
        m = clear_correspond(prev, *_frame(gts), *_frame(hyps), 0.7)
        assert m.as_map() == {1: 10, 2: 20}
        prev = m.as_map()


def test_clear_correspond_reassigns_drifted_pair():
    # previous pair drifted below 0.7 while a fresh hyp sits at IoU 1.0
    gts = {1: BBox(0, 0, 10, 10)}
    hyps = {10: BBox(0, 0 + 6.56, 10, 10), 20: BBox(0, 0, 10, 10)}
    m = clear_correspond({1: 10}, *_frame(gts), *_frame(hyps), 0.7)
    assert m.as_map() == {1: 20}
    assert m.unmatched_hyp == (10,)


def test_clear_correspond_persistence():
    gts = {1: BBox(0, 0, 10, 10)}
    # drifted (IoU 9/11) but still above threshold, while a perfect hyp
    # is available: the previous pair persists
    hyps = {10: BBox(0, 1, 10, 10), 20: BBox(0, 0, 10, 10)}
    m = clear_correspond({1: 10}, *_frame(gts), *_frame(hyps), 0.7)
    assert m.as_map() == {1: 10}


def test_clear_correspond_matches_enumeration_oracle():
    from detraceval.synth import _oracle_residual
    rng = np.random.default_rng(3)
    for _ in range(200):
        n, k = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        gts = {i: BBox(rng.uniform(0, 30), rng.uniform(0, 30), 10, 10)
               for i in range(n)}
        hyps = {j: BBox(rng.uniform(0, 30), rng.uniform(0, 30), 10, 10)
                for j in range(k)}
        got = clear_correspond(None, *_frame(gts), *_frame(hyps), 0.5).as_map()
        want = _oracle_residual(sorted(gts), sorted(hyps), gts, hyps, 0.5)
        assert got == want
