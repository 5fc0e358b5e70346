import itertools
import math

import numpy as np
import pytest

from detraceval.datamodel import BBox, Detection
from detraceval.geometry import iou
from detraceval.matching import (_IOU_TIE_TOL, FORBIDDEN, _residual_match,
                                 _residual_value, clear_correspond, hungarian,
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


def _corners(boxes):
    """(n, 4) left, top, right, bottom rows of BBox objects."""
    return np.array([(b.left, b.top, b.right, b.bottom) for b in boxes],
                    dtype=np.float64).reshape(len(boxes), 4)


def _greedy(dets, gts, iou_thr):
    """match_frame_greedy on Detection and BBox lists."""
    return match_frame_greedy(_corners([d.box for d in dets]),
                              [d.score for d in dets], _corners(gts), iou_thr)


def _unmatched_gt(m, gt_ids):
    """The GT ids, in order, that no pair of `m` holds."""
    taken = {g for g, _, _ in m.pairs}
    return tuple(g for g in gt_ids if g not in taken)


def test_greedy_exact_hit():
    gts = [BBox(0, 0, 10, 10)]
    m = _greedy([_det(0, 0, 0.9)], gts, 0.7)
    assert len(m.pairs) == 1
    assert _unmatched_gt(m, range(1)) == () and m.unmatched_hyp == ()


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
    assert _unmatched_gt(m, range(3)) == (0, 2)


def test_greedy_zero_overlap_never_matches_at_zero_threshold():
    gts = [BBox(0, 0, 10, 10)]
    dets = [_det(10, 0, 0.9), _det(50, 50, 0.8)]  # touching, disjoint
    m = _greedy(dets, gts, 0.0)
    assert m.pairs == ()
    assert _unmatched_gt(m, range(1)) == (0,) and m.unmatched_hyp == (0, 1)


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
    return ids, _corners([boxes[i] for i in ids])


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


def _reference_residual_value(iou_mat, iou_thr):
    """`matching._residual_value` when every size went through the solver,
    verbatim, so the reference below shares no enumeration with the code it
    checks."""
    cost = np.where(iou_mat >= iou_thr, 1.0 - iou_mat, FORBIDDEN)
    assign = hungarian(cost)
    return len(assign), float(sum(iou_mat[r, c] for r, c in assign.items()))


def _reference_residual_match(iou_mat, iou_thr):
    """`matching._residual_match` before it split the matrix into connected
    components, verbatim but for the solver-only value above: the
    whole-matrix canonicalisation it must equal."""
    n, m = iou_mat.shape
    if n == 0 or m == 0:
        return []
    card, total = _reference_residual_value(iou_mat, iou_thr)
    if card == 0:
        return []
    rows = list(range(n))
    cols = list(range(m))
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        rows.remove(i)
        chosen = -1
        for j in cols:
            if iou_mat[i, j] < iou_thr:
                continue
            sub = iou_mat[np.ix_(rows, [c for c in cols if c != j])]
            sub_card, sub_total = _reference_residual_value(sub, iou_thr)
            if sub_card + 1 == card and sub_total + iou_mat[i, j] >= total - _IOU_TIE_TOL:
                chosen = j
                card, total = sub_card, sub_total
                break
        if chosen >= 0:
            pairs.append((i, chosen))
            cols.remove(chosen)
        if card == 0:
            break
    return pairs


# A coarse grid of IoU values: equal totals from different pairs are common.
_GRID = (0.0, 0.3, 0.5, 0.6, 0.7, 0.8, 1.0)


def _grid_matrix(rng, n, m):
    return rng.choice(_GRID, size=(n, m))


def _block_matrix(rng):
    """Random 1x1..3x3 grid-valued blocks on the diagonal, rows and columns
    then shuffled, so components interleave in row order."""
    shapes = [tuple(rng.integers(1, 4, 2)) for _ in range(rng.integers(1, 5))]
    mat = np.zeros((sum(r for r, _ in shapes), sum(c for _, c in shapes)))
    r0 = c0 = 0
    for r, c in shapes:
        mat[r0:r0 + r, c0:c0 + c] = rng.choice(_GRID[1:], size=(r, c))
        r0, c0 = r0 + r, c0 + c
    return mat[rng.permutation(len(mat))][:, rng.permutation(mat.shape[1])]


def _oracle_on_matrix(mat, iou_thr, monkeypatch):
    """`synth._oracle_residual` on an IoU matrix: its boxes are row and
    column indices, and its IoU reads the matrix."""
    from detraceval import synth
    n, m = mat.shape
    with monkeypatch.context() as patch:
        patch.setattr(synth, "iou", lambda i, j: float(mat[i, j]))
        got = synth._oracle_residual(list(range(n)), list(range(m)),
                                     dict(enumerate(range(n))),
                                     dict(enumerate(range(m))), iou_thr)
    return sorted(got.items())


def test_residual_match_equals_whole_matrix_reference(monkeypatch):
    rng = np.random.default_rng(7)
    for trial in range(1500):
        if trial % 3 == 0:
            mat = _block_matrix(rng)
        else:
            n, m = (int(v) for v in rng.integers(0, 6, 2))
            mat = _grid_matrix(rng, n, m)
        iou_thr = float(rng.choice([0.0, 0.3, 0.5, 0.7]))
        got = _residual_match(mat, iou_thr)
        assert got == _reference_residual_match(mat, iou_thr), (mat, iou_thr)
        if max(mat.shape, default=0) <= 4:
            assert got == _oracle_on_matrix(mat, iou_thr, monkeypatch), (
                mat, iou_thr)


def _tie_heavy_matrix(rng, n, m):
    """Grid IoUs, a few of them nudged by less than the tie tolerance, so
    exact ties, equal sums from different pairs and near-ties all occur."""
    mat = rng.choice(_GRID, size=(n, m))
    nudge = rng.uniform(size=(n, m)) < 0.2
    mat[nudge] += rng.choice([-0.6e-12, 0.6e-12, -1e-16], size=int(nudge.sum()))
    return np.clip(mat, 0.0, 1.0)


_SHAPES = {"1xk": lambda rng, k: (1, k), "kx1": lambda rng, k: (k, 1),
           "2xk": lambda rng, k: (2, k), "kx2": lambda rng, k: (k, 2),
           "3x3+": lambda rng, k: tuple(int(v) for v in rng.integers(3, 6, 2))}


@pytest.mark.parametrize("shape", list(_SHAPES))
@pytest.mark.parametrize("iou_thr", [0.0, 0.1, 0.5])
def test_residual_value_enumeration_equals_solver(shape, iou_thr):
    rng = np.random.default_rng([7, list(_SHAPES).index(shape),
                                 int(iou_thr * 10)])
    for _ in range(150):
        n, m = _SHAPES[shape](rng, int(rng.integers(0, 7)))
        mat = _tie_heavy_matrix(rng, n, m)
        card, total = _residual_value(mat, iou_thr)
        want_card, want_total = _reference_residual_value(mat, iou_thr)
        assert card == want_card, (mat, iou_thr)
        assert abs(total - want_total) <= 1e-15, (mat, iou_thr)
        assert _residual_match(mat, iou_thr) == _reference_residual_match(
            mat, iou_thr), (mat, iou_thr)


@pytest.mark.parametrize("mat, want", [
    # exact ties in a 1 x k and a k x 1 component, plus a single edge
    ([[0.7, 0.2, 0.7, 0.0, 0.0],
      [0.0, 0.0, 0.0, 0.6, 0.0],
      [0.0, 0.0, 0.0, 0.0, 0.8],
      [0.0, 0.0, 0.0, 0.0, 0.8]], [(0, 0), (1, 3), (2, 4)]),
    # the tie is on the larger IoU, not on the first column
    ([[0.5, 0.9, 0.9]], [(0, 1)]),
    ([[0.5], [0.9], [0.9]], [(1, 0)]),
    # rows of a component interleave with another's
    ([[0.6, 0.0, 0.6], [0.0, 0.9, 0.0], [0.6, 0.0, 0.0]], [(0, 2), (1, 1), (2, 0)]),
])
def test_residual_match_ties_within_components(mat, want):
    mat = np.asarray(mat)
    assert _residual_match(mat, 0.5) == want
    assert _reference_residual_match(mat, 0.5) == want


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_residual_match_empty_side(shape):
    assert _residual_match(np.zeros(shape), 0.0) == []


def test_residual_match_at_zero_threshold_every_pair_is_an_edge():
    # zero IoU still clears a zero threshold, so all three rows find a column
    mat = np.array([[0.0, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.0]])
    assert _residual_match(mat, 0.0) == [(0, 0), (1, 1), (2, 2)]
    assert _residual_match(mat, 0.0) == _reference_residual_match(mat, 0.0)
    assert _residual_match(mat, 0.1) == [(1, 1)]


@pytest.mark.parametrize("gap_a, gap_b, want", [
    # each near-tie is within the tolerance on its own, so both components
    # take the smaller column although the two together fall 1.2e-12 short
    (0.6e-12, 0.6e-12, [(0, 0), (1, 2)]),
    # a gap beyond the tolerance in one component leaves the other alone
    (0.6e-12, 3e-12, [(0, 0), (1, 3)]),
    (3e-12, 0.6e-12, [(0, 1), (1, 2)]),
])
def test_residual_match_near_ties_in_two_components(gap_a, gap_b, want):
    # one 1 x 2 component per row; the 2 x 2 variant at the end takes the
    # `_canonical_match` walk over two rows inside each component
    one_row = np.array([[0.5, 0.5 + gap_a, 0.0, 0.0],
                        [0.0, 0.0, 0.5, 0.5 + gap_b]])
    assert _residual_match(one_row, 0.3) == want
    assert _reference_residual_match(one_row, 0.3) == want
    # transposed: one k x 1 component per column
    want_t = sorted((j, i) for i, j in want)
    assert _residual_match(one_row.T, 0.3) == want_t
    assert _reference_residual_match(one_row.T, 0.3) == want_t
    two_rows = np.zeros((4, 4))
    two_rows[np.ix_([0, 2], [0, 1])] = [[0.5, 0.5 + gap_a], [0.4, 0.4]]
    two_rows[np.ix_([1, 3], [2, 3])] = [[0.5, 0.5 + gap_b], [0.4, 0.4]]
    assert _residual_match(two_rows, 0.3) == _reference_residual_match(two_rows, 0.3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluate_clear_equals_whole_matrix_reference(seed, monkeypatch):
    from detraceval import matching
    from detraceval.mot_metrics import evaluate_clear
    from detraceval.synth import ScenarioConfig, gen_scenario
    from detraceval.trackers import greedy_iou_track
    # a small arena with heavy clutter: residual components with several
    # rows or columns occur in most frames
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=10, n_frames=40, arena=(240.0, 160.0), drop_rate=0.2,
        clutter_rate=8.0, jitter_sigma=3.0, seed=seed))
    gt = gt.columns
    tracks = greedy_iou_track(dets.columns, max_gap=2)
    for iou_thr in (0.0, 0.3, 0.5):
        got = evaluate_clear(gt, tracks, iou_thr)
        with monkeypatch.context() as patch:
            patch.setattr(matching, "_residual_match", _reference_residual_match)
            want = evaluate_clear(gt, tracks, iou_thr)
        assert got == want


def test_clear_correspond_closed_forms_solve_no_assignment(monkeypatch):
    from detraceval import matching

    def no_hungarian(cost):
        raise AssertionError("hungarian called")

    monkeypatch.setattr(matching, "hungarian", no_hungarian)
    gts = {1: BBox(0, 0, 10, 10),        # 1 x 2 with a tie: hyp 10 and 11
           2: BBox(100, 0, 10, 10),      # 2 x 1: gt 2 and 3 share hyp 20
           3: BBox(101, 0, 10, 10),
           4: BBox(200, 0, 10, 10),      # 1 x 1
           5: BBox(300, 0, 10, 10),      # no edge
           6: BBox(500, 0, 10, 10),      # 2 x 2: gt 6 and 7, hyp 60 and 61
           7: BBox(501, 0, 10, 10)}
    hyps = {10: BBox(-1, 0, 10, 10), 11: BBox(1, 0, 10, 10),
            20: BBox(101, 0, 10, 10), 40: BBox(200, 1, 10, 10),
            50: BBox(400, 0, 10, 10),
            60: BBox(501, 0, 10, 10), 61: BBox(500, 0, 10, 10)}
    m = clear_correspond(None, *_frame(gts), *_frame(hyps), 0.5)
    assert m.as_map() == {1: 10, 3: 20, 4: 40, 6: 61, 7: 60}
    assert _unmatched_gt(m, sorted(gts)) == (2, 5)
    assert m.unmatched_hyp == (11, 50)
    # a 3 x 3 component does need the solver: the guard above is not vacuous
    gts[8] = BBox(502, 0, 10, 10)
    hyps[62] = BBox(502, 0, 10, 10)
    with pytest.raises(AssertionError, match="hungarian called"):
        clear_correspond(None, *_frame(gts), *_frame(hyps), 0.5)
