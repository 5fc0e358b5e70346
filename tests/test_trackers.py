import dataclasses
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_columns import det_columns, track_columns
from detraceval import datamodel
from detraceval.cli import main
from detraceval.datamodel import BBox, DetectionColumns, ValidationError
from detraceval.fixtures import load_fixture
from detraceval.geometry import iou
from detraceval.mot_metrics import evaluate_clear
from detraceval.synth import ScenarioConfig, _box_rows, gen_scenario
from detraceval.trackers import (BuiltinGreedyTracker, ExternalTracker,
                                 TrackerError, greedy_iou_track, link_table,
                                 make_tracker, run_external)
from reference_linker import frame_loop_greedy_iou_track

PY = sys.executable


def _rows(tracks) -> list[tuple]:
    """(track_id, frame, left, top, width, height) of every output row."""
    return list(zip(tracks.track_id.tolist(), tracks.frame.tolist(),
                    tracks.left.tolist(), tracks.top.tolist(),
                    tracks.width.tolist(), tracks.height.tolist()))


def _row(track_id: int, frame: int, box: BBox) -> tuple:
    return (track_id, frame, *dataclasses.astuple(box))


def _check_layout(tracks) -> None:
    """The documented output layout: track ids >= 1, rows sorted by
    (track_id, frame), one row per (track, frame)."""
    assert (tracks.track_id >= 1).all()
    keys = list(zip(tracks.track_id.tolist(), tracks.frame.tolist()))
    assert keys == sorted(set(keys))


def _n_tracks(tracks) -> int:
    return len(np.unique(tracks.track_id))


def test_single_static_detection_one_track():
    dets = det_columns(*((f, BBox(10, 10, 20, 20), 0.9) for f in range(1, 11)))
    t = greedy_iou_track(dets)
    _check_layout(t)
    assert _n_tracks(t) == 1 and len(t) == 10


def test_two_separated_targets_two_tracks():
    dets = []
    for f in range(1, 11):
        dets.append((f, BBox(0 + f, 0, 20, 20), 0.9))
        dets.append((f, BBox(500 + f, 500, 20, 20), 0.9))
    t = greedy_iou_track(det_columns(*dets))
    _check_layout(t)
    assert np.unique(t.track_id, return_counts=True)[1].tolist() == [10, 10]


def test_crossing_fixture_produces_identity_switch():
    fx = load_fixture("crossing")
    ts = greedy_iou_track(fx.dets)
    bundle, _ = evaluate_clear(fx.gt.columns, ts)
    assert bundle.ids >= 1


def test_gap_longer_than_max_gap_closes_track():
    frames = [1, 2, 5, 6]  # 2-frame hole with max_gap=1
    dets = det_columns(*((f, BBox(10, 10, 20, 20), 0.9) for f in frames))
    assert _n_tracks(greedy_iou_track(dets, max_gap=1)) == 2
    assert _n_tracks(greedy_iou_track(dets, max_gap=2)) == 1


def test_min_track_len_suppresses_short_tracks():
    dets = det_columns(
        (1, BBox(0, 0, 10, 10), 0.9),
        (1, BBox(400, 400, 10, 10), 0.9),
        (2, BBox(0, 0, 10, 10), 0.9),
    )
    t = greedy_iou_track(dets, min_track_len=2)
    assert _rows(t) == [_row(1, 1, BBox(0, 0, 10, 10)),
                        _row(1, 2, BBox(0, 0, 10, 10))]


det_sets = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.builds(BBox,
                  left=st.floats(0, 200), top=st.floats(0, 200),
                  width=st.floats(1, 50), height=st.floats(1, 50)),
        st.floats(0, 1),
    ),
    max_size=25,
).map(lambda rows: det_columns(*rows))


@given(det_sets)
@settings(max_examples=60, deadline=None)
def test_greedy_output_satisfies_trackset_invariants(dets):
    t = greedy_iou_track(dets)
    _check_layout(t)
    assert len(t) == len(dets)


@given(det_sets)
@settings(max_examples=30, deadline=None)
def test_greedy_deterministic(dets):
    assert _rows(greedy_iou_track(dets)) == _rows(greedy_iou_track(dets))


def _scalar_greedy_iou_track(dets, link_thr=0.5, max_gap=1, min_track_len=1):
    """Reference linker: the scalar pair-by-pair form of greedy_iou_track."""
    by_frame = {}
    for frame, box in _box_rows(dets, "frame"):
        by_frame.setdefault(frame, []).append(box)
    active = {}
    boxes = {}
    next_id = 1
    for frame in sorted(by_frame):
        frame_dets = by_frame[frame]
        live = [tid for tid, (lf, _) in active.items()
                if frame - lf <= max_gap + 1]
        for tid in list(active):
            if tid not in live:
                del active[tid]
        candidates = []
        for ti, tid in enumerate(live):
            last_box = active[tid][1]
            for di, box in enumerate(frame_dets):
                v = iou(last_box, box)
                if v >= link_thr:
                    candidates.append((-v, ti, di, tid))
        candidates.sort()
        used_tracks, used_dets = set(), set()
        for _, ti, di, tid in candidates:
            if tid in used_tracks or di in used_dets:
                continue
            used_tracks.add(tid)
            used_dets.add(di)
            active[tid] = (frame, frame_dets[di])
            boxes[tid].append((frame, frame_dets[di]))
        for di, box in enumerate(frame_dets):
            if di not in used_dets:
                tid = next_id
                next_id += 1
                active[tid] = (frame, box)
                boxes[tid] = [(frame, box)]
    return track_columns(*((tid, items) for tid, items in sorted(boxes.items())
                           if len(items) >= min_track_len))


@pytest.mark.parametrize("max_gap", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_greedy_matches_scalar_reference(seed, max_gap):
    _, dets = gen_scenario(ScenarioConfig(
        n_targets=12, n_frames=25, drop_rate=0.2, clutter_rate=6.0,
        jitter_sigma=2.0, seed=seed))
    for link_thr, min_track_len in ((0.5, 1), (0.3, 3)):
        t = greedy_iou_track(dets, link_thr, max_gap, min_track_len)
        _check_layout(t)
        assert _rows(t) == _rows(_scalar_greedy_iou_track(
            dets, link_thr, max_gap, min_track_len))


def test_greedy_tied_iou_links_by_track_then_detection_order():
    # Two touching tracks; each frame-2 detection straddles both at equal
    # IoU, so every tie is broken by track age, then detection order.
    a, b = BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)
    c, d = BBox(5, 0, 10, 10), BBox(5, 2, 10, 10)
    assert iou(a, c) == iou(b, c) and iou(a, d) == iou(b, d)
    dets = det_columns((1, a, 0.9), (1, b, 0.9), (2, d, 0.8), (2, c, 0.7))
    t = greedy_iou_track(dets, link_thr=0.2)
    assert _rows(t) == _rows(_scalar_greedy_iou_track(dets, link_thr=0.2))
    assert _rows(t) == [_row(1, 1, a), _row(1, 2, c), _row(2, 1, b), _row(2, 2, d)]


def test_greedy_links_at_exactly_link_thr():
    a, b = BBox(0, 0, 10, 10), BBox(0, 0, 10, 20)
    assert iou(a, b) == 0.5
    dets = det_columns((1, a, 0.9), (2, b, 0.9))
    assert _n_tracks(greedy_iou_track(dets, link_thr=0.5)) == 1


def _link_scenes() -> list[DetectionColumns]:
    """Detections for the link-table property tests: gappy scenarios with
    frames 4, 9 and 10 empty and frame 6 emptied above score 0.3, and
    grid-aligned scenes of two box sizes, where IoUs tie."""
    scenes = []
    for seed in range(3):
        _, dets = gen_scenario(ScenarioConfig(
            n_targets=8, n_frames=14, drop_rate=0.3, clutter_rate=3.0,
            jitter_sigma=2.0, seed=seed))
        cols = dets.take(~np.isin(dets.frame, (4, 9, 10)))
        scenes.append(DetectionColumns(
            cols.left, cols.top, cols.width, cols.height, frame=cols.frame,
            score=np.where(cols.frame == 6, 0.25 * cols.score, cols.score)))
    rng = np.random.default_rng(7)
    for n in (40, 60, 80):
        size = rng.choice([10.0, 20.0], n)
        scenes.append(DetectionColumns(
            5.0 * rng.integers(0, 6, n), 5.0 * rng.integers(0, 3, n), size,
            size, frame=rng.integers(1, 10, n),
            score=rng.choice([0.2, 0.4, 0.6, 0.8], n)))
    return scenes


def _ladder(dets) -> list[float]:
    """Thresholds below the scores, above them, and at every k-th score,
    k = len(scores) // 8 or 1."""
    scores = np.unique(dets.score)
    step = max(1, len(scores) // 8)
    return [-1.0, *scores[::step].tolist(), 2.0]


def _assert_same_tracks(got, want) -> None:
    assert _rows(got) == _rows(want)
    assert got.track_id.dtype == want.track_id.dtype
    assert got.frame.dtype == want.frame.dtype


def _assert_links_like_frame_loop(dets, link_thr, max_gap, min_track_len):
    """by_threshold(dets)(tau) equals the per-frame loop run on the
    detections with score >= tau, at every threshold of the ladder, and
    names a distinct detection row with score >= tau and the same frame
    and box behind each track row."""
    at = BuiltinGreedyTracker(link_thr, max_gap, min_track_len).by_threshold(
        dets, "s")
    for tau in _ladder(dets):
        tracks, rows = at(tau)
        _assert_same_tracks(tracks, frame_loop_greedy_iou_track(
            dets.take(dets.score >= tau), link_thr, max_gap, min_track_len))
        behind = dets.take(rows)
        assert len(set(rows.tolist())) == len(rows)
        assert (behind.score >= tau).all()
        assert _rows(tracks) == _rows(dataclasses.replace(
            tracks, left=behind.left, top=behind.top, width=behind.width,
            height=behind.height, frame=behind.frame))


def test_link_scenes_cover_ties_and_empty_frames():
    """The scenes hold frames without detections, frames emptied only at
    high thresholds, and frames where two links tie on IoU."""
    scenes = _link_scenes()
    gappy, grid = scenes[:3], scenes[3:]
    for dets in gappy:
        present = set(dets.frame.tolist())
        assert not present & {4, 9, 10} and 6 in present
        assert 6 not in set(dets.frame[dets.score >= 0.3].tolist())
    tied = 0
    for dets in grid:
        table = link_table(dets, 0.2, 2)
        frame = table.frame[table.dst]
        tied += np.count_nonzero((frame[1:] == frame[:-1])
                                 & (table.iou[1:] == table.iou[:-1]))
    assert tied > 10


def test_link_table_order_is_the_lag_by_lag_walk():
    """Links sorted by destination frame, -IoU and destination row, and
    links equal in those by lag, then source row: the order in which a
    walk over lags, frames and source rows finds them."""
    ties = 0
    for dets in _link_scenes():
        table = link_table(dets, 0.2, 2)
        frame = table.frame
        key = list(zip(frame[table.dst].tolist(), (-table.iou).tolist(),
                       table.dst.tolist(),
                       (frame[table.dst] - frame[table.src]).tolist(),
                       table.src.tolist()))
        assert key == sorted(key)
        ties += sum(a[:3] == b[:3] for a, b in zip(key, key[1:]))
    assert ties > 0


@pytest.mark.parametrize("max_gap", [0, 1, 2, 10**6])
@pytest.mark.parametrize("link_thr", [0.2, 0.5, 1.0])
def test_by_threshold_equals_the_frame_loop(link_thr, max_gap):
    for dets in _link_scenes():
        for min_track_len in (1, 3):
            _assert_links_like_frame_loop(dets, link_thr, max_gap,
                                          min_track_len)


@pytest.mark.parametrize("frames_per_chunk", [1, 7])
def test_chunk_budget_does_not_change_links(frames_per_chunk, monkeypatch):
    """One frame per chunk of the link table, and chunks of 7 frames."""
    for dets in _link_scenes():
        widest = np.unique(dets.frame, return_counts=True)[1].max()
        monkeypatch.setattr(datamodel, "EDGE_CHUNK_PAIRS",
                            1 if frames_per_chunk == 1 else 7 * widest ** 2)
        for link_thr, max_gap in ((0.2, 2), (0.5, 1), (0.5, 10**6)):
            _assert_links_like_frame_loop(dets, link_thr, max_gap, 1)


@given(det_sets, st.sampled_from([0.2, 0.5]), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_greedy_equals_the_frame_loop(dets, link_thr, max_gap):
    _assert_same_tracks(greedy_iou_track(dets, link_thr, max_gap),
                        frame_loop_greedy_iou_track(dets, link_thr, max_gap))
    _assert_links_like_frame_loop(dets, link_thr, max_gap, 1)


@pytest.mark.parametrize("option,value", [
    ("max_gap", 1.5), ("max_gap", float("nan")), ("max_gap", True),
    ("max_gap", 2.0), ("max_gap", "2"), ("min_track_len", 2.5),
    ("min_track_len", float("nan")), ("min_track_len", True)])
def test_builtin_rejects_non_integer_options(option, value):
    with pytest.raises(ValidationError, match=(
            f"builtin tracker option {option}: expected an integer")):
        BuiltinGreedyTracker(**{option: value})
    assert BuiltinGreedyTracker(**{option: np.int64(2)}) == (
        BuiltinGreedyTracker(**{option: 2}))


def test_repeated_builtin_option_is_rejected():
    with pytest.raises(ValidationError, match=(
            "builtin tracker option max_gap: expected one value, "
            "got '3' after 2")):
        make_tracker("builtin:max_gap=2,max_gap=3")
    with pytest.raises(ValidationError, match="option link_thr: expected one"):
        make_tracker("builtin:link_thr=0.4,max_gap=1,link_thr=0.4")


def _some_dets():
    return det_columns(
        (1, BBox(5, 5, 20, 20), 0.9),
        (2, BBox(7, 5, 20, 20), 0.8),
    )


IDENTITY_TRACKER = (
    f"{PY} -c \"import sys; rows=[l.split(',') for l in "
    f"open(sys.argv[1])]; open(sys.argv[2],'w').write(''.join("
    f"','.join([r[0],'1']+r[2:6])+chr(10) for r in rows))\" {{input}} {{output}}"
)


def _assert_workspace_kept(workdir):
    """A failed run keeps its one workspace, with the detections written."""
    (workspace,) = workdir.glob("detraceval-seq1-*")
    assert (workspace / "detections.csv").is_file()


def test_external_identity_tracker(tmp_path, monkeypatch):
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(tmp_path))
    adapter = ExternalTracker(IDENTITY_TRACKER)
    t = run_external(adapter, _some_dets(), "seq1")
    _check_layout(t)
    assert _rows(t) == [_row(1, 1, BBox(5, 5, 20, 20)),
                        _row(1, 2, BBox(7, 5, 20, 20))]
    assert not list(tmp_path.iterdir())


def test_external_nonzero_exit(tmp_path, monkeypatch):
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(tmp_path))
    adapter = ExternalTracker(f"{PY} -c \"import sys; sys.exit(1)\" "
                              "{input} {output}")
    with pytest.raises(TrackerError, match="status 1"):
        run_external(adapter, _some_dets(), "seq1")
    _assert_workspace_kept(tmp_path)


def test_external_timeout(tmp_path, monkeypatch):
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(tmp_path))
    adapter = ExternalTracker(
        f"{PY} -c \"import time; time.sleep(5)\" {{input}} {{output}}",
        timeout=0.5)
    with pytest.raises(TrackerError, match="timed out"):
        run_external(adapter, _some_dets(), "seq1")
    _assert_workspace_kept(tmp_path)


def test_external_missing_output(tmp_path, monkeypatch):
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(tmp_path))
    adapter = ExternalTracker(f"{PY} -c pass {{input}} {{output}}")
    with pytest.raises(TrackerError, match="no output"):
        run_external(adapter, _some_dets(), "seq1")
    _assert_workspace_kept(tmp_path)


def test_external_output_that_is_not_utf8(tmp_path, monkeypatch):
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(tmp_path))
    adapter = ExternalTracker(
        f"{PY} -c \"import sys; open(sys.argv[2], 'wb').write(bytes([255]))\" "
        "{input} {output}")
    with pytest.raises(TrackerError, match="^unparseable tracker output on "
                       "sequence 'seq1': 'utf-8' codec can't decode byte 0xff"):
        run_external(adapter, _some_dets(), "seq1")
    _assert_workspace_kept(tmp_path)


def test_external_command_requires_placeholders():
    with pytest.raises(ValidationError, match="placeholders"):
        ExternalTracker("mytracker --in foo")


def test_missing_binary_names_command(tmp_path, monkeypatch):
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(tmp_path))
    adapter = ExternalTracker("no-such-binary-47291 {input} {output}")
    with pytest.raises(TrackerError, match="no-such-binary-47291"):
        run_external(adapter, _some_dets(), "seq1")
    _assert_workspace_kept(tmp_path)


def test_unbalanced_quote_in_command_is_rejected():
    with pytest.raises(ValidationError, match="No closing quotation"):
        make_tracker("cmd:'{input} {output}")


def test_make_tracker_specs():
    assert isinstance(make_tracker("builtin"), BuiltinGreedyTracker)
    t = make_tracker("builtin:link_thr=0.4,max_gap=3,min_track_len=2")
    assert t == BuiltinGreedyTracker(0.4, 3, 2)
    ext = make_tracker("cmd:mytool {input} {output}")
    assert isinstance(ext, ExternalTracker)
    # literal braces are doubled, as str.format writes them
    assert make_tracker("cmd:awk '{{print $1}}' {input} {output} {sequence}")
    assert make_tracker("builtin:link_thr=1,max_gap=0,min_track_len=1") == (
        BuiltinGreedyTracker(1.0, 0, 1))
    with pytest.raises(ValidationError):
        make_tracker("magic")


@pytest.mark.parametrize("sequence_id", ["a/b", "x" * 300, "../up"],
                         ids=["slash", "300-chars", "parent-dir"])
def test_external_tracker_takes_any_sequence_id(tmp_path, monkeypatch,
                                                sequence_id):
    """The workspace name is made from the id with unsafe characters
    replaced and its length capped; {sequence} still gets the raw id."""
    seen = tmp_path / "seen.txt"
    script = tmp_path / "track.py"
    script.write_text(
        "import sys\n"
        "rows = [l.split(',') for l in open(sys.argv[1])]\n"
        "open(sys.argv[2], 'w').write(''.join(\n"
        "    ','.join([r[0], str(i + 1)] + r[2:6]) + chr(10)\n"
        "    for i, r in enumerate(rows)))\n"
        "open(sys.argv[4], 'w').write(sys.argv[3])\n")
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(workdir))
    adapter = ExternalTracker(f"{PY} {script} {{input}} {{output}} "
                              f"{{sequence}} {seen}")
    tracks = run_external(adapter, _some_dets(), sequence_id)
    assert len(tracks) == len(_some_dets())
    assert seen.read_text() == sequence_id
    assert not list(workdir.iterdir())


def test_failed_tracker_keeps_a_safe_workspace(tmp_path, monkeypatch):
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(tmp_path))
    adapter = make_tracker(f"cmd:{PY} -c \"import sys; sys.exit(3)\" "
                           "{input} {output}")
    with pytest.raises(TrackerError, match="status 3"):
        adapter(_some_dets(), "a/b")
    (workspace,) = tmp_path.glob("detraceval-a_b-*")
    assert (workspace / "detections.csv").is_file()


# Numbers each detection as a track of its own, writes the bytes given in
# hex as argv[3] to stderr and exits with the status argv[4].
_PRINTING_TRACKER = (
    "import sys\n"
    "rows = [l.split(',') for l in open(sys.argv[1])]\n"
    "open(sys.argv[2], 'w').write(''.join(\n"
    "    ','.join([r[0], str(i + 1)] + r[2:6]) + chr(10)\n"
    "    for i, r in enumerate(rows)))\n"
    "sys.stderr.buffer.write(bytes.fromhex(sys.argv[3]))\n"
    "sys.exit(int(sys.argv[4]))\n")


def test_stderr_that_is_not_utf8_fails_no_run(tmp_path, monkeypatch, capsys):
    """A `cmd:` tracker's stderr is never decoded on success: one that
    writes the byte 0xff there and exits 0 gives the report of the same
    tracker writing nothing, and leaves no workspace. On exit 3 the error
    quotes that stderr, the byte replaced, and keeps the workspace."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(work))
    assert main(["gen-synthetic", "--fixture", "fp-heavy",
                 "--out", str(tmp_path / "in")]) == 0
    script = tmp_path / "track.py"
    script.write_text(_PRINTING_TRACKER)

    def run(stderr: str, status: int) -> int:
        return main(["eval-system", "--gt", str(tmp_path / "in" / "gt"),
                     "--det", str(tmp_path / "in" / "det"), "--thresholds", "3",
                     "--tracker", f"cmd:{PY} {script} {{input}} {{output}} "
                                  f"'{stderr}' {status}",
                     "--tracker-name", "printing",
                     "--out", str(tmp_path / f"out-{stderr}-{status}")])

    assert run("", 0) == 0 and run("ff", 0) == 0
    for name in ("system_report.json", "pr_curve.csv"):
        assert ((tmp_path / "out--0" / name).read_bytes()
                == (tmp_path / "out-ff-0" / name).read_bytes())
    assert not list(work.iterdir())
    capsys.readouterr()
    assert run("ff", 3) == 1
    err = capsys.readouterr().err
    assert ("tracker exited with status 3 on sequence 'synth-11'; "
            "stderr: '�' (workspace kept: ") in err
    (workspace,) = work.iterdir()
    assert (workspace / "detections.csv").is_file()
