import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detraceval.cli import main
from detraceval.pr_integration import SCORE_NAMES
from detraceval.datamodel import write_tracks
from detraceval.fixtures import load_fixture
from detraceval.trackers import greedy_iou_track


def _emit_fixture(tmp_path, name):
    root = tmp_path / name
    assert main(["gen-synthetic", "--fixture", name, "--out", str(root)]) == 0
    return root / "gt", root / "det"


def test_gen_synthetic_fixture_layout(tmp_path):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    assert (gt_dir / "perfect.json").exists()
    assert (det_dir / "perfect.csv").exists()
    config = json.loads((tmp_path / "perfect" / "config.json").read_text())
    assert config["fixture"] == "perfect"


def test_gen_synthetic_config_deterministic(tmp_path):
    argv = ["gen-synthetic", "--targets", "3", "--frames", "8",
            "--drop-rate", "0.2", "--clutter-rate", "1.5", "--seed", "4"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for rel in ("gt", "det"):
        a = sorted((tmp_path / "a" / rel).iterdir())
        b = sorted((tmp_path / "b" / rel).iterdir())
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


def test_eval_det_perfect(tmp_path):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    out = tmp_path / "out"
    assert main(["eval-det", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--out", str(out)]) == 0
    report = json.loads((out / "detection_report.json").read_text())
    assert report["overall"]["ap"] == pytest.approx(1.0)
    csv_lines = (out / "pr_curve_overall.csv").read_text().splitlines()
    assert csv_lines[0] == "threshold,precision,recall,tp,fp,fn"
    assert len(csv_lines) >= 2


def test_eval_det_fp_heavy_ap_below_one(tmp_path):
    gt_dir, det_dir = _emit_fixture(tmp_path, "fp-heavy")
    out = tmp_path / "out"
    assert main(["eval-det", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--out", str(out)]) == 0
    report = json.loads((out / "detection_report.json").read_text())
    assert 0.0 < report["overall"]["ap"] < 1.0


def test_eval_det_missing_pair_errors(tmp_path, capsys):
    gt_dir, _ = _emit_fixture(tmp_path, "perfect")
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval-det", "--gt", str(gt_dir), "--det", str(empty),
                 "--out", str(tmp_path / "out")]) == 1
    assert "missing file" in capsys.readouterr().err


def test_eval_det_empty_gt_dir_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["eval-det", "--gt", str(empty), "--det", str(empty),
                 "--out", str(tmp_path / "out")]) == 1
    assert "no ground truth" in capsys.readouterr().err


def test_eval_mot_perfect(tmp_path):
    gt_dir, _ = _emit_fixture(tmp_path, "perfect")
    fx = load_fixture("perfect")
    tracks_dir = tmp_path / "tracks"
    tracks_dir.mkdir()
    with open(tracks_dir / "perfect.csv", "w") as fh:
        write_tracks(greedy_iou_track(fx.dets), fh)
    out = tmp_path / "out"
    assert main(["eval-mot", "--gt", str(gt_dir), "--tracks",
                 str(tracks_dir), "--out", str(out)]) == 0
    agg = json.loads((out / "mot_aggregate.json").read_text())
    assert agg["bundle"]["mota"] == pytest.approx(100.0)
    assert agg["bundle"]["ids"] == 0
    per_seq = json.loads((out / "mot_perfect.json").read_text())
    assert per_seq["bundle"] == agg["bundle"]


def test_eval_mot_crossing_counts_switch(tmp_path):
    gt_dir, _ = _emit_fixture(tmp_path, "crossing")
    fx = load_fixture("crossing")
    tracks_dir = tmp_path / "tracks"
    tracks_dir.mkdir()
    with open(tracks_dir / "crossing.csv", "w") as fh:
        write_tracks(greedy_iou_track(fx.dets), fh)
    out = tmp_path / "out"
    assert main(["eval-mot", "--gt", str(gt_dir), "--tracks",
                 str(tracks_dir), "--out", str(out)]) == 0
    agg = json.loads((out / "mot_aggregate.json").read_text())
    assert agg["bundle"]["ids"] >= 1


def test_eval_system_jobs_byte_identical(tmp_path):
    gt_dir, det_dir = _emit_fixture(tmp_path, "ranking-flip")
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"out{jobs}"
        assert main(["eval-system", "--gt", str(gt_dir), "--det",
                     str(det_dir), "--tracker", "builtin", "--jobs", jobs,
                     "--out", str(out)]) == 0
        outs.append(out)
    for rel in ("system_report.json", "pr_curve.csv"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_eval_system_report_schema(tmp_path):
    gt_dir, det_dir = _emit_fixture(tmp_path, "ranking-flip")
    out = tmp_path / "out"
    assert main(["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--tracker", "builtin:min_track_len=6,max_gap=2",
                 "--tracker-name", "suppress-short",
                 "--detector-name", "synthetic",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "system_report.json").read_text())
    assert doc["detector"] == "synthetic"
    assert doc["tracker"] == "suppress-short"
    assert set(doc["scores"]) == {"pr_mota", "pr_motp", "pr_mt", "pr_ml",
                                  "pr_ids", "pr_fm", "pr_fp", "pr_fn"}
    assert doc["scores"]["pr_mota"] <= 100.0
    assert len(doc["points"]) >= 2


def test_report_leaderboard(tmp_path):
    gt_dir, det_dir = _emit_fixture(tmp_path, "ranking-flip")
    results = tmp_path / "results"
    for name, spec in (("keep-all", "builtin:max_gap=2"),
                       ("suppress-short",
                        "builtin:min_track_len=6,max_gap=2")):
        assert main(["eval-system", "--gt", str(gt_dir), "--det",
                     str(det_dir), "--tracker", spec,
                     "--tracker-name", name,
                     "--out", str(results / name)]) == 0
    out = tmp_path / "tables"
    assert main(["report", "--results", str(results),
                 "--out", str(out)]) == 0
    board = json.loads((out / "leaderboard.json").read_text())
    assert len(board["systems"]) == 2
    motas = [s["pr_mota"] for s in board["systems"]]
    assert motas == sorted(motas, reverse=True)
    assert len(board["trackers"]) == 2
    csv_lines = (out / "leaderboard.csv").read_text().splitlines()
    assert csv_lines[0].startswith("detector,tracker,pr_mota")
    assert len(csv_lines) == 3


def test_report_no_results_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--results", str(empty),
                 "--out", str(tmp_path / "out")]) == 1
    assert "no system reports" in capsys.readouterr().err


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("detraceval: error: ") and err.count("\n") == 1, err
    return err


def test_eval_det_gt_json_list_errors(tmp_path, capsys):
    _, det_dir = _emit_fixture(tmp_path, "perfect")
    gt_dir = tmp_path / "bad-gt"
    gt_dir.mkdir()
    (gt_dir / "perfect.json").write_text("[1, 2, 3]\n")
    assert main(["eval-det", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--out", str(tmp_path / "out")]) == 1
    err = _one_line_error(capsys)
    assert "perfect.json" in err and "JSON object" in err


def test_report_malformed_json_names_file(tmp_path, capsys):
    results = tmp_path / "results"
    (results / "sys").mkdir(parents=True)
    (results / "sys" / "broken.json").write_text('{"scores": ')
    assert main(["report", "--results", str(results),
                 "--out", str(tmp_path / "out")]) == 1
    assert "broken.json" in _one_line_error(capsys)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "detraceval.cli", "gen-synthetic",
         "--fixture", "perfect", "--out", str(tmp_path / "x")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "x" / "gt" / "perfect.json").exists()


def _bad_gt_doc(shape: str) -> dict:
    """The perfect fixture's GT document with one field of the wrong shape."""
    doc = json.loads(_GT_TEXT)
    entry = doc["tracks"][0]["entries"][0]
    if shape == "track-not-object":
        doc["tracks"] = [1]
    elif shape == "target-id-not-integer":
        doc["tracks"][0]["target_id"] = "x"
    elif shape == "first-frame-string":
        doc["ignore_regions"] = [{"left": 0, "top": 0, "width": 5, "height": 5,
                                  "first_frame": "1", "last_frame": 3}]
    elif shape == "entries-not-list":
        doc["tracks"][0]["entries"] = 5
    elif shape == "frame-not-numeric":
        entry["frame"] = "first"
    return doc


_GT_TEXT = json.dumps({
    "sequence_id": "perfect", "frame_count": 30, "ignore_regions": [],
    "tracks": [{"target_id": 1, "entries": [
        {"frame": 1, "left": 10, "top": 10, "width": 20, "height": 20}]}]})

GT_SHAPES = ("track-not-object", "target-id-not-integer", "first-frame-string",
             "entries-not-list", "frame-not-numeric")


@pytest.mark.parametrize("command", ["eval-det", "eval-mot", "eval-system"])
@pytest.mark.parametrize("shape", GT_SHAPES)
def test_wrong_shape_gt_is_one_line_error(tmp_path, capsys, shape, command):
    _, det_dir = _emit_fixture(tmp_path, "perfect")
    gt_dir = tmp_path / "bad-gt"
    gt_dir.mkdir()
    (gt_dir / "perfect.json").write_text(json.dumps(_bad_gt_doc(shape)))
    other = {"eval-det": ["--det", str(det_dir)],
             "eval-mot": ["--tracks", str(det_dir)],
             "eval-system": ["--det", str(det_dir), "--tracker", "builtin"]}
    assert main([command, "--gt", str(gt_dir), *other[command],
                 "--out", str(tmp_path / "out")]) == 1
    assert "perfect.json" in _one_line_error(capsys)


def test_eval_mot_builds_no_box_objects(tmp_path, monkeypatch):
    """eval-mot scores columns: with the per-box constructors disabled it
    still succeeds and writes the same bytes, ignore regions included."""
    from detraceval import datamodel
    from detraceval.synth import ScenarioConfig, gen_scenario

    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=6, n_frames=20, drop_rate=0.1, clutter_rate=2.0,
        jitter_sigma=1.0, seed=2))
    gt = dataclasses.replace(gt, ignore_regions=(
        datamodel.IgnoreRegion(datamodel.BBox(0.0, 0.0, 400.0, 300.0)),
        datamodel.IgnoreRegion(datamodel.BBox(300.0, 200.0, 300.0, 300.0), 5, 12)))
    for sub in ("gt", "tracks"):
        (tmp_path / sub).mkdir()
    with open(tmp_path / "gt" / "s.json", "w") as fh:
        datamodel.write_ground_truth(gt, fh)
    with open(tmp_path / "tracks" / "s.csv", "w") as fh:
        write_tracks(greedy_iou_track(dets, max_gap=2), fh)
    argv = ["eval-mot", "--gt", str(tmp_path / "gt"), "--tracks",
            str(tmp_path / "tracks"), "--jobs", "1"]
    assert main(argv + ["--out", str(tmp_path / "unpatched")]) == 0

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built on the eval-mot path")

    for cls in (datamodel.BBox, datamodel.GtEntry, datamodel.OutTrack):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="built on the eval-mot path"):
        datamodel.parse_tracks(["1,1,0,0,5,5"])
    assert main(argv + ["--out", str(tmp_path / "patched")]) == 0
    for name in ("mot_aggregate.json", "mot_s.json"):
        assert ((tmp_path / "patched" / name).read_bytes()
                == (tmp_path / "unpatched" / name).read_bytes())


@pytest.mark.parametrize("command,row", [
    ("eval-det", "1,-1,0,0,5,5\n"),
    ("eval-system", "1,-1,oops,0,5,5,0.9,-1,-1,-1\n"),
    ("eval-mot", "1,1,oops,0,5,5\n"),
])
def test_csv_error_names_its_file(tmp_path, capsys, command, row):
    gt_dir, _ = _emit_fixture(tmp_path, "perfect")
    csv_dir = tmp_path / "bad-csv"
    csv_dir.mkdir()
    (csv_dir / "perfect.csv").write_text(row)
    other = {"eval-det": ["--det", str(csv_dir)],
             "eval-mot": ["--tracks", str(csv_dir)],
             "eval-system": ["--det", str(csv_dir), "--tracker", "builtin"]}
    assert main([command, "--gt", str(gt_dir), *other[command],
                 "--out", str(tmp_path / "out")]) == 1
    err = _one_line_error(capsys)
    assert f"{csv_dir / 'perfect.csv'}: line 1: " in err


_DROP = object()


def _system_doc(**changes) -> dict:
    """A valid system report with `changes` applied; _DROP removes a key."""
    doc = {"detector": "d", "tracker": "t", "iou_thr": 0.7, "arc_length": 1.0,
           "scores": {name: 1.0 for name in SCORE_NAMES}, "points": []}
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not _DROP}

BAD_SYSTEM_DOCS = {
    "scores-not-object": _system_doc(scores=1),
    "score-string": _system_doc(
        scores={**{name: 1.0 for name in SCORE_NAMES}, "pr_mota": "x"}),
    "score-null": _system_doc(
        scores={**{name: 1.0 for name in SCORE_NAMES}, "pr_fn": None}),
    "score-bool": _system_doc(
        scores={**{name: 1.0 for name in SCORE_NAMES}, "pr_ids": True}),
    "score-missing": _system_doc(
        scores={name: 1.0 for name in SCORE_NAMES[1:]}),
    "no-tracker": _system_doc(tracker=_DROP),
    "tracker-number": _system_doc(tracker=3),
    "detector-list": _system_doc(detector=["a"]),
}


@pytest.mark.parametrize("shape", list(BAD_SYSTEM_DOCS))
def test_report_wrong_shape_system_report_is_one_line_error(tmp_path, capsys,
                                                            shape):
    results = tmp_path / "results"
    (results / "good").mkdir(parents=True)
    (results / "good" / "system_report.json").write_text(
        json.dumps(_system_doc()))
    (results / "bad.json").write_text(json.dumps(BAD_SYSTEM_DOCS[shape]))
    assert main(["report", "--results", str(results),
                 "--out", str(tmp_path / "out")]) == 1
    assert f"{results / 'bad.json'}: " in _one_line_error(capsys)


def test_report_huge_and_non_finite_scores_are_one_line_errors(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    names = ",".join(f'"{name}": 1' for name in SCORE_NAMES[1:])
    for value in ("1" + "0" * 400, "NaN", "-Infinity", "1" * 5000):
        (results / "r.json").write_text(
            f'{{"detector": "d", "tracker": "t", "scores": '
            f'{{"pr_mota": {value}, {names}}}}}')
        assert main(["report", "--results", str(results),
                     "--out", str(tmp_path / "out")]) == 1
        assert "r.json" in _one_line_error(capsys)


_SCORE_VALUES = (st.floats() | st.integers() | st.booleans() | st.none()
                 | st.text(max_size=3) | st.just(10 ** 400))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)


@st.composite
def _result_files(draw):
    """Bytes of a file found by report's scan: arbitrary bytes, or a JSON
    document that is, or almost is, a system report."""
    kind = draw(st.sampled_from(("bytes", "json", "report", "report")))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "json":
        return json.dumps(draw(_JSON_VALUES)).encode()
    doc = {"scores": draw(st.dictionaries(
               st.sampled_from(SCORE_NAMES + ("other",)), _SCORE_VALUES)
               | st.fixed_dictionaries({name: st.floats(-1e3, 1e3)
                                        for name in SCORE_NAMES})
               | _JSON_VALUES)}
    for key in ("detector", "tracker"):
        value = draw(st.text(max_size=4) | _JSON_VALUES | st.just(_DROP))
        if value is not _DROP:
            doc[key] = value
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def scan_root(tmp_path_factory):
    return tmp_path_factory.mktemp("scan")


@settings(max_examples=300, deadline=None)
@given(files=st.lists(_result_files(), min_size=1, max_size=4))
def test_report_scan_fuzz_never_raises(scan_root, files):
    """Whatever the files under --results hold, report writes the tables
    or ends in one `detraceval: error:` line; it never raises."""
    results, out = scan_root / "results", scan_root / "out"
    shutil.rmtree(results, ignore_errors=True)
    for i, data in enumerate(files):
        (results / f"run{i}").mkdir(parents=True)
        (results / f"run{i}" / "system_report.json").write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["report", "--results", str(results), "--out", str(out)])
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads((out / "leaderboard.json").read_text())["systems"]
    else:
        assert code == 1
        text = err.getvalue()
        assert text.startswith("detraceval: error: ") and text.count("\n") == 1
