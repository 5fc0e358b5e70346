import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import detraceval
from detraceval.cli import _read_pair, build_parser, main
from detraceval.pr_integration import SCORE_NAMES
from detraceval.datamodel import (DetectionColumns, GtColumns, TrackColumns,
                                  ValidationError, read_detections, read_tracks,
                                  write_tracks)
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
        write_tracks(greedy_iou_track(fx.dets.columns), fh)
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
        write_tracks(greedy_iou_track(fx.dets.columns), fh)
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
    # The child imports the package from where this process found it, so
    # the test also runs from a checkout where it is not installed.
    root = str(Path(detraceval.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "detraceval.cli", "gen-synthetic",
         "--fixture", "perfect", "--out", str(tmp_path / "x")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert (tmp_path / "x" / "gt" / "perfect.json").exists()


_SCIPY_GUARD = """
import json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import detraceval
after_package = scipy_loaded()
import detraceval.cli
after_cli = scipy_loaded()

from detraceval import matching
shapes = []
canonical_match = matching._canonical_match

def recording(sub, iou_thr):
    shapes.append(list(sub.shape))
    return canonical_match(sub, iou_thr)

matching._canonical_match = recording
codes = [detraceval.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"after_package": after_package, "after_cli": after_cli,
                  "codes": codes, "shapes": shapes,
                  "after_main": scipy_loaded()}))
"""


def _two_by_two_scene(tmp_path):
    """Two GT targets 5 px apart and two detections between them: at the
    default IoU threshold every GT-detection pair is an edge, so the first
    frame's residual is one 2 x 2 component. Returns the gt, det and track
    directories."""
    from detraceval.datamodel import (BBox, Detection, DetectionSet,
                                      GroundTruth, GtEntry, GtTrack, OutTrack,
                                      TrackSet, write_detections,
                                      write_ground_truth)
    frames = range(1, 4)
    gt = GroundTruth("pair", 3, tuple(
        GtTrack(tid, tuple(GtEntry(f, BBox(x0 + 2 * f, 0, 100, 100))
                           for f in frames))
        for tid, x0 in ((1, 0), (2, 5))))
    det_rows = ((1, 0.9), (4, 0.8))  # (left at frame 0, score)
    dets = DetectionSet(tuple(Detection(f, BBox(x0 + 2 * f, 0, 100, 100), s)
                              for f in frames for x0, s in det_rows))
    tracks = TrackSet(tuple(
        OutTrack(tid, tuple((f, BBox(x0 + 2 * f, 0, 100, 100)) for f in frames))
        for tid, (x0, _) in enumerate(det_rows, start=1)))
    dirs = [tmp_path / name for name in ("gt", "det", "tracks")]
    for d in dirs:
        d.mkdir()
    with open(dirs[0] / "pair.json", "w") as fh:
        write_ground_truth(gt, fh)
    with open(dirs[1] / "pair.csv", "w") as fh:
        write_detections(dets, fh)
    with open(dirs[2] / "pair.csv", "w") as fh:
        write_tracks(tracks.columns, fh)
    return dirs


def test_evaluation_commands_import_no_scipy(tmp_path):
    # scipy is imported only where it is the only way to do the job: by
    # gen-synthetic's clutter, and by residual components with both sides
    # >= 3. A fresh interpreter shows what the package and the evaluation
    # commands load.
    gt_dir, det_dir, tracks_dir = _two_by_two_scene(tmp_path)
    out = tmp_path / "out"
    argvs = [
        ["eval-mot", "--gt", str(gt_dir), "--tracks", str(tracks_dir),
         "--out", str(out / "mot")],
        ["eval-det", "--gt", str(gt_dir), "--det", str(det_dir),
         "--out", str(out / "det")],
        ["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
         "--tracker", "builtin:max_gap=2", "--out", str(out / "system")],
    ]
    root = str(Path(detraceval.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_GUARD, json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    assert [2, 2] in got["shapes"]  # the component the enumeration serves
    assert got["after_package"] == got["after_cli"] == got["after_main"] == []
    mot = json.loads((out / "mot" / "mot_aggregate.json").read_text())
    assert mot["bundle"]["fn"] == mot["bundle"]["fp"] == 0


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


# A `cmd:` tracker that puts every detection in a track of its own.
_ONE_TRACK_PER_ROW = """\
import sys
rows = [line.strip().split(",") for line in open(sys.argv[1]) if line.strip()]
open(sys.argv[2], "w").writelines(
    ",".join([r[0], str(i)] + r[2:6]) + "\\n" for i, r in enumerate(rows, 1))
"""

# One subset of each kind, each non-empty on the scene below.
_EVAL_DET_SUBSETS = ("overall", "scale:medium", "occlusion:partial",
                     "category:car", "weather:cloudy", "difficulty:medium")


@pytest.mark.parametrize("command,tracker", [
    ("eval-det", None), ("eval-mot", None),
    ("eval-system", "builtin:max_gap=2"), ("eval-system", "cmd")],
    ids=["eval-det", "eval-mot", "eval-system-builtin", "eval-system-cmd"])
def test_evaluation_commands_build_no_box_objects(tmp_path, monkeypatch,
                                                  command, tracker):
    """Every evaluation command works on columns: with every per-box
    constructor disabled it still succeeds and writes the same bytes,
    ignore regions included; eval-det with one subset of each kind, and
    eval-system with a builtin and a `cmd:` tracker."""
    from detraceval import datamodel
    from detraceval.synth import ScenarioConfig, gen_scenario

    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(tmp_path))
    for sub in ("gt", "det", "tracks"):
        (tmp_path / sub).mkdir()
    for seed in (2, 3):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=6, n_frames=20, drop_rate=0.1, clutter_rate=2.0,
            jitter_sigma=1.0, seed=seed))
        gt = dataclasses.replace(gt, ignore_regions=(
            datamodel.IgnoreRegion(datamodel.BBox(0.0, 0.0, 400.0, 300.0)),
            datamodel.IgnoreRegion(datamodel.BBox(300.0, 200.0, 300.0, 300.0),
                                   5, 12)))
        with open(tmp_path / "gt" / f"s{seed}.json", "w") as fh:
            datamodel.write_ground_truth(gt, fh)
        with open(tmp_path / "det" / f"s{seed}.csv", "w") as fh:
            datamodel.write_detections(dets, fh)
        with open(tmp_path / "tracks" / f"s{seed}.csv", "w") as fh:
            write_tracks(greedy_iou_track(dets.columns, max_gap=2), fh)
    argv = [command, "--gt", str(tmp_path / "gt")]
    if command == "eval-det":
        argv += ["--det", str(tmp_path / "det")]
        for name in _EVAL_DET_SUBSETS:
            argv += ["--subset", name]
        outputs = ["detection_report.json"] + [
            f"pr_curve_{name.replace(':', '_')}.csv" for name in _EVAL_DET_SUBSETS]
    elif command == "eval-mot":
        argv += ["--tracks", str(tmp_path / "tracks"), "--jobs", "1"]
        outputs = ["mot_aggregate.json", "mot_s2.json", "mot_s3.json"]
    else:
        if tracker == "cmd":
            script = tmp_path / "tracker.py"
            script.write_text(_ONE_TRACK_PER_ROW)
            tracker = f"cmd:{sys.executable} {script} {{input}} {{output}}"
        argv += ["--det", str(tmp_path / "det"), "--tracker", tracker,
                 "--tracker-name", "t", "--thresholds", "4", "--jobs", "1"]
        outputs = ["system_report.json", "pr_curve.csv"]
    assert main(argv + ["--out", str(tmp_path / "unpatched")]) == 0

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built on the {command} path")

    for cls in (datamodel.BBox, datamodel.GtEntry, datamodel.GtTrack,
                datamodel.Detection, datamodel.OutTrack, datamodel.IgnoreRegion):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    with pytest.raises(AssertionError, match=f"built on the {command} path"):
        datamodel.BBox(0, 0, 5, 5)
    assert main(argv + ["--out", str(tmp_path / "patched")]) == 0
    for name in outputs:
        assert ((tmp_path / "patched" / name).read_bytes()
                == (tmp_path / "unpatched" / name).read_bytes())
    assert not list(tmp_path.glob("detraceval-*"))


@pytest.mark.parametrize("spec,option,value", [
    ("builtin:max_gap=x", "max_gap", "'x'"),
    ("builtin:link_thr=", "link_thr", "''"),
    ("builtin:max_gap", "max_gap", "''"),
    # values that convert but are out of range
    ("builtin:link_thr=nan", "link_thr", "nan"),
    ("builtin:link_thr=inf", "link_thr", "inf"),
    ("builtin:link_thr=0", "link_thr", "0.0"),
    ("builtin:link_thr=1.5", "link_thr", "1.5"),
    ("builtin:max_gap=-5,min_track_len=2", "max_gap", "-5"),
    ("builtin:min_track_len=0", "min_track_len", "0"),
    ("builtin:min_track_len=-1", "min_track_len", "-1"),
])
def test_bad_builtin_tracker_option_is_one_line_error(tmp_path, capsys, spec,
                                                      option, value):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    assert main(["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--tracker", spec, "--out", str(tmp_path / "out")]) == 1
    err = _one_line_error(capsys)
    assert f"builtin tracker option {option}:" in err and f"got {value}" in err


def test_eval_system_without_detections_says_so(tmp_path, capsys):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    (det_dir / "perfect.csv").write_text("")
    assert main(["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--tracker", "builtin", "--out", str(tmp_path / "out")]) == 1
    err = _one_line_error(capsys)
    assert "no detections" in err and "DetectionSet" not in err


def test_unbalanced_quote_in_cmd_leaves_no_workspace(tmp_path, capsys,
                                                     monkeypatch):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(workdir))
    assert main(["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--tracker", "cmd:'{input} {output}",
                 "--out", str(tmp_path / "out")]) == 1
    assert "No closing quotation" in _one_line_error(capsys)
    assert not list(workdir.iterdir())


@pytest.mark.parametrize("template,exc", [
    ("awk '{print $1}' {input} {output}", "KeyError"),
    ("tool {0} {input} {output}", "IndexError"),
    ("tool {input} {output} {", "ValueError"),
    ("tool {input} {output} {input.name}", "AttributeError"),
])
def test_bad_cmd_template_is_one_line_error_without_workspace(
        tmp_path, capsys, monkeypatch, template, exc):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(workdir))
    assert main(["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--tracker", f"cmd:{template}",
                 "--out", str(tmp_path / "out")]) == 1
    err = _one_line_error(capsys)
    assert repr(template) in err and exc in err
    assert not list(workdir.iterdir())


@pytest.mark.parametrize("command", ["eval-mot", "eval-system"])
def test_jobs_defaults_to_one_and_rejects_less(tmp_path, capsys, command):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    argv = [command, "--gt", str(gt_dir), "--out", str(tmp_path / "out")]
    argv += (["--tracks", str(det_dir)] if command == "eval-mot"
             else ["--det", str(det_dir), "--tracker", "builtin"])
    assert build_parser().parse_args(argv).jobs == 1
    for jobs in ("0", "-2"):
        assert main(argv + ["--jobs", jobs]) == 1
        assert f"--jobs must be at least 1, got {jobs}" in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["eval-det", "eval-mot", "eval-system"])
@pytest.mark.parametrize("iou_thr", ["nan", "inf", "-1", "1.5"])
def test_iou_thr_outside_unit_interval_is_one_line_error(tmp_path, capsys,
                                                         command, iou_thr):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    other = {"eval-det": ["--det", str(det_dir)],
             "eval-mot": ["--tracks", str(det_dir)],
             "eval-system": ["--det", str(det_dir), "--tracker", "builtin"]}
    assert main([command, "--gt", str(gt_dir), *other[command],
                 "--iou-thr", iou_thr, "--out", str(tmp_path / "out")]) == 1
    assert "--iou-thr must be a number in [0, 1]" in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value,name", [
    ("--seed", "-1", "seed"),
    ("--targets", "-3", "n_targets"),
    ("--clutter-rate", "inf", "clutter_rate"),
    ("--clutter-rate", "1e300", "clutter_rate"),
    ("--clutter-rate", "nan", "clutter_rate"),
    ("--clutter-rate", "-0.5", "clutter_rate"),
    ("--jitter-sigma", "-1", "jitter_sigma"),
    ("--jitter-sigma", "nan", "jitter_sigma"),
    ("--jitter-sigma", "inf", "jitter_sigma"),
    # a value may carry further arguments: this one died allocating frames
    ("--frames", "100000000000 --targets 0", "n_frames"),
])
def test_gen_synthetic_bad_value_is_one_line_error(tmp_path, capsys, flag,
                                                   value, name):
    out = tmp_path / "out"
    assert main(["gen-synthetic", flag, *value.split(), "--out", str(out)]) == 1
    assert name in _one_line_error(capsys)
    assert not out.exists()


# One short sequence: GT (frame_count 3), detections and tracks, as files.
_SHORT_GT = json.dumps({
    "sequence_id": "s", "frame_count": 3, "ignore_regions": [
        {"left": 0, "top": 0, "width": 4, "height": 4,
         "first_frame": 2, "last_frame": 3}],
    "tracks": [{"target_id": 1, "entries": [
        {"frame": f, "left": 10 + f, "top": 10, "width": 20, "height": 20,
         "occlusion": 0.25, "category": "bus"} for f in (1, 2, 3)]}]}) + "\n"
_SHORT_DETS = ("1,-1,11,10,20,20,0.9,-1,-1,-1\n2,-1,12,10,20,20,0.5,-1,-1,-1\n"
               "3,-1,50.5,60,8,9,0.25,-1,-1,-1\n")
_SHORT_TRACKS = "1,1,11,10,20,20\n2,1,12,10,20,20\n3,2,50.5,60,8,9\n"
_INPUTS = {"gt": ("s.json", _SHORT_GT), "det": ("s.csv", _SHORT_DETS),
           "tracks": ("s.csv", _SHORT_TRACKS)}
# command -> the kinds of input it reads, GT first
_COMMAND_INPUTS = {"eval-det": ("gt", "det"), "eval-mot": ("gt", "tracks"),
                   "eval-system": ("gt", "det")}


def _short_scene(root: Path, **texts) -> None:
    """The short sequence's three inputs under root/gt, root/det and
    root/tracks; `texts` replaces the text of a kind."""
    for kind, (name, text) in _INPUTS.items():
        (root / kind).mkdir(parents=True, exist_ok=True)
        (root / kind / name).write_text(texts.get(kind, text))


def _eval(command: str, root: Path, *extra: str) -> int:
    gt, other = _COMMAND_INPUTS[command]
    argv = [command, "--gt", str(root / gt), f"--{other}", str(root / other)]
    if command == "eval-system":
        argv += ["--tracker", "builtin"]
    return main([*argv, *extra, "--out", str(root / "out")])


@pytest.mark.parametrize("command,kind", [
    (command, kind) for command, kinds in _COMMAND_INPUTS.items()
    for kind in kinds])
def test_unreadable_input_is_one_line_error(tmp_path, capsys, command, kind):
    """An input path that cannot be read (here a directory named like the
    file) ends in one line naming it."""
    _short_scene(tmp_path)
    assert _eval(command, tmp_path) == 0
    path = tmp_path / kind / _INPUTS[kind][0]
    path.unlink()
    path.mkdir()
    assert _eval(command, tmp_path) == 1
    assert _one_line_error(capsys) == f"detraceval: error: {path}: Is a directory\n"


@pytest.mark.parametrize("command,extra", [
    ("eval-det", ()), ("eval-mot", ()), ("eval-system", ()),
    ("eval-system", ("--keep-going",))])
def test_box_beyond_frame_count_names_its_file(tmp_path, capsys, command, extra):
    """A detection or track row past the GT's frame_count is an error
    naming the file, for every command, --keep-going or not."""
    _short_scene(tmp_path, det=_SHORT_DETS + "4,-1,1,1,5,5,0.5,-1,-1,-1\n",
                 tracks=_SHORT_TRACKS + "5,2,1,1,5,5\n")
    kind = _COMMAND_INPUTS[command][1]
    assert _eval(command, tmp_path, *extra) == 1
    frame = 4 if kind == "det" else 5
    assert _one_line_error(capsys) == (
        f"detraceval: error: {tmp_path / kind / 's.csv'}: frame {frame} "
        f"beyond frame_count 3\n")


# Bytes that change the meaning of CSV and JSON text; arbitrary bytes are
# mostly not UTF-8 and would stop most reads at decoding.
_SYNTAX = st.sampled_from([b",", b"\n", b"-", b".", b"e", b"0", b"9", b'"',
                           b"{", b"}", b"[", b"]", b":", b" ", b"nan", b"1e999",
                           b"true", b"null", b"\r", b"\x00"])


def _mutated(data: bytes):
    """`data` with up to four edits: a span of up to 3 bytes deleted, or
    replaced by syntax bytes or arbitrary ones."""
    edit = st.tuples(st.integers(0, len(data)), st.integers(0, 3),
                     _SYNTAX | st.binary(max_size=2))

    def apply(edits):
        out = data
        for at, drop, insert in edits:
            out = out[:at] + insert + out[at + drop:]
        return out

    return st.lists(edit, min_size=1, max_size=4).map(apply)


# box file kind -> its reader and the columns it gives
_BOX_READERS = {"det": (read_detections, DetectionColumns),
                "tracks": (read_tracks, TrackColumns)}
# (kind, bytes of its file): arbitrary bytes or text, or the valid file
# mutated
_FUZZ_CASES = st.one_of(*(
    st.tuples(st.just(kind), st.binary(max_size=60)
              | st.text(max_size=60).map(str.encode)
              | _mutated(text.encode()))
    for kind, (_, text) in _INPUTS.items()))


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    _short_scene(root)
    return root


@settings(max_examples=400, deadline=None)
@given(case=_FUZZ_CASES)
@example(case=("gt", b"\xff\xfe{}"))
@example(case=("det", b"1,-1,0,0,5,5,0.9,-1,-1,\x00\n"))
@example(case=("gt", b'{"frame_count": ' + b"1" * 5000 + b"}"))
def test_pair_reader_fuzz_gives_columns_or_names_the_file(fuzz_root, case):
    """Whatever bytes an input file holds, the pair reader gives columns or
    a ValidationError whose text starts with that file's path; a GT whose
    frame_count the other file's rows pass names the other file."""
    kind, data = case
    name, text = _INPUTS[kind]
    path = fuzz_root / kind / name
    path.write_bytes(data)
    try:
        for other in _BOX_READERS if kind == "gt" else (kind,):
            reader, columns = _BOX_READERS[other]
            box_path = fuzz_root / other / "s.csv"
            try:
                gt, boxes = _read_pair(fuzz_root / "gt" / "s.json", box_path,
                                       reader)
            except ValidationError as exc:
                error = str(exc)
                assert error.startswith(f"{path}: ") or (
                    kind == "gt" and error.startswith(f"{box_path}: frame ")), error
                continue
            assert isinstance(gt, GtColumns) and isinstance(boxes, columns)
    finally:
        path.write_text(text)
