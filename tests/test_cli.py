import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import detraceval
from box_columns import det_columns, track_columns
from detraceval.cli import _read_pair, _write_json, build_parser, main
from detraceval.pr_integration import DEFAULT_N_THRESHOLDS, SCORE_NAMES
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


def test_eval_mot_reserves_the_aggregate_name(tmp_path, capsys):
    """A sequence named `aggregate` would have its report overwritten by
    mot_aggregate.json: an error before anything is evaluated."""
    _short_scene(tmp_path)
    for kind in ("gt", "tracks"):
        name = _INPUTS[kind][0]
        (tmp_path / kind / name).rename(
            tmp_path / kind / name.replace("s.", "aggregate."))
    assert _eval("eval-mot", tmp_path) == 1
    assert "'aggregate'" in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


_LATE_WHEN_ALONE = """\
import sys
rows = [line.strip().split(",") for line in open(sys.argv[1]) if line.strip()]
shift = 1000 if len(rows) == 1 else 0
open(sys.argv[2], "w").writelines(
    ",".join([str(int(r[0]) + shift), str(i)] + r[2:6]) + "\\n"
    for i, r in enumerate(rows, 1))
"""


def test_tracker_output_beyond_frame_count_is_a_tracker_failure(
        tmp_path, monkeypatch, capsys):
    """A tracker that writes frames past frame_count fails at that
    threshold: the error names the threshold and the sequence, and
    --keep-going leaves a gap there instead."""
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(tmp_path))
    _short_scene(tmp_path)
    script = tmp_path / "tracker.py"
    script.write_text(_LATE_WHEN_ALONE)
    tracker = ("--tracker", f"cmd:{sys.executable} {script} {{input}} {{output}}")
    # Scores 0.9, 0.5 and 0.25: one detection is left above 0.5 only.
    assert _eval("eval-system", tmp_path, *tracker) == 1
    err = _one_line_error(capsys)
    assert err.startswith("detraceval: error: tracker failed at threshold 0.5")
    assert err.endswith(" on sequence 's': tracker output: frame 1001 "
                        "beyond frame_count 3\n")
    assert _eval("eval-system", tmp_path, *tracker, "--keep-going") == 0
    report = json.loads((tmp_path / "out" / "system_report.json").read_text())
    thresholds = [p["threshold"] for p in report["points"]]
    assert len(thresholds) == 4 and max(thresholds) <= 0.5


def test_a_tracker_that_always_fails_runs_once_or_names_the_first_failure(
        tmp_path, monkeypatch, capsys):
    """A cmd: tracker that fails on every call runs once and keeps one
    workspace; with --keep-going it runs at every threshold, and the error,
    one line, names the first failure."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("DETRACEVAL_TMPDIR", str(work))
    _short_scene(tmp_path)
    tracker = ("--tracker", "cmd:false {input} {output}", "--thresholds", "3")
    assert _eval("eval-system", tmp_path, *tracker, "--jobs", "1") == 1
    err = _one_line_error(capsys)
    assert err.startswith("detraceval: error: tracker failed at threshold "
                          "0.25 on sequence 's': tracker exited with status 1")
    assert len(list(work.iterdir())) == 1
    assert _eval("eval-system", tmp_path, *tracker, "--keep-going") == 1
    err = _one_line_error(capsys)
    assert err.startswith("detraceval: error: every threshold failed; first: "
                          "tracker failed at threshold 0.25 on sequence 's': "
                          "tracker exited with status 1")
    assert len(list(work.iterdir())) == 1 + 3


def test_builtin_sweep_equals_reference_linker_per_threshold(tmp_path):
    """The builtin tracker links every threshold from one link table per
    sequence; a `cmd:` tracker running the per-frame reference linker on
    each threshold's detection file gives the same report bytes."""
    gt_dir, det_dir = _emit_fixture(tmp_path, "ranking-flip")
    linker = Path(__file__).resolve().parent / "reference_linker.py"
    specs = {"builtin": "builtin:max_gap=2",
             "cmd": f"cmd:{sys.executable} {linker} {{input}} {{output}} 2"}
    for name, spec in specs.items():
        assert main(["eval-system", "--gt", str(gt_dir), "--det",
                     str(det_dir), "--tracker", spec, "--tracker-name", "t",
                     "--out", str(tmp_path / name)]) == 0
    for rel in ("system_report.json", "pr_curve.csv"):
        assert ((tmp_path / "builtin" / rel).read_bytes()
                == (tmp_path / "cmd" / rel).read_bytes())


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


def _scenario_dirs(root: Path, seeds) -> tuple[Path, Path, Path]:
    """GT, detection and track directories of one generated sequence per
    seed; the tracks are the greedy linker's on the detections."""
    from detraceval.datamodel import write_detections, write_ground_truth
    from detraceval.synth import ScenarioConfig, gen_scenario
    dirs = [root / sub for sub in ("gt", "det", "tracks")]
    for d in dirs:
        d.mkdir(parents=True)
    for seed in seeds:
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=6, n_frames=20, drop_rate=0.1, clutter_rate=2.0,
            jitter_sigma=1.0, seed=seed))
        with open(dirs[0] / f"s{seed}.json", "w", encoding="utf-8") as fh:
            write_ground_truth(gt, fh)
        with open(dirs[1] / f"s{seed}.csv", "w", encoding="utf-8") as fh:
            write_detections(dets, fh)
        with open(dirs[2] / f"s{seed}.csv", "w", encoding="utf-8") as fh:
            write_tracks(greedy_iou_track(dets, max_gap=2), fh)
    return tuple(dirs)


def test_eval_mot_jobs_byte_identical(tmp_path, monkeypatch):
    """eval-mot gives the bytes of --jobs 1 at --jobs 4 in every report
    file, with each GT read streamed in several batches."""
    from detraceval import datamodel
    gt_dir, _, tracks_dir = _scenario_dirs(tmp_path, (2, 3, 4, 5))
    monkeypatch.setattr(datamodel, "_GT_BATCH_ENTRIES", 8)
    batches = []
    real = datamodel._gt_columns
    monkeypatch.setattr(datamodel, "_gt_columns",
                        lambda *args: batches.append(1) or real(*args))
    trees = []
    for jobs in ("1", "4"):
        out = tmp_path / f"out{jobs}"
        batches.clear()
        assert main(["eval-mot", "--gt", str(gt_dir), "--tracks",
                     str(tracks_dir), "--jobs", jobs, "--out", str(out)]) == 0
        assert len(batches) >= 4 * 3  # each GT: 2 or more batches, regions
        trees.append(_tree(out))
    assert len(trees[0]) == 5 and trees[0] == trees[1]


def test_eval_mot_scores_in_order_on_the_main_thread(tmp_path, monkeypatch):
    """--jobs has no effect on eval-mot: at --jobs 4, with no thread pool
    to be had, every read and every CLEAR call runs on the main thread,
    sequence after sequence, and the reports are the bytes of --jobs 1."""
    import concurrent.futures
    import threading
    from detraceval import cli, mot_metrics, pr_integration
    gt_dir, _, tracks_dir = _scenario_dirs(tmp_path, (2, 3, 4))
    argv = ["eval-mot", "--gt", str(gt_dir), "--tracks", str(tracks_dir)]
    assert main([*argv, "--jobs", "1", "--out", str(tmp_path / "out1")]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("eval-mot started a thread pool")
    for module in (concurrent.futures, pr_integration):
        monkeypatch.setattr(module, "ThreadPoolExecutor", no_pool)
    calls = []
    for module, name in ((cli, "read_ground_truth"), (cli, "read_tracks"),
                         (mot_metrics, "evaluate_clear")):
        def call(*args, _fn=getattr(module, name), _name=name):
            calls.append((_name, threading.current_thread()))
            return _fn(*args)
        monkeypatch.setattr(module, name, call)
    assert main([*argv, "--jobs", "4", "--out", str(tmp_path / "out4")]) == 0
    assert [name for name, _ in calls] == [
        "read_ground_truth", "read_tracks", "evaluate_clear"] * 3
    assert {thread for _, thread in calls} == {threading.main_thread()}
    tree = _tree(tmp_path / "out1")
    assert len(tree) == 4 and tree == _tree(tmp_path / "out4")


def test_eval_det_reads_one_sequence_at_a_time(tmp_path, monkeypatch):
    """eval-det labels each sequence as it is read: when a sequence's GT
    file is read, the GT and detection columns of the sequences before it
    are gone."""
    from detraceval import cli
    gt_dir, det_dir, _ = _scenario_dirs(tmp_path, (2, 3, 4))
    refs, alive = [], []

    def tracked(name):
        def read(fh, _fn=getattr(cli, name)):
            if name == "read_ground_truth":
                gc.collect()
                alive.append([ref() is not None for ref in refs])
            columns = _fn(fh)
            refs.append(weakref.ref(columns))
            return columns
        monkeypatch.setattr(cli, name, read)
    tracked("read_ground_truth")
    tracked("read_detections")
    assert main(["eval-det", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--subset", "overall", "--subset", "category:car",
                 "--out", str(tmp_path / "out")]) == 0
    assert alive == [[], [False] * 2, [False] * 4]


_OVERLAP_TRACKER = """\
import sys, time
dets, out, log = sys.argv[1:4]
with open(log, "a") as fh:
    fh.write("start\\n")
deadline = time.monotonic() + 10.0
while open(log).read().count("start") < 2 and time.monotonic() < deadline:
    time.sleep(0.01)
rows = [line.split(",") for line in open(dets) if line.strip()]
with open(out, "w") as fh:
    fh.writelines(",".join([r[0], str(i + 1)] + r[2:6]) + "\\n"
                  for i, r in enumerate(rows))
with open(log, "a") as fh:
    fh.write("end\\n")
"""


def test_jobs_overlap_external_tracker_runs(tmp_path):
    """The one case threads serve: with --jobs 2, two `cmd:` tracker runs
    are under way at once. Each run logs its start, waits (at most 10 s)
    until the log holds two starts, then logs its end."""
    gt_dir, det_dir = _emit_fixture(tmp_path, "ranking-flip")
    script, log = tmp_path / "overlap.py", tmp_path / "runs.log"
    script.write_text(_OVERLAP_TRACKER)
    assert main(["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--tracker", f"cmd:{sys.executable} {script} {{input}} "
                              f"{{output}} {log}",
                 "--thresholds", "2", "--jobs", "2",
                 "--out", str(tmp_path / "out")]) == 0
    events = log.read_text().split()
    assert events[:2] == ["start", "start"], events


def test_cmd_tracker_sweep_jobs_byte_identical(tmp_path):
    """The one threaded path: a `cmd:` tracker over two sequences and four
    thresholds writes the same report bytes at --jobs 1 and --jobs 4."""
    gt_dir, det_dir, _ = _scenario_dirs(tmp_path, (2, 3))
    linker = Path(__file__).resolve().parent / "reference_linker.py"
    outs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"out{jobs}"
        assert main(["eval-system", "--gt", str(gt_dir), "--det",
                     str(det_dir), "--tracker",
                     f"cmd:{sys.executable} {linker} {{input}} {{output}} 2",
                     "--thresholds", "4", "--jobs", jobs,
                     "--out", str(out)]) == 0
        outs.append(_tree(out))
    assert sorted(outs[0]) == ["pr_curve.csv", "system_report.json"]
    assert outs[0] == outs[1]
    points = json.loads(outs[0]["system_report.json"])["points"]
    assert len(points) == 4


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


def test_eval_system_scores_a_score_range_that_overflows(tmp_path):
    """Finite scores -1e308 .. 1e308, whose range overflows a double, give
    a finite threshold ladder; each point's recall counts what it keeps."""
    from detraceval.datamodel import (BBox, GroundTruth, GtEntry, GtTrack,
                                      write_ground_truth)
    for sub in ("gt", "det"):
        (tmp_path / sub).mkdir()
    gt = GroundTruth("s", 2, (
        GtTrack(1, (GtEntry(1, BBox(0, 0, 10, 10)), GtEntry(2, BBox(0, 0, 10, 10)))),
        GtTrack(2, (GtEntry(1, BBox(50, 0, 10, 10)),))))
    with open(tmp_path / "gt" / "s.json", "w") as fh:
        write_ground_truth(gt, fh)
    (tmp_path / "det" / "s.csv").write_text(
        "1,-1,0,0,10,10,-1e308,-1,-1,-1\n"
        "2,-1,0,0,10,10,1e308,-1,-1,-1\n"
        "1,-1,50,0,10,10,0,-1,-1,-1\n")
    out = tmp_path / "out"
    assert main(["eval-system", "--gt", str(tmp_path / "gt"),
                 "--det", str(tmp_path / "det"), "--tracker", "builtin",
                 "--tracker-name", "t", "--thresholds", "3",
                 "--out", str(out)]) == 0
    points = json.loads((out / "system_report.json").read_text())["points"]
    assert [(p["threshold"], p["recall"], p["bundle"]["fn"]) for p in points] == [
        (1e308, 0.333333, 2), (0.0, 0.666667, 1), (-1e308, 1.0, 0)]


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


def test_leaderboard_csv_quotes_names(tmp_path):
    """Names with a comma (the default tracker name is the spec), a quote,
    a newline or a carriage return read back as one field each; every row
    has the header's 10 fields and equals leaderboard.json."""
    gt_dir, det_dir = _emit_fixture(tmp_path, "ranking-flip")
    results = tmp_path / "results"
    assert main(["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--tracker", "builtin:max_gap=2,min_track_len=3",
                 "--detector-name", 'say "cheese"',
                 "--out", str(results / "spec")]) == 0
    (results / "other.json").write_text(json.dumps(
        _system_doc(detector="two\nlines", tracker="a,b")))
    (results / "cr.json").write_text(json.dumps(
        _system_doc(detector="car\rriage", tracker="cr\r\nlf")))
    out = tmp_path / "tables"
    assert main(["report", "--results", str(results),
                 "--out", str(out)]) == 0
    systems = json.loads((out / "leaderboard.json").read_text())["systems"]
    with open(out / "leaderboard.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["detector", "tracker", *SCORE_NAMES]
    assert len(rows) == len(systems) == 3
    for row, system in zip(rows, systems):
        assert len(row) == 10
        assert row[:2] == [system["detector"], system["tracker"]]
        assert [float(v) for v in row[2:]] == [system[k] for k in SCORE_NAMES]
    assert {s["tracker"] for s in systems} == {
        "builtin:max_gap=2,min_track_len=3", "a,b", "cr\r\nlf"}


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


# A locale whose encoding is ASCII, with UTF-8 mode off.
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_commands_write_the_same_bytes_under_an_ascii_locale(tmp_path):
    """Every file is UTF-8 whatever the locale. Under an ASCII locale, with
    each open() that falls back on the locale's encoding an error
    (EncodingWarning), every subcommand exits 0 and writes the bytes this
    process writes. `report` reads a detector name that is not ASCII, from
    a report written as `_write_json` writes it and from one in raw UTF-8."""
    def argvs(side: Path) -> list[list[str]]:
        gt, det = str(side / "gen" / "gt"), str(side / "gen" / "det")
        return [["gen-synthetic", "--targets", "3", "--frames", "12",
                 "--seed", "1", "--out", str(side / "gen")],
                ["eval-det", "--gt", gt, "--det", det, "--out", str(side / "det")],
                ["eval-mot", "--gt", gt, "--tracks", str(tmp_path / "tracks"),
                 "--out", str(side / "mot")],
                ["eval-system", "--gt", gt, "--det", det, "--tracker", "builtin",
                 "--thresholds", "4", "--out", str(side / "system")],
                ["report", "--results", str(tmp_path / "results"),
                 "--out", str(side / "report")]]

    normal, ascii_run = tmp_path / "normal", tmp_path / "ascii"
    gen, det, mot, system, report = argvs(normal)
    assert main(gen) == 0 and main(det) == 0
    # eval-mot scores the builtin tracker's tracks of the generated detections.
    (det_csv,) = (normal / "gen" / "det").iterdir()
    with open(det_csv, encoding="utf-8") as fh:
        tracks = greedy_iou_track(read_detections(fh))
    (tmp_path / "tracks").mkdir()
    with open(tmp_path / "tracks" / det_csv.name, "w", encoding="utf-8") as fh:
        write_tracks(tracks, fh)
    assert main(mot) == 0 and main(system) == 0
    doc = json.loads((normal / "system" / "system_report.json").read_bytes())
    for name in ("escaped", "raw"):
        (tmp_path / "results" / name).mkdir(parents=True)
    _write_json(tmp_path / "results" / "escaped" / "system_report.json",
                {**doc, "detector": "d\u00e9tecteur"})
    (tmp_path / "results" / "raw" / "system_report.json").write_bytes(
        json.dumps({**doc, "detector": "d\u00e9tecteur brut"},
                   ensure_ascii=False).encode())
    assert main(report) == 0
    root = str(Path(detraceval.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **_ASCII_LOCALE}
    for argv in argvs(ascii_run):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W",
             "error::EncodingWarning", "-m", "detraceval.cli", *argv],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert _tree(ascii_run) == _tree(normal)
    leaderboard = (normal / "report" / "leaderboard.csv").read_bytes()
    assert "d\u00e9tecteur,".encode() in leaderboard
    assert "d\u00e9tecteur brut,".encode() in leaderboard


def test_names_keep_their_text_under_an_ascii_locale(tmp_path):
    """Under an ASCII locale, non-ASCII --detector-name and --tracker-name
    bytes reach the system report as the UTF-8 text they spell, and
    `report` reads them back; a name whose bytes are not UTF-8 is one
    error line, before any output is made."""
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    root = str(Path(detraceval.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **_ASCII_LOCALE}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "detraceval.cli", *argv],
                              capture_output=True, env=env)

    system = ["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
              "--tracker", "builtin", "--thresholds", "3"]
    proc = run(*system, "--detector-name", "d\u00e9tecteur".encode(),
               "--tracker-name", "suivi \u65e5\u672c".encode(),
               "--out", str(tmp_path / "results" / "run"))
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    doc = json.loads((tmp_path / "results" / "run" / "system_report.json")
                     .read_bytes())
    assert (doc["detector"], doc["tracker"]) == ("d\u00e9tecteur",
                                                  "suivi \u65e5\u672c")
    proc = run("report", "--results", str(tmp_path / "results"),
               "--out", str(tmp_path / "report"))
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    leaderboard = (tmp_path / "report" / "leaderboard.csv").read_bytes()
    assert "d\u00e9tecteur,suivi \u65e5\u672c,".encode() in leaderboard
    for option in ("--detector-name", "--tracker-name"):
        proc = run(*system, option, b"d\xe9tecteur",
                   "--out", str(tmp_path / "refused"))
        assert proc.returncode == 1
        assert proc.stderr.decode().startswith(
            f"detraceval: error: {option} is not valid UTF-8 text: ")
        assert proc.stderr.count(b"\n") == 1
        assert not (tmp_path / "refused").exists()


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
codes, masked = [], []
for argv in json.loads(sys.argv[1]):
    codes.append(detraceval.cli.main(argv))
    masked.append("numpy.ma" in sys.modules)
print(json.dumps({"after_package": after_package, "after_cli": after_cli,
                  "codes": codes, "shapes": shapes, "masked": masked,
                  "after_main": scipy_loaded()}))
"""


def _two_by_two_scene(tmp_path):
    """Two GT targets 5 px apart and two detections between them: at the
    default IoU threshold every GT-detection pair is an edge, so the first
    frame's residual is one 2 x 2 component. Returns the gt, det and track
    directories."""
    from detraceval.datamodel import (BBox, GroundTruth, GtEntry, GtTrack,
                                      write_detections, write_ground_truth)
    frames = range(1, 4)
    gt = GroundTruth("pair", 3, tuple(
        GtTrack(tid, tuple(GtEntry(f, BBox(x0 + 2 * f, 0, 100, 100))
                           for f in frames))
        for tid, x0 in ((1, 0), (2, 5))))
    det_rows = ((1, 0.9), (4, 0.8))  # (left at frame 0, score)
    dets = det_columns(*((f, BBox(x0 + 2 * f, 0, 100, 100), s)
                         for f in frames for x0, s in det_rows))
    tracks = track_columns(*(
        (tid, ((f, BBox(x0 + 2 * f, 0, 100, 100)) for f in frames))
        for tid, (x0, _) in enumerate(det_rows, start=1)))
    dirs = [tmp_path / name for name in ("gt", "det", "tracks")]
    for d in dirs:
        d.mkdir()
    with open(dirs[0] / "pair.json", "w") as fh:
        write_ground_truth(gt, fh)
    with open(dirs[1] / "pair.csv", "w") as fh:
        write_detections(dets, fh)
    with open(dirs[2] / "pair.csv", "w") as fh:
        write_tracks(tracks, fh)
    return dirs


def test_evaluation_commands_import_no_scipy(tmp_path):
    # scipy is imported only where it is the only way to do the job: by
    # gen-synthetic's clutter, and by residual components with both sides
    # >= 3. numpy.ma, which a plain np.unique / np.union1d imports on first
    # use, is never needed. A fresh interpreter shows what the package and
    # the evaluation commands load.
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
    assert got["masked"] == [False, False, False]
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
    constructor and `PRCurve` disabled it still succeeds and writes the
    same bytes, ignore regions included; eval-det with one subset of each
    kind, and eval-system with a builtin and a `cmd:` tracker."""
    from detraceval import datamodel, det_metrics
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
            write_tracks(greedy_iou_track(dets, max_gap=2), fh)
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
                datamodel.IgnoreRegion, det_metrics.PRCurve):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    with pytest.raises(AssertionError, match=f"built on the {command} path"):
        datamodel.BBox(0, 0, 5, 5)
    with pytest.raises(AssertionError, match=f"built on the {command} path"):
        det_metrics.PRCurve((det_metrics.PRPoint(1.0, 1.0, 1.0, 1, 0, 0),))
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
    # an option given twice
    ("builtin:max_gap=2,max_gap=3", "max_gap", "'3'"),
])
def test_bad_builtin_tracker_option_is_one_line_error(tmp_path, capsys, spec,
                                                      option, value):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    assert main(["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--tracker", spec, "--out", str(tmp_path / "out")]) == 1
    err = _one_line_error(capsys)
    assert f"builtin tracker option {option}:" in err and f"got {value}" in err


def test_unknown_builtin_tracker_option_is_one_line_error(tmp_path, capsys):
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    assert main(["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
                 "--tracker", "builtin:bogus=1",
                 "--out", str(tmp_path / "out")]) == 1
    assert _one_line_error(capsys) == (
        "detraceval: error: unknown builtin tracker option 'bogus'\n")
    assert not (tmp_path / "out").exists()


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


def test_thresholds_default_is_the_sweeps():
    argv = ["eval-system", "--gt", "gt", "--det", "det", "--tracker",
            "builtin", "--out", "out"]
    assert build_parser().parse_args(argv).thresholds == DEFAULT_N_THRESHOLDS


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
    "detector-lone-surrogate": _system_doc(detector="\ud800"),
    "tracker-lone-surrogate": _system_doc(tracker="\ud800"),
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
    # New files: truncating just-written ones can wait on their writeback.
    shutil.rmtree(out, ignore_errors=True)
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


@pytest.mark.parametrize("argv,error", [
    (["eval-det", "--subset", "overall", "--subset", "bogus"],
     "bad subset name 'bogus'"),
    (["eval-det", "--subset", "colour:red"], "unknown subset kind 'colour'"),
    (["eval-det", "--subset", "scale:huge"],
     "unknown scale 'huge' in subset 'scale:huge'"),
    (["eval-system", "--tracker", "builtin", "--thresholds", "1"],
     "need n >= 2 thresholds, got 1"),
    (["eval-system", "--tracker", "builtin", "--thresholds", "0"],
     "need n >= 2 thresholds, got 0"),
    (["eval-system", "--tracker", "builtin", "--thresholds", "-3"],
     "need n >= 2 thresholds, got -3"),
])
def test_bad_subset_or_threshold_count_is_one_line_error(tmp_path, capsys,
                                                         argv, error):
    """A bad --subset or --thresholds is reported before any input is
    read, here a malformed detection file, and before --out is made."""
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    (det_dir / "perfect.csv").write_text("1,-1,oops,0,5,5,0.9,-1,-1,-1\n")
    command, *options = argv
    assert main([command, "--gt", str(gt_dir), "--det", str(det_dir),
                 *options, "--out", str(tmp_path / "out")]) == 1
    assert error in _one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_empty_subset_error_names_the_subset(tmp_path, capsys):
    """A subset that keeps no GT row of any sequence is one error line
    that names it."""
    root = tmp_path / "scene"
    assert main(["gen-synthetic", "--targets", "3", "--frames", "5",
                 "--out", str(root)]) == 0
    assert main(["eval-det", "--gt", str(root / "gt"), "--det",
                 str(root / "det"), "--subset", "overall",
                 "--subset", "scale:large", "--out", str(tmp_path / "out")]) == 1
    assert _one_line_error(capsys) == (
        "detraceval: error: empty evaluation target set for subset "
        "'scale:large'\n")


def test_warnings_are_one_line_each(tmp_path):
    """eval-system on the perfect fixture warns twice, each warning one
    `detraceval: warning:` line. In-process the formatter is main's only
    while it runs, so `pytest.warns` still sees the warnings."""
    gt_dir, det_dir = _emit_fixture(tmp_path, "perfect")
    argv = ["eval-system", "--gt", str(gt_dir), "--det", str(det_dir),
            "--tracker", "builtin"]
    root = str(Path(detraceval.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "detraceval.cli", *argv,
         "--out", str(tmp_path / "child")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stderr == (
        "detraceval: warning: all detection scores are equal; single threshold\n"
        "detraceval: warning: single operating point: line integral is 0\n")
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning) as caught:  # an `always` filter
        assert main([*argv, "--out", str(tmp_path / "in-process")]) == 0
    assert [str(w.message) for w in caught] == [
        "all detection scores are equal; single threshold",
        "single operating point: line integral is 0"]
    assert warnings.formatwarning is formatwarning


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


def test_gen_synthetic_box_that_breaks_a_detection_rule_is_one_line_error(
        tmp_path, capsys):
    """A jitter large enough to overflow a generated box to infinity: the
    detection rules reject it in one error line naming the box field, and
    no --out directory is left behind."""
    out = tmp_path / "out"
    assert main(["gen-synthetic", "--targets", "3", "--frames", "5",
                 "--clutter-rate", "0", "--jitter-sigma", "1e308",
                 "--out", str(out)]) == 1
    err = _one_line_error(capsys)
    assert re.search(r"BBox\.(left|top|width|height) must be finite", err), err
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
    # A new file: truncating a just-written file can wait on its writeback.
    path.unlink()
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
        path.unlink()
        path.write_text(text)


def test_eval_det_without_detections_writes_the_nothing_kept_row(tmp_path):
    """With no detections the PR curve is the one row that keeps nothing:
    its threshold (inf) is an empty field, precision 1 and every GT a
    miss."""
    _short_scene(tmp_path, det="")
    assert _eval("eval-det", tmp_path) == 0
    assert (tmp_path / "out" / "pr_curve_overall.csv").read_text() == (
        "threshold,precision,recall,tp,fp,fn\n,1,0,0,0,3\n")


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["eval-det", "eval-mot", "eval-system",
                                     "report", "gen-synthetic"])
def test_unusable_out_is_one_line_error(tmp_path, capsys, command, under):
    """An --out that names a file, or a path under one, ends in one line
    naming it, for every subcommand."""
    _short_scene(tmp_path)
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / "a.json").write_text(json.dumps(_system_doc()))
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "x" if under else taken
    gt = ["--gt", str(tmp_path / "gt")]
    det = ["--det", str(tmp_path / "det")]
    argv = {"eval-det": [*gt, *det],
            "eval-mot": [*gt, "--tracks", str(tmp_path / "tracks")],
            "eval-system": [*gt, *det, "--tracker", "builtin"],
            "report": ["--results", str(tmp_path / "results")],
            "gen-synthetic": ["--fixture", "perfect"]}[command]
    assert main([command, *argv, "--out", str(out)]) == 1
    reason = "Not a directory" if under else "File exists"
    assert _one_line_error(capsys) == f"detraceval: error: {out}: {reason}\n"


def test_unwritable_report_is_one_line_error(tmp_path, capsys):
    """A report file that cannot be written ends in one line naming it."""
    _short_scene(tmp_path)
    blocked = tmp_path / "out" / "pr_curve_overall.csv"
    blocked.mkdir(parents=True)
    assert _eval("eval-det", tmp_path) == 1
    assert _one_line_error(capsys) == (
        f"detraceval: error: {blocked}: Is a directory\n")
