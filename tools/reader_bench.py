"""Reader timings in-process, and paired benchmark runs of two checkouts.

    python3 tools/reader_bench.py readers --src SRC --inputs DIR [--repeat 9]
    python3 tools/reader_bench.py paper-slice --src SRC --inputs DIR [--sequences 20]
    python3 tools/reader_bench.py gt-peak --src SRC --inputs DIR [--runs 5]
    python3 tools/reader_bench.py det-peak --src SRC --inputs DIR
                                           [--sequences 100] [--runs 4]
    python3 tools/reader_bench.py clear --src SRC --inputs DIR [--iou-thr 0.7]
                                        [--repeat 5] [--sequences 4]
    python3 tools/reader_bench.py edges --src SRC --inputs DIR [--iou-thr 0.7]
                                        [--repeat 5] [--sequences 4]
    python3 tools/reader_bench.py pairs --parent DIR --change DIR --workload W
                                        --seed N --seconds S --pairs K

Run from the repository root. Each subcommand prints one JSON object.

`readers` imports the package from SRC and times `read_ground_truth` and
`read_tracks` / `read_detections` over every input file of the three
`bench/` workloads at seed 1: the best of --repeat passes, each file opened
anew. The inputs are generated into DIR/<workload> by `bench/workloads.py`
when that directory is missing, so two checkouts time the same files.

`paper-slice` reads, in this process, the first --sequences sequences of
the paper-scale recipe (`gen_scenario(ScenarioConfig(n_targets=9,
n_frames=1400, drop_rate=0.2, clutter_rate=4.0, jitter_sigma=1.0,
seed=100 + i))`, generated into DIR/paper when missing) and keeps every
sequence's columns, as `eval-system` does: the read time, and the
process's peak RSS (`ru_maxrss`) after reading.

`gt-peak` starts --runs fresh interpreters that each import the package
from SRC and read only the `mot-long` GT file (generated into
DIR/mot-long when missing), and gives each child's peak RSS (`ru_maxrss`)
after the import and after the read, with their medians.

`det-peak` runs `eval-det --subset overall --subset category:car` on the
first --sequences sequences of the paper-scale recipe (generated into
DIR/paper when missing, and linked into DIR/paper-<sequences>), --runs
times, each in a fresh interpreter that imports the package from SRC and
writes to a new directory under DIR. Per run it gives the wall time of
`cli.main`, the child's peak RSS (`ru_maxrss`) and the sha256 of the
report files (each file's name and digest, in name order); then the
medians and the distinct digests.

`clear` times CLEAR in this process, as `eval-system --tracker
builtin:max_gap=2 --thresholds 10` runs it, on each sequence of the
`system-sweep` seed-1 input and on the first --sequences paper-scale
sequences. Per sequence it builds what the sweep builds (the edge table,
the labels, the tracker's tracks at every threshold and their part of the
table and of the ignore mask) and times, best of --repeat, one
`evaluate_clear_runs` call over every threshold's tracks; a package
without that function is timed one `evaluate_clear` call per threshold, as
its sweep calls it. It counts the frames that reach
`matching.clear_correspond` (those still conflicted after persistence),
the conflicted frames and their levels where the package has `_levels`,
and the edges of the largest run and of all runs stacked. Then, with
`tracemalloc`, the peak that CLEAR allocates on the largest sequence, and
the process's peak RSS (`ru_maxrss`) at the end.

`edges` times `geometry.iou_edges` in this process. It runs each `bench/`
workload's command at seed 1 in-process (`--jobs 1 --iou-thr T`, output
to a temporary directory), records every `iou_edges` call that the GT x box
edge tables (`matching.edge_table`) and the link tables
(`trackers.link_table`) make, and times each recorded call again, best of
--repeat. Per call it gives the padded pairs (every pair of the padded
chunks, as `datamodel.frame_chunks` forms them), the same-frame pairs
(without padding), the pairs given to the `iou_broadcast` kernel and the
edges kept. Then the dense case: the first --sequences sequences of the
paper-scale recipe at clutter_rate=40 (about 47 detections a frame,
generated in memory), where it times, best of --repeat, the builtin
tracker's link table (`link_table(dets, 0.5, 2)`, as `eval-system
--tracker builtin:max_gap=2` builds it) and the GT x detection edge table
at IoU T.

`pairs` runs `bench/run.py --workload W --seed N --seconds S --trace 0` K
times in each checkout, alternating which one runs first (odd pairs start
with the parent), and prints every run's metrics with, per metric, each
side's median, the parent's interquartile range and how many pairs the
change won.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _inputs(root: Path, name: str) -> Path:
    """DIR/<name> holding the workload's seed-1 inputs, generated once."""
    path = root / name
    if not path.exists():
        sys.path.insert(0, str(ROOT / "bench"))
        import workloads
        workloads.WORKLOADS[name]().generate(path, 1)
    return path


def _paper_inputs(root: Path, n: int) -> Path:
    path = root / "paper"
    if not path.exists():
        from detraceval.datamodel import write_detections, write_ground_truth
        from detraceval.synth import ScenarioConfig, gen_scenario
        for kind in ("gt", "det"):
            (path / kind).mkdir(parents=True)
        for i in range(n):
            gt, dets = gen_scenario(ScenarioConfig(
                n_targets=9, n_frames=1400, drop_rate=0.2, clutter_rate=4.0,
                jitter_sigma=1.0, seed=100 + i))
            with open(path / "gt" / f"seq{i:03d}.json", "w", encoding="utf-8") as fh:
                write_ground_truth(gt, fh)
            with open(path / "det" / f"seq{i:03d}.csv", "w", encoding="utf-8") as fh:
                write_detections(dets, fh)
    return path


def _read_all(files: list[Path], reader) -> float:
    start = time.perf_counter()
    for path in files:
        with open(path, encoding="utf-8") as fh:
            reader(fh)
    return time.perf_counter() - start


def cmd_readers(args) -> dict:
    from detraceval.datamodel import (read_detections, read_ground_truth,
                                      read_tracks)
    out = {}
    for name in ("mot-long", "system-sweep", "det-subsets"):
        root = _inputs(Path(args.inputs), name)
        boxes = (("read_tracks", read_tracks, "tracks")
                 if (root / "tracks").exists() else
                 ("read_detections", read_detections, "det"))
        out[name] = {
            label: round(min(_read_all(sorted((root / sub).iterdir()), reader)
                             for _ in range(args.repeat)), 6)
            for label, reader, sub in (("read_ground_truth", read_ground_truth,
                                        "gt"), boxes)}
    return {"src": args.src, "repeat": args.repeat, "best_s": out}


def cmd_paper_slice(args) -> dict:
    from detraceval.datamodel import read_detections, read_ground_truth
    root = _paper_inputs(Path(args.inputs), args.sequences)
    gt_files = sorted((root / "gt").glob("*.json"))[:args.sequences]
    kept, start = [], time.perf_counter()
    for gt_path in gt_files:
        with open(gt_path, encoding="utf-8") as fh:
            gt = read_ground_truth(fh)
        with open(root / "det" / (gt_path.stem + ".csv"), encoding="utf-8") as fh:
            kept.append((gt, read_detections(fh)))
    read_s = time.perf_counter() - start
    return {"src": args.src, "sequences": len(kept),
            "gt_boxes": sum(len(gt) for gt, _ in kept),
            "detections": sum(len(d) for _, d in kept),
            "read_s": round(read_s, 4),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _sweep_runs(gt, dets, thresholds, iou_thr):
    """The runs CLEAR scores at every threshold of one sequence of the
    sweep: (tracks, their part of the edge table, their ignore mask)."""
    from detraceval.det_metrics import _label_detections
    from detraceval.matching import edge_table
    from detraceval.trackers import BuiltinGreedyTracker
    edges = edge_table(gt, dets, iou_thr)
    labels = _label_detections(gt, dets, edges, iou_thr)
    at = BuiltinGreedyTracker(max_gap=2).by_threshold(dets, gt.sequence_id)
    return [(tracks, edges.take(rows), labels.inside[rows])
            for tracks, rows in map(at, thresholds)]


def _best(repeat: int, fn, *args) -> float:
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def cmd_clear(args) -> dict:
    import tracemalloc

    import numpy as np
    from detraceval import mot_metrics
    from detraceval.datamodel import read_detections, read_ground_truth
    from detraceval.pr_integration import select_thresholds
    multi = getattr(mot_metrics, "evaluate_clear_runs", None)

    def clear(gt, runs):
        if multi is not None:
            return multi(gt, runs, args.iou_thr)
        return [mot_metrics.evaluate_clear(gt, tracks, args.iou_thr, edges,
                                           inside)[1]
                for tracks, edges, inside in runs]

    # What CLEAR's last call met: frames run through clear_correspond, and
    # the levels `_levels` gave each conflicted frame.
    counts = {"residual": 0, "levels": []}
    residual, levels = (getattr(mot_metrics, name, None)
                        for name in ("clear_correspond", "_levels"))

    def counted(*args):
        counts["residual"] += 1
        return residual(*args)

    def leveled(*args):
        counts["levels"].append(levels(*args))
        return counts["levels"][-1]
    mot_metrics.clear_correspond = counted
    if levels is not None:
        mot_metrics._levels = leveled
    sets = {"system-sweep": (_inputs(Path(args.inputs), "system-sweep"), None),
            "paper": (_paper_inputs(Path(args.inputs), args.sequences),
                      args.sequences)}
    out, largest = [], None
    for name, (root, count) in sets.items():
        pairs = []
        for gt_path in sorted((root / "gt").glob("*.json"))[:count]:
            with open(gt_path, encoding="utf-8") as fh:
                gt = read_ground_truth(fh)
            with open(root / "det" / (gt_path.stem + ".csv"),
                      encoding="utf-8") as fh:
                pairs.append((gt, read_detections(fh)))
        thresholds = select_thresholds(
            np.concatenate([dets.score for _, dets in pairs]), 10)
        for gt, dets in pairs:
            runs = _sweep_runs(gt, dets, thresholds, args.iou_thr)
            counts.update(residual=0, levels=[])
            clear(gt, runs)
            edges = [len(table.iou) for _, table, _ in runs]
            out.append({
                "set": name, "sequence": gt.sequence_id, "runs": len(runs),
                "frames_to_clear_correspond": counts["residual"],
                "conflicted_frames": (sum(map(len, counts["levels"]))
                                      if levels else None),
                "levels": (max((int(lv.max()) + 1 for lv in counts["levels"]
                                if len(lv)), default=0) if levels else None),
                "largest_run_edges": max(edges), "stacked_edges": sum(edges)})
            out[-1]["clear_s"] = round(_best(args.repeat, clear, gt, runs), 6)
            if largest is None or sum(edges) > largest[0]:
                largest = (sum(edges), gt, runs)
    _, gt, runs = largest
    tracemalloc.start()
    clear(gt, runs)
    clear_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"src": args.src, "iou_thr": args.iou_thr, "repeat": args.repeat,
            "passes": "one per sequence" if multi else "one per threshold",
            "sequences": out,
            "clear_s": {name: round(sum(s["clear_s"] for s in out
                                        if s["set"] == name), 6)
                        for name in sets},
            "clear_peak_mb_on_largest": clear_peak / 2**20,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def cmd_edges(args) -> dict:
    import tempfile

    import numpy as np
    from detraceval import cli, datamodel, geometry, matching, trackers
    from detraceval.synth import ScenarioConfig, gen_scenario
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    iou_edges, kernel = geometry.iou_edges, geometry.iou_broadcast
    calls, pairs = [], [0]

    def counted_kernel(*xs):
        out = kernel(*xs)
        pairs[0] += out.size
        return out

    def recorder(caller):
        def recorded(*xs):
            pairs[0] = 0
            out = iou_edges(*xs)
            calls.append((caller, xs, pairs[0], len(out[2])))
            return out
        return recorded
    geometry.iou_broadcast = counted_kernel
    matching.iou_edges = recorder("edge_table")
    trackers.iou_edges = recorder("link_table")
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        root = _inputs(Path(args.inputs), name)
        other = root / ("tracks" if (root / "tracks").exists() else "det")
        inputs = workloads.Inputs(root / "gt", other, 0, 0, 0)
        calls.clear()
        with tempfile.TemporaryDirectory() as tmp:
            argv = workload().argv(inputs, Path(tmp) / "out", jobs=1)
            if cli.main(argv + ["--iou-thr", str(args.iou_thr)]):
                raise SystemExit(f"{name}: the command failed")
        rows = []
        for caller, xs, kernel_pairs, edges in calls:
            a_n, b_n = xs[3], xs[7]
            k = np.flatnonzero((a_n > 0) & (b_n > 0))
            padded = sum(len(c) * int(a_n[k][c].max()) * int(b_n[k][c].max())
                         for c in datamodel.frame_chunks(a_n[k], b_n[k]))
            rows.append({"caller": caller,
                         "iou_edges_s": round(_best(args.repeat, iou_edges,
                                                    *xs), 6),
                         "padded_pairs": padded,
                         "same_frame_pairs": int((a_n * b_n).sum()),
                         "kernel_pairs": kernel_pairs, "edges": edges})
        out[name] = {"calls": rows, **{
            f"total_{key}": (round(sum(r[key] for r in rows), 6)
                             if key.endswith("_s") else
                             sum(r[key] for r in rows))
            for key in ("iou_edges_s", "padded_pairs", "same_frame_pairs",
                        "kernel_pairs", "edges")}}
    geometry.iou_broadcast = kernel
    matching.iou_edges = trackers.iou_edges = iou_edges
    dense = []
    for i in range(args.sequences):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=9, n_frames=1400, drop_rate=0.2, clutter_rate=40.0,
            jitter_sigma=1.0, seed=100 + i))
        gt = gt.columns
        dense.append({
            "sequence": gt.sequence_id, "gt_boxes": len(gt),
            "detections": len(dets),
            "link_table_s": round(_best(args.repeat, trackers.link_table,
                                        dets, 0.5, 2), 6),
            "edge_table_s": round(_best(args.repeat, matching.edge_table,
                                        gt, dets, args.iou_thr), 6)})
    return {"src": args.src, "iou_thr": args.iou_thr, "repeat": args.repeat,
            "workloads": out,
            "dense": {"sequences": dense, **{
                f"total_{key}": round(sum(s[key] for s in dense), 6)
                for key in ("link_table_s", "edge_table_s")}}}


# One GT read in a fresh interpreter: argv is SRC and the GT file; prints
# the peak RSS in KiB after the import and after the read.
_GT_PEAK_CHILD = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from detraceval.datamodel import read_ground_truth
imported = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with open(sys.argv[2], encoding="utf-8") as fh:
    read_ground_truth(fh)
print(imported, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def cmd_gt_peak(args) -> dict:
    gt_path, = (_inputs(Path(args.inputs), "mot-long") / "gt").iterdir()
    runs = []
    for _ in range(args.runs):
        proc = subprocess.run(
            [sys.executable, "-c", _GT_PEAK_CHILD, str(Path(args.src).resolve()),
             str(gt_path)], capture_output=True, text=True, check=True)
        runs.append([int(kib) / 1024 for kib in proc.stdout.split()])
    imported, read = zip(*runs)
    return {"src": args.src, "gt": gt_path.name, "runs": args.runs,
            "imported_mb": imported, "read_peak_mb": read,
            "imported_median_mb": statistics.median(imported),
            "read_peak_median_mb": statistics.median(read)}


# One eval-det run in a fresh interpreter: argv is SRC, the GT and
# detection directories and --out; prints the exit status, the wall time
# of `cli.main` and the peak RSS in KiB.
_DET_PEAK_CHILD = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
from detraceval.cli import main
start = time.perf_counter()
code = main(["eval-det", "--gt", sys.argv[2], "--det", sys.argv[3],
             "--subset", "overall", "--subset", "category:car",
             "--out", sys.argv[4]])
print(code, time.perf_counter() - start,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _report_digest(out: Path) -> str:
    lines = []
    for path in sorted(out.iterdir()):
        with open(path, "rb") as fh:
            lines.append(f"{path.name} {hashlib.file_digest(fh, 'sha256').hexdigest()}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def cmd_det_peak(args) -> dict:
    import tempfile
    inputs = Path(args.inputs)
    root = _paper_inputs(inputs, args.sequences)
    gt_files = sorted((root / "gt").glob("*.json"))[:args.sequences]
    if len(gt_files) < args.sequences:
        raise SystemExit(f"{root} holds {len(gt_files)} sequences, "
                         f"fewer than {args.sequences}")
    view = inputs / f"paper-{args.sequences}"
    if not view.exists():
        for kind, suffix in (("gt", ".json"), ("det", ".csv")):
            (view / kind).mkdir(parents=True)
            for gt_path in gt_files:
                name = gt_path.stem + suffix
                (view / kind / name).symlink_to((root / kind / name).resolve())
    runs = []
    for _ in range(args.runs):
        with tempfile.TemporaryDirectory(dir=inputs) as tmp:
            out = Path(tmp) / "out"
            proc = subprocess.run(
                [sys.executable, "-c", _DET_PEAK_CHILD,
                 str(Path(args.src).resolve()), str(view / "gt"),
                 str(view / "det"), str(out)],
                capture_output=True, text=True, check=True)
            code, wall, kib = proc.stdout.split()
            if code != "0":
                raise SystemExit(f"eval-det failed: {proc.stderr}")
            runs.append({"wall_s": float(wall), "peak_rss_mb": int(kib) / 1024,
                         "report_sha256": _report_digest(out)})
    return {"src": args.src, "sequences": args.sequences, "runs": runs,
            "wall_median_s": statistics.median(r["wall_s"] for r in runs),
            "peak_rss_median_mb": statistics.median(r["peak_rss_mb"]
                                                    for r in runs),
            "report_sha256": sorted({r["report_sha256"] for r in runs})}


def _run(checkout: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_pairs(args) -> dict:
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            runs[side].append(_run(sides[side], args))
    summary = {}
    for metric in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][metric]["value"] for r in runs[side]]
                  for side in runs}
        q1, _, q3 = statistics.quantiles(values["parent"], n=4)
        lower = metric != "boxes_per_s"
        summary[metric] = {
            "parent_median": statistics.median(values["parent"]),
            "change_median": statistics.median(values["change"]),
            "parent_iqr": q3 - q1,
            "change_wins": sum((c < p) if lower else (c > p)
                               for p, c in zip(values["parent"], values["change"])),
            **values}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "summary": summary,
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flag, default in (("readers", "--repeat", 9),
                                ("paper-slice", "--sequences", 20),
                                ("gt-peak", "--runs", 5)):
        p = sub.add_parser(name)
        p.add_argument("--src", required=True)
        p.add_argument("--inputs", required=True)
        p.add_argument(flag, type=int, default=default)
    p = sub.add_parser("det-peak")
    p.add_argument("--src", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--sequences", type=int, default=100)
    p.add_argument("--runs", type=int, default=4)
    p = sub.add_parser("clear")
    p.add_argument("--src", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--iou-thr", type=float, default=0.7)
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--sequences", type=int, default=4)
    p = sub.add_parser("edges")
    p.add_argument("--src", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--iou-thr", type=float, default=0.7)
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--sequences", type=int, default=4)
    p = sub.add_parser("pairs")
    for flag in ("--parent", "--change", "--workload"):
        p.add_argument(flag, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.command not in ("pairs", "gt-peak"):
        sys.path.insert(0, str(Path(args.src).resolve()))
    command = {"readers": cmd_readers, "paper-slice": cmd_paper_slice,
               "gt-peak": cmd_gt_peak, "det-peak": cmd_det_peak,
               "clear": cmd_clear, "edges": cmd_edges,
               "pairs": cmd_pairs}[args.command]
    print(json.dumps(command(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
