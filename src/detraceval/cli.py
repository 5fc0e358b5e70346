"""Command-line frontend: evaluate detections, tracks, or full systems, and
generate synthetic scenarios.

All reports are files (JSON with stable key order and floats at 6
significant digits, plus plot-ready CSVs); identical inputs and flags yield
byte-identical outputs regardless of --jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import det_metrics, mot_metrics, pr_integration
from .datamodel import (DetectionSet, ValidationError, parse_detections,
                        parse_ground_truth, read_ground_truth, read_tracks,
                        write_detections, write_ground_truth)
from .fixtures import FIXTURE_NAMES, load_fixture
from .synth import ScenarioConfig, gen_scenario
from .trackers import TrackerError, make_tracker


def _round6(obj):
    """Clamp floats to 6 significant digits for stable report output."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_round6(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_pairs(gt_dir: str, other_dir: str, suffix: str
                ) -> list[tuple[str, Path, Path]]:
    gt_files = sorted(Path(gt_dir).glob("*.json"))
    if not gt_files:
        raise ValidationError(f"no ground truth files (*.json) in {gt_dir}")
    pairs = []
    for gt_path in gt_files:
        other = Path(other_dir) / (gt_path.stem + suffix)
        if not other.exists():
            raise ValidationError(
                f"sequence {gt_path.stem!r}: missing file {other}")
        pairs.append((gt_path.stem, gt_path, other))
    return pairs


def _read_gt(path: Path, reader=parse_ground_truth):
    with open(path) as fh:
        try:
            return reader(fh)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def _read_dets(path: Path) -> DetectionSet:
    with open(path) as fh:
        return parse_detections(fh)


def cmd_eval_det(args) -> int:
    pairs = []
    for _, gt_path, det_path in _load_pairs(args.gt, args.det, ".csv"):
        pairs.append((_read_dets(det_path), _read_gt(gt_path)))
    subsets = args.subset or ["overall"]
    report = det_metrics.detection_report(pairs, subsets, args.iou_thr)
    out = Path(args.out)
    _write_json(out / "detection_report.json", report)
    for name, body in report.items():
        safe = name.replace(":", "_")
        with open(out / f"pr_curve_{safe}.csv", "w") as fh:
            fh.write("threshold,precision,recall,tp,fp,fn\n")
            for p in body["points"]:
                thr = p["threshold"]
                thr_s = "" if not math.isfinite(thr) else f"{thr:.6g}"
                fh.write(f"{thr_s},{p['precision']:.6g},{p['recall']:.6g},"
                         f"{p['tp']},{p['fp']},{p['fn']}\n")
    return 0


def cmd_eval_mot(args) -> int:
    triples = _load_pairs(args.gt, args.tracks, ".csv")

    def evaluate(triple):
        # Columns straight from the files: no per-box object is built.
        seq, gt_path, track_path = triple
        gt = _read_gt(gt_path, read_ground_truth)
        with open(track_path) as fh:
            tracks = read_tracks(fh)
        return mot_metrics.evaluate_clear(gt, tracks, args.iou_thr)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(evaluate, triples))
    else:
        results = [evaluate(t) for t in triples]

    out = Path(args.out)
    all_stats = []
    for (seq, _, _), (bundle, stats) in zip(triples, results):
        all_stats.append(stats)
        _write_json(out / f"mot_{seq}.json", {
            "sequence_id": seq,
            "bundle": bundle.as_dict(),
            "per_frame_counts": [vars(c) for c in stats.frame_counts],
        })
    _write_json(out / "mot_aggregate.json",
                {"bundle": mot_metrics.aggregate(all_stats).as_dict(),
                 "sequences": [s.sequence_id for s in all_stats]})
    return 0


def cmd_eval_system(args) -> int:
    tracker = make_tracker(args.tracker)
    pairs = []
    all_dets = []
    for _, gt_path, det_path in _load_pairs(args.gt, args.det, ".csv"):
        gt = _read_gt(gt_path)
        dets = _read_dets(det_path)
        pairs.append((gt, dets))
        all_dets.extend(dets)
    pooled = DetectionSet(tuple(all_dets))
    if args.quantile_thresholds:
        thresholds = pr_integration.select_thresholds_quantile(
            pooled, args.thresholds)
    else:
        thresholds = pr_integration.select_thresholds(pooled, args.thresholds)
    points = pr_integration.sweep(pairs, tracker, thresholds,
                                  iou_thr=args.iou_thr,
                                  keep_going=args.keep_going, jobs=args.jobs)
    report = pr_integration.pr_report(points)
    out = Path(args.out)
    _write_json(out / "system_report.json", {
        "detector": args.detector_name,
        "tracker": args.tracker_name or args.tracker,
        "iou_thr": args.iou_thr,
        "arc_length": report.arc_length,
        "scores": report.scores(),
        "points": [
            {"threshold": p.threshold, "precision": p.precision,
             "recall": p.recall, "bundle": p.metrics.as_dict()}
            for p in report.curve
        ],
    })
    with open(out / "pr_curve.csv", "w") as fh:
        fh.write("threshold,precision,recall,mota,motp,mt_pct,ml_pct,"
                 "ids,fm,fp,fn\n")
        for p in report.curve:
            m = p.metrics
            fh.write(f"{p.threshold:.6g},{p.precision:.6g},{p.recall:.6g},"
                     f"{m.mota:.6g},{m.motp:.6g},{m.mt_pct:.6g},"
                     f"{m.ml_pct:.6g},{m.ids},{m.fm},{m.fp},{m.fn}\n")
    return 0


def cmd_report(args) -> int:
    systems = []
    for path in sorted(Path(args.results).rglob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"{path}: unreadable JSON: {exc}") from None
        if isinstance(doc, dict) and "scores" in doc and "detector" in doc:
            systems.append(doc)
    if not systems:
        raise ValidationError(f"no system reports found under {args.results}")
    systems.sort(key=lambda s: (-s["scores"]["pr_mota"],
                                s["detector"], s["tracker"]))
    leaderboard = [
        {"detector": s["detector"], "tracker": s["tracker"], **s["scores"]}
        for s in systems
    ]
    by_tracker: dict[str, list[dict]] = {}
    for s in systems:
        by_tracker.setdefault(s["tracker"], []).append(s["scores"])
    tracker_table = []
    for tracker_name in sorted(by_tracker):
        rows = by_tracker[tracker_name]
        tracker_table.append({"tracker": tracker_name,
                              "n_detectors": len(rows),
                              **pr_integration.mean_scores(rows)})
    tracker_table.sort(key=lambda r: -r["pr_mota"])
    out = Path(args.out)
    _write_json(out / "leaderboard.json",
                {"systems": leaderboard, "trackers": tracker_table})
    with open(out / "leaderboard.csv", "w") as fh:
        keys = ["detector", "tracker", "pr_mota", "pr_motp", "pr_mt",
                "pr_ml", "pr_ids", "pr_fm", "pr_fp", "pr_fn"]
        fh.write(",".join(keys) + "\n")
        for row in leaderboard:
            fh.write(",".join(
                f"{row[k]:.6g}" if isinstance(row[k], float) else str(row[k])
                for k in keys) + "\n")
    return 0


def cmd_gen_synthetic(args) -> int:
    out = Path(args.out)
    if args.fixture:
        fixture = load_fixture(args.fixture)
        gt, dets = fixture.gt, fixture.dets
        seq = fixture.name
        config_echo = {"fixture": fixture.name,
                       "trackers": {name: vars(t)
                                    for name, t in fixture.trackers.items()}}
    else:
        config = ScenarioConfig(
            n_targets=args.targets, n_frames=args.frames,
            drop_rate=args.drop_rate, clutter_rate=args.clutter_rate,
            jitter_sigma=args.jitter_sigma, seed=args.seed)
        gt, dets = gen_scenario(config)
        seq = gt.sequence_id
        config_echo = {k: list(v) if isinstance(v, tuple) else v
                       for k, v in vars(config).items()}
    (out / "gt").mkdir(parents=True, exist_ok=True)
    (out / "det").mkdir(parents=True, exist_ok=True)
    with open(out / "gt" / f"{seq}.json", "w") as fh:
        write_ground_truth(gt, fh)
    with open(out / "det" / f"{seq}.csv", "w") as fh:
        write_detections(dets, fh)
    _write_json(out / "config.json", config_echo)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detraceval",
        description="Joint detection-and-tracking evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--iou-thr", type=float,
                       default=det_metrics.DEFAULT_IOU_THR,
                       help=f"overlap hit/miss threshold "
                            f"(default {det_metrics.DEFAULT_IOU_THR})")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval-det", help="detection PR/AP evaluation")
    p.add_argument("--gt", required=True, help="ground truth directory (*.json)")
    p.add_argument("--det", required=True, help="detection directory (*.csv)")
    p.add_argument("--subset", action="append",
                   help="subset name, repeatable (default: overall)")
    common(p)
    p.set_defaults(func=cmd_eval_det)

    p = sub.add_parser("eval-mot", help="CLEAR MOT evaluation")
    p.add_argument("--gt", required=True)
    p.add_argument("--tracks", required=True, help="track directory (*.csv)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    common(p)
    p.set_defaults(func=cmd_eval_mot)

    p = sub.add_parser("eval-system",
                       help="threshold sweep + PR-integrated scores")
    p.add_argument("--gt", required=True)
    p.add_argument("--det", required=True)
    p.add_argument("--tracker", required=True,
                   help="builtin | builtin:<opts> | cmd:<template>")
    p.add_argument("--thresholds", type=int, default=10)
    p.add_argument("--quantile-thresholds", action="store_true",
                   help="space thresholds by score quantiles instead of "
                        "uniform values")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--keep-going", action="store_true",
                   help="record a gap instead of aborting on tracker failure")
    p.add_argument("--detector-name", default="detector")
    p.add_argument("--tracker-name", default=None)
    common(p)
    p.set_defaults(func=cmd_eval_system)

    p = sub.add_parser("report", help="combine system reports into tables")
    p.add_argument("--results", required=True,
                   help="directory scanned recursively for system reports")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gen-synthetic", help="emit a synthetic scenario")
    p.add_argument("--fixture", choices=FIXTURE_NAMES,
                   help="named fixture instead of a random scenario")
    p.add_argument("--targets", type=int, default=4)
    p.add_argument("--frames", type=int, default=30)
    p.add_argument("--drop-rate", type=float, default=0.1)
    p.add_argument("--clutter-rate", type=float, default=1.0)
    p.add_argument("--jitter-sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, TrackerError,
            pr_integration.SweepError) as exc:
        print(f"detraceval: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
