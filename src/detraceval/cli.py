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
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import det_metrics, mot_metrics, pr_integration
from .datamodel import (DetectionSet, ValidationError, parse_detections,
                        parse_ground_truth, read_detections,
                        read_ground_truth, read_tracks, write_detections,
                        write_ground_truth)
from .fixtures import FIXTURE_NAMES, load_fixture
from .synth import ScenarioConfig, gen_scenario
from .trackers import TrackerError, make_tracker


# Parts gathered before each write: bounds the text held in memory.
_CHUNK_PARTS = 8192


def _write_json(path: Path, obj) -> None:
    """Write `obj` as JSON with sorted keys and a 2-space indent, floats at
    6 significant digits and non-finite floats as null, then a newline.

    The bytes are those of ``json.dump(obj, fh, sort_keys=True, indent=2)``
    after that rounding; the text is written in bounded chunks rather than
    built whole. A list of flat dicts with the same keys (a report's points
    or per-frame counts) is formatted row by row from one template per key
    set.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        parts: list[str] = []
        _emit(obj, "\n", parts, fh)
        parts.append("\n")
        fh.write("".join(parts))


def _float_text(value: float) -> str:
    """JSON text of `value` rounded to 6 significant digits: the float's
    repr, or null if it is not finite."""
    text = f"{value:.6g}"
    # A fixed-point text is already the repr of its float: a decimal of at
    # most 15 significant digits is the shortest that maps to that double.
    # Integral and exponent forms differ from repr ("1" and "1.0",
    # "1.5e+06" and "1500000.0"), so they take the round trip.
    if "." in text and "e" not in text:
        return text
    if not math.isfinite(value):
        return "null"
    return repr(float(text))


# Exact type -> JSON text, as `json.dump` writes it after rounding.
_TEXT = {float: _float_text, int: int.__repr__, str: encode_basestring_ascii,
         bool: lambda value: "true" if value else "false",
         type(None): lambda value: "null"}


def _scalar(value) -> str | None:
    """JSON text of a scalar, or None for a dict, list or tuple."""
    text = _TEXT.get(type(value))
    if text is not None:
        return text(value)
    for base in (float, str, int):  # subclasses, such as numpy.float64
        if isinstance(value, base):
            return _TEXT[base](value)
    if isinstance(value, (dict, list, tuple)):
        return None
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(value, newline: str, parts: list[str], fh) -> None:
    """Append the JSON text of `value`, nested at the indent `newline`
    ends with, to `parts`; write `parts` out when it grows past
    _CHUNK_PARTS."""
    text = _scalar(value)
    if text is not None:
        parts.append(text)
        return
    if not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = newline + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for key in sorted(value):
            parts.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _emit(value[key], inner, parts, fh)
            sep = "," + inner
        parts.append(newline + "}")
        return
    shape = keys = template = None
    sep = "[" + inner
    for item in value:
        if len(parts) > _CHUNK_PARTS:
            fh.write("".join(parts))
            parts.clear()
        parts.append(sep)
        sep = "," + inner
        if type(item) is dict and item:
            if item.keys() != shape:
                shape = item.keys()
                keys, template = _row_template(item, inner)
            fields = [_TEXT.get(type(v), _scalar)(v)
                      for v in map(item.__getitem__, keys)]
            if None not in fields:
                parts.append(template % tuple(fields))
                continue
        _emit(item, inner, parts, fh)
    parts.append(newline + "]")


def _row_template(row: dict, newline: str) -> tuple[list, str]:
    """Sorted keys of a flat dict and the %-template of its JSON text at
    the indent `newline` ends with, one %s per value."""
    keys = sorted(row)
    inner = newline + "  "
    fields = (encode_basestring_ascii(k).replace("%", "%%") + ": %s"
              for k in keys)
    return keys, "{" + inner + ("," + inner).join(fields) + newline + "}"


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


def _read(path: Path, reader):
    """reader(file) of the file at `path`; its errors name the file."""
    with open(path) as fh:
        try:
            return reader(fh)
        except (ValidationError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: {exc}") from None


def cmd_eval_det(args) -> int:
    # Columns straight from the files: no per-box object is built.
    pairs = [(_read(det_path, read_detections), _read(gt_path, read_ground_truth))
             for _, gt_path, det_path in _load_pairs(args.gt, args.det, ".csv")]
    subsets = args.subset or ["overall"]
    report = det_metrics.detection_report(pairs, subsets, args.iou_thr)
    out = Path(args.out)
    _write_json(out / "detection_report.json", report)
    for name, body in report.items():
        safe = name.replace(":", "_")
        with open(out / f"pr_curve_{safe}.csv", "w") as fh:
            fh.write("threshold,precision,recall,tp,fp,fn\n")
            fh.writelines(
                f"{_csv_float(p['threshold'])},{p['precision']:.6g},"
                f"{p['recall']:.6g},{p['tp']},{p['fp']},{p['fn']}\n"
                for p in body["points"])
    return 0


def _csv_float(value: float) -> str:
    return f"{value:.6g}" if math.isfinite(value) else ""


def cmd_eval_mot(args) -> int:
    triples = _load_pairs(args.gt, args.tracks, ".csv")

    def evaluate(triple):
        # Columns straight from the files: no per-box object is built.
        seq, gt_path, track_path = triple
        gt = _read(gt_path, read_ground_truth)
        tracks = _read(track_path, read_tracks)
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
        gt = _read(gt_path, parse_ground_truth)
        dets = _read(det_path, parse_detections)
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


def _system_report(path: Path) -> dict | None:
    """The system report in the file at `path`, checked; None for a JSON
    document that is not one (no `scores` or no `detector`)."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: unreadable JSON: {exc}") from None
    if not (isinstance(doc, dict) and "scores" in doc and "detector" in doc):
        return None
    scores = doc["scores"]
    if not (isinstance(scores, dict)
            and sorted(scores) == sorted(pr_integration.SCORE_NAMES)):
        raise ValidationError(
            f"{path}: scores must be an object with the keys "
            f"{', '.join(pr_integration.SCORE_NAMES)}")
    for name in pr_integration.SCORE_NAMES:
        if not _finite_number(scores[name]):
            raise ValidationError(f"{path}: scores.{name} must be a finite "
                                  f"number, got {repr(scores[name]):.60}")
    for key in ("detector", "tracker"):
        value = doc.get(key)
        if not isinstance(value, str):
            raise ValidationError(f"{path}: {key} must be a string, got "
                                  f"{repr(value):.60}")
        try:
            value.encode()
        except UnicodeEncodeError:
            raise ValidationError(
                f"{path}: {key} is not valid Unicode text") from None
    return doc


def _finite_number(value) -> bool:
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def cmd_report(args) -> int:
    systems = [doc for doc in map(_system_report,
                                  sorted(Path(args.results).rglob("*.json")))
               if doc is not None]
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
        keys = ["detector", "tracker", *pr_integration.SCORE_NAMES]
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
