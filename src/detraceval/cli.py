"""Command-line frontend: evaluate detections, tracks, or full systems, and
generate synthetic scenarios.

All reports are files (JSON with stable key order and floats at 6
significant digits, plus plot-ready CSVs); identical inputs and flags yield
byte-identical outputs regardless of --jobs.

Each subcommand checks its arguments, then creates its --out directory
before it reads or computes anything. An --out that cannot be created, or a
report that cannot be written, is one line ``detraceval: error: <path>:
<reason>`` and exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np

from . import det_metrics, mot_metrics, pr_integration
from .datamodel import (Rows, ValidationError, check_frame_count,
                        read_detections, read_ground_truth, read_tracks,
                        write_detections, write_ground_truth)
from .fixtures import FIXTURE_NAMES, load_fixture
from .synth import ScenarioConfig, gen_scenario
from .trackers import TrackerError, make_tracker


# Rows formatted and written at a time: bounds the text held in memory.
# `Rows` are the only report parts whose size grows with the input.
_CHUNK_ROWS = 8192


def _write_json(path: Path, obj) -> None:
    """Write `obj` as JSON with sorted keys and a 2-space indent, floats at
    6 significant digits and non-finite floats as null, then a newline.

    The bytes are those of ``json.dump(obj, fh, sort_keys=True, indent=2)``
    after that rounding, with `Rows` written as the list of their row
    objects, _CHUNK_ROWS rows at a time.
    """
    with open(path, "w", encoding="utf-8") as fh:
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


def _g_is_json(part: np.ndarray) -> np.ndarray:
    """Mask of the values of the float64 array `part` whose "%.6g" text is
    their JSON text, `_float_text`: those with 1e-300 < |v| < 0.99999.

    "%.6g" % v runs the formatter of f"{v:.6g}". In that range |v| rounds
    to a value below 1, so the text is neither integral nor
    exponent-positive nor null: it is fixed-point with a ".", which
    `_float_text` keeps, or exponent-negative ("1.5e-05"), which its round
    trip gives back. A normal double (the margin keeps subnormals, whose 6
    digits may not survive, out) printed with at most 15 significant
    digits is the repr of the float it reads as, and repr writes an
    exponent below -4 as %g does.
    """
    size = np.abs(part)
    return (size > 1e-300) & (size < 0.99999)


# Exact type -> JSON text, as `json.dump` writes it after rounding.
_TEXT = {float: _float_text, int: int.__repr__, str: encode_basestring_ascii,
         bool: lambda value: "true" if value else "false",
         type(None): lambda value: "null"}


def _scalar(value) -> str:
    """JSON text of a scalar; a TypeError for anything else."""
    text = _TEXT.get(type(value))
    if text is not None:
        return text(value)
    for base in (float, str, int):  # subclasses, such as numpy.float64
        if isinstance(value, base):
            return _TEXT[base](value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _chunk(column, lo: int, text, g_is_text) -> tuple[str, list]:
    """The %-spec and the values that fill it for the rows lo ..
    lo + _CHUNK_ROWS - 1 of a `Rows` column, as its writer (JSON or CSV)
    writes them: `text` gives the text of one value, and `g_is_text`
    masks the values of a float64 array whose "%.6g" text is their text.

    An int64 array gives "%d" and its Python ints: "%d" % v is str(v),
    which is `int.__repr__`. A float64 array gives "%.6g" and its Python
    floats when the mask holds for the whole chunk, or else "%s" and
    their "%.6g" texts, with `text` of each value outside it. A list gives
    "%s" and the text of each value.
    """
    part = column[lo:lo + _CHUNK_ROWS]
    if not isinstance(part, np.ndarray):
        return "%s", list(map(text, part))
    values = part.tolist()
    if part.dtype == np.int64:
        return "%d", values
    odd = np.flatnonzero(~g_is_text(part)).tolist()
    if not odd:
        return "%.6g", values
    texts = list(map("%.6g".__mod__, values))
    for i in odd:
        texts[i] = text(values[i])
    return "%s", texts


def _emit(value, newline: str, parts: list[str], fh) -> None:
    """Append the JSON text of `value`, nested at the indent `newline`
    ends with, to `parts`. `Rows` are written out with `parts` every
    _CHUNK_ROWS rows: each column's chunk becomes a %-spec and its values
    (`_chunk`), and each row fills one %-template."""
    if not isinstance(value, (dict, list, tuple, Rows)):
        parts.append(_scalar(value))
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
    sep = "[" + inner
    if isinstance(value, Rows):
        keys, field = sorted(value.columns), inner + "  "
        names = [encode_basestring_ascii(k).replace("%", "%%") + ": "
                 for k in keys]
        for lo in range(0, len(value), _CHUNK_ROWS):
            specs, values = zip(*(_chunk(value[k], lo, _scalar, _g_is_json)
                                  for k in keys))
            template = "{" + field + ("," + field).join(
                map(str.__add__, names, specs)) + inner + "}"
            parts.append(sep + ("," + inner).join(
                map(template.__mod__, zip(*values))))
            sep = "," + inner
            fh.write("".join(parts))
            parts.clear()
    else:
        for item in value:
            parts.append(sep)
            sep = "," + inner
            _emit(item, inner, parts, fh)
    parts.append(newline + "]")


def _csv_text(value) -> str:
    """CSV field of one value: a float at 6 significant digits, or empty if
    it is not finite; any other value as its text. A field holding a
    comma, a quote, "\\r" or "\\n" is quoted, its quotes doubled (the
    QUOTE_MINIMAL rule of `csv`)."""
    text = (str(value) if not isinstance(value, float) else
            f"{value:.6g}" if math.isfinite(value) else "")
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, header: Sequence[str], rows: Rows) -> None:
    """Write the columns of `rows` that `header` names, in its order, as
    CSV fields (`_csv_text`), each line ending in "\\n"; the bytes are
    those of a QUOTE_MINIMAL `csv.writer`. Like `_write_json`, it writes
    _CHUNK_ROWS rows at a time, each column's chunk a %-spec and its
    values (`_chunk`) and each row one %-template. The "%.6g" text of a
    finite float is its field: it holds only digits, "-", "+", "." and
    "e", so it needs no quoting, and it is not empty. A row of one empty
    field is written '""', as `csv` writes it, so that it reads back as a
    field."""
    text = _csv_text if len(header) != 1 else lambda v: _csv_text(v) or '""'
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(text, header)) + "\n")
        for lo in range(0, len(rows) if header else 0, _CHUNK_ROWS):
            specs, values = zip(*(_chunk(rows[k], lo, text, np.isfinite)
                                  for k in header))
            fh.write("".join(map((",".join(specs) + "\n").__mod__,
                                 zip(*values))))


def _out_dir(args) -> Path:
    """The --out directory, created with its parents if missing."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    """reader(file) of the file at `path`; its errors, and a file that
    cannot be opened or read, name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return reader(fh)
    except (ValidationError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from None


def _read_pair(gt_path: Path, path: Path, reader):
    """One sequence's GT columns, and the columns `reader`
    (`read_detections` or `read_tracks`) reads from the file at `path`; no
    per-box object is built. A file that cannot be read, a malformed one
    and a row beyond the GT's frame_count are each a ValidationError that
    names the file."""
    gt = _read(gt_path, read_ground_truth)
    boxes = _read(path, reader)
    check_frame_count(gt, boxes, str(path))
    return gt, boxes


def cmd_eval_det(args) -> int:
    out = _out_dir(args)
    pairs = (_read_pair(gt_path, det_path, read_detections)
             for _, gt_path, det_path in _load_pairs(args.gt, args.det, ".csv"))
    report = det_metrics.detection_report(pairs, args.subset or ["overall"],
                                          args.iou_thr)
    _write_json(out / "detection_report.json", report)
    header = ("threshold", "precision", "recall", "tp", "fp", "fn")
    for name, body in report.items():
        _write_csv(out / f"pr_curve_{name.replace(':', '_')}.csv", header,
                   body["points"])
    return 0


def cmd_eval_mot(args) -> int:
    triples = _load_pairs(args.gt, args.tracks, ".csv")
    if any(seq == "aggregate" for seq, _, _ in triples):
        raise ValidationError(
            "sequence 'aggregate': the name is reserved for "
            "mot_aggregate.json; rename its ground truth file")
    out = _out_dir(args)
    # In order, on this thread, whatever --jobs says: each sequence's
    # columns die before the next is read.
    results = [mot_metrics.evaluate_clear(
        *_read_pair(gt_path, track_path, read_tracks), args.iou_thr)
        for _, gt_path, track_path in triples]
    all_stats = []
    for (seq, _, _), (bundle, stats) in zip(triples, results):
        all_stats.append(stats)
        _write_json(out / f"mot_{seq}.json", {
            "sequence_id": seq,
            "bundle": bundle.as_dict(),
            "per_frame_counts": stats.frame_counts,
        })
    _write_json(out / "mot_aggregate.json",
                {"bundle": mot_metrics.aggregate(all_stats).as_dict(),
                 "sequences": [s.sequence_id for s in all_stats]})
    return 0


def _argv_text(value: str, option: str) -> str:
    """A command-line value as the text its bytes spell in UTF-8. Under a
    locale that is not UTF-8, Python hands the non-ASCII bytes of argv on
    as surrogate escapes, which no report may hold; bytes that are not
    UTF-8 are an error."""
    try:
        return value.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError:
        raise ValidationError(f"{option} is not valid UTF-8 text: "
                              f"{value!r}") from None


def cmd_eval_system(args) -> int:
    detector = _argv_text(args.detector_name, "--detector-name")
    tracker_name = (_argv_text(args.tracker_name, "--tracker-name")
                    if args.tracker_name else _argv_text(args.tracker, "--tracker"))
    tracker = make_tracker(args.tracker)
    out = _out_dir(args)
    pairs = [_read_pair(gt_path, det_path, read_detections)
             for _, gt_path, det_path in _load_pairs(args.gt, args.det, ".csv")]
    select = (pr_integration.select_thresholds_quantile
              if args.quantile_thresholds else pr_integration.select_thresholds)
    thresholds = select(np.concatenate([dets.score for _, dets in pairs]),
                        args.thresholds)
    points = pr_integration.sweep(pairs, tracker, thresholds,
                                  iou_thr=args.iou_thr,
                                  keep_going=args.keep_going, jobs=args.jobs)
    report = pr_integration.pr_report(points)
    rows = [{"threshold": p.threshold, "precision": p.precision,
             "recall": p.recall, "bundle": p.metrics.as_dict()}
            for p in report.curve]
    _write_json(out / "system_report.json", {
        "detector": detector,
        "tracker": tracker_name,
        "iou_thr": args.iou_thr,
        "arc_length": report.arc_length,
        "scores": report.scores(),
        "points": rows,
    })
    header = ("threshold", "precision", "recall", "mota", "motp", "mt_pct",
              "ml_pct", "ids", "fm", "fp", "fn")
    flat = [{**r, **r["bundle"]} for r in rows]
    _write_csv(out / "pr_curve.csv", header,
               Rows({k: [f[k] for f in flat] for k in header}))
    return 0


def _system_report(path: Path) -> dict | None:
    """The system report in the file at `path`, checked; None for a JSON
    document that is not one (no `scores` or no `detector`)."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
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
    out = _out_dir(args)
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
    _write_json(out / "leaderboard.json",
                {"systems": leaderboard, "trackers": tracker_table})
    keys = ("detector", "tracker", *pr_integration.SCORE_NAMES)
    _write_csv(out / "leaderboard.csv", keys,
               Rows({k: [row[k] for row in leaderboard] for k in keys}))
    return 0


def cmd_gen_synthetic(args) -> int:
    config = None if args.fixture else ScenarioConfig(
        n_targets=args.targets, n_frames=args.frames,
        drop_rate=args.drop_rate, clutter_rate=args.clutter_rate,
        jitter_sigma=args.jitter_sigma, seed=args.seed)
    if config is None:
        fixture = load_fixture(args.fixture)
        gt, dets = fixture.gt, fixture.dets
        seq = fixture.name
        config_echo = {"fixture": fixture.name,
                       "trackers": {name: vars(t)
                                    for name, t in fixture.trackers.items()}}
    else:
        gt, dets = gen_scenario(config)
        seq = gt.sequence_id
        config_echo = {k: list(v) if isinstance(v, tuple) else v
                       for k, v in vars(config).items()}
    # Made only once the scenario exists, so a failed run leaves no --out.
    out = _out_dir(args)
    (out / "gt").mkdir(exist_ok=True)
    (out / "det").mkdir(exist_ok=True)
    with open(out / "gt" / f"{seq}.json", "w", encoding="utf-8") as fh:
        write_ground_truth(gt, fh)
    with open(out / "det" / f"{seq}.csv", "w", encoding="utf-8") as fh:
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
                       help=f"overlap hit/miss threshold in [0, 1] "
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
    p.add_argument("--jobs", type=int, default=1,
                   help="no effect; kept so that existing command lines work")
    common(p)
    p.set_defaults(func=cmd_eval_mot)

    p = sub.add_parser("eval-system",
                       help="threshold sweep + PR-integrated scores")
    p.add_argument("--gt", required=True)
    p.add_argument("--det", required=True)
    p.add_argument("--tracker", required=True,
                   help="builtin | builtin:<opts> | cmd:<template>")
    p.add_argument("--thresholds", type=int,
                   default=pr_integration.DEFAULT_N_THRESHOLDS,
                   help="number of score thresholds (default %(default)s)")
    p.add_argument("--quantile-thresholds", action="store_true",
                   help="space thresholds by score quantiles instead of "
                        "uniform values")
    p.add_argument("--jobs", type=int, default=1,
                   help="threads (default 1) over one sequence's tracker "
                        "runs; only cmd: runs overlap; reports do not depend on it")
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


def _warning_line(message, *_) -> str:
    return f"detraceval: warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
        if not 0.0 <= getattr(args, "iou_thr", 0.0) <= 1.0:
            raise ValidationError(
                f"--iou-thr must be a number in [0, 1], got {args.iou_thr}")
        for name in getattr(args, "subset", None) or ():
            det_metrics._subset_value(name)
        if "thresholds" in args:
            pr_integration.check_threshold_count(args.thresholds)
        return args.func(args)
    except (ValidationError, TrackerError,
            pr_integration.SweepError) as exc:
        print(f"detraceval: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the --out directory, or a report write
        print(f"detraceval: error: {exc.filename or args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
