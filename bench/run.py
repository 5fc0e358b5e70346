"""Benchmark of the detraceval CLI on seeded inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark generates the workload's inputs
from the seed, then starts one fresh child process per CLI invocation until
S seconds have been measured (at least three rounds), and checks every
invocation's output.  With --trace 0 it reports the end-to-end metrics of
untraced invocations; with --trace 1 it alternates untraced and traced
invocations, adds one call-counting invocation, and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json; bench/README.md
explains the workloads and which end-to-end metric each layer metric should
move.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A full record with every raw sample and
the machine goes to bench/_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# A run must end within 180 s; stop starting invocations well before that.
RUN_LIMIT_S = 140.0
MIN_ROUNDS = 3


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def invoke(mode: str, argv: list[str], work: Path, deadline: float) -> dict:
    """Run child.py once; its own report plus peak RSS from wait4."""
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    log_path = work / "child.log"
    cmd = [sys.executable, str(BENCH / "child.py"), mode, "", str(result_path),
           str(SRC), "--", *argv]
    with open(log_path, "w") as log:
        cmd[3] = repr(_clock())  # setup_s starts here
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        timer = threading.Timer(max(deadline + 20.0 - _clock(), 1.0), proc.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"mode": mode, "exit": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if result_path.exists():
        sample.update(json.loads(result_path.read_text()))
    else:
        sample["log"] = log_path.read_text()[-2000:]
    return sample


class Run:
    """One benchmark run: inputs for one seed, then invocations and checks."""

    def __init__(self, workload, seed: int, work: Path, tamper=None):
        self.workload = workload
        self.work = work
        self.out = work / "out"
        self.tamper = tamper
        self.deadline = _clock() + RUN_LIMIT_S
        self.samples: list[dict] = []
        started = time.perf_counter()
        self.inputs = workload.generate(work / "in", seed)
        self.generate_s = time.perf_counter() - started

    def attempt(self, mode: str, role: str = "timed", jobs: int | None = None) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        sample = invoke(mode, self.workload.argv(self.inputs, self.out, jobs),
                        self.work, self.deadline)
        sample["role"] = role
        if role == "timed" and self.tamper is not None and self.out.exists():
            self.tamper(self.out)
        problems = []
        if sample["exit"] != 0 or "wall_s" not in sample:
            problems.append(f"invocation exited with status {sample['exit']}")
        else:
            try:
                check = self.workload.check(self.inputs, self.out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                sample["digest"] = check.digest
                problems += check.problems
                first = next((s["digest"] for s in self.samples
                              if "digest" in s), check.digest)
                if check.digest != first:
                    problems.append("report bytes differ from the first "
                                    "invocation of this run")
        sample["ok"] = not problems
        sample["problems"] = problems
        self.samples.append(sample)

    def measure(self, seconds: float, trace: bool) -> None:
        reference_jobs = getattr(self.workload, "reference_jobs", None)
        if reference_jobs is not None:
            self.attempt("plain", role="reference", jobs=reference_jobs)
        modes = ("plain", "spans") if trace else ("plain",)
        started = _clock()
        rounds = 0
        while True:
            round_start = _clock()
            for mode in modes:
                self.attempt(mode)
            rounds += 1
            now = _clock()
            last = now - round_start
            # Start another round only if it fits in the measured time.
            if rounds >= MIN_ROUNDS and now - started + last > seconds:
                break
            if now + 2.0 * last > self.deadline:
                break
        if trace:
            self.attempt("count", role="count")

    def timed(self, mode: str) -> list[dict]:
        return [s for s in self.samples
                if s["role"] == "timed" and s["mode"] == mode and "wall_s" in s]


def end_to_end(run: Run) -> dict[str, float]:
    plain = run.timed("plain")
    return {
        "wall_s": statistics.median(s["wall_s"] for s in plain),
        "boxes_per_s": statistics.median(run.inputs.boxes / s["wall_s"]
                                         for s in plain),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        "setup_s": statistics.median(s["setup_s"] for s in run.samples
                                     if "setup_s" in s),
    }


def _layers(sample: dict, n_sequences: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    fns = sample["functions"]

    def fn(key: str, field: str) -> float:
        return fns.get(key, {}).get(field, 0)

    def layer(module: str, field: str) -> float:
        return sum(v.get(field, 0) for k, v in fns.items()
                   if k.startswith(module + "."))

    parse_s, boxes = layer("datamodel", "total_s"), layer("datamodel", "boxes")
    return {
        "datamodel.parse_s": parse_s,
        "datamodel.boxes_parsed": boxes,
        "datamodel.parse_us_per_box": 1e6 * parse_s / boxes if boxes else 0.0,
        "trackers.track_s": layer("trackers", "total_s"),
        "trackers.calls": layer("trackers", "calls"),
        "trackers.dets_in": layer("trackers", "dets_in"),
        "trackers.tracks_out": layer("trackers", "tracks_out"),
        "det_metrics.label_s": layer("det_metrics", "self_s"),
        "det_metrics.label_passes_per_sequence":
            fn("det_metrics._label_detections", "calls") / n_sequences,
        "matching.match_frame_greedy_s":
            fn("matching.match_frame_greedy", "total_s"),
        "matching.match_frame_greedy_calls":
            fn("matching.match_frame_greedy", "calls"),
        "matching.clear_correspond_s": fn("matching.clear_correspond", "total_s"),
        "matching.clear_correspond_calls": fn("matching.clear_correspond", "calls"),
        "matching.hungarian_calls": fn("matching.hungarian", "calls"),
        "matching.hungarian_cells": fn("matching.hungarian", "cells"),
        "matching.hungarian_s": fn("matching.hungarian", "total_s"),
        "mot_metrics.evaluate_clear_s": fn("mot_metrics.evaluate_clear", "total_s"),
        "mot_metrics.evaluate_clear_self_s":
            fn("mot_metrics.evaluate_clear", "self_s"),
        "mot_metrics.frames_scored": fn("mot_metrics.evaluate_clear", "frames"),
        "pr_integration.sweep_s": fn("pr_integration.sweep", "total_s"),
        "pr_integration.sweep_self_s": fn("pr_integration.sweep", "self_s"),
        "pr_integration.operating_points": fn("pr_integration.sweep", "points"),
        "cli.self_s": fn("cli.main", "self_s"),
        "trace.wall_s": sample["wall_s"],
    }


def per_layer(run: Run) -> dict[str, float]:
    plain, traced = run.timed("plain"), run.timed("spans")
    per_sample = [_layers(s, run.inputs.sequences) for s in traced]
    metrics = {name: statistics.median(m[name] for m in per_sample)
               for name in per_sample[0]}
    counted = [s for s in run.samples if s["mode"] == "count" and "functions" in s]
    for key in ("geometry.iou", "geometry.ignore_coverage"):
        metrics[f"{key}_calls"] = counted[0]["functions"][key] if counted else 0
    metrics["cli.cpu_s"] = statistics.median(s["cpu_s"] for s in plain)
    # On system-sweep the --jobs 2 reference shows how much ran in parallel.
    parallel = [s for s in run.samples
                if s["role"] == "reference" and "wall_s" in s] or plain
    metrics["cli.cpu_util"] = statistics.median(s["cpu_s"] / s["wall_s"]
                                                for s in parallel)
    # Each round runs an untraced invocation, then a traced one; comparing
    # within a round keeps the machine's drifting speed out of the ratio.
    metrics["trace.overhead_frac"] = statistics.median(
        b["wall_s"] / a["wall_s"] - 1.0
        for a, b in zip(run.samples, run.samples[1:])
        if a in plain and b in traced)
    return metrics


def wall_percentiles(run: Run) -> dict:
    """Median and the highest percentile with ten samples beyond it."""
    walls = sorted(s["wall_s"] for s in run.timed("plain"))
    n = len(walls)
    supported = [p for p in (99, 95, 90, 75) if n * (100 - p) >= 1000]
    out = {"count": n, "p50": statistics.median(walls), "max": walls[-1],
           "highest_supported": None}
    if supported:
        p = supported[0]
        out["highest_supported"] = p
        out[f"p{p}"] = statistics.quantiles(walls, n=100)[p - 1]
    return out


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "commit": _commit()}


def run(workload, seed: int, seconds: float, trace: bool,
        tamper=None) -> dict:
    """Run one workload and return its full record.  `tamper`, for the smoke
    test, edits each timed invocation's output before it is checked."""
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench_run = Run(workload, seed, work, tamper)
        bench_run.measure(seconds, trace)
        failed = sum(not s["ok"] for s in bench_run.samples)
        record = {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "machine": machine(),
            "inputs": {"gt_boxes": bench_run.inputs.gt_boxes,
                       "input_boxes": bench_run.inputs.input_boxes,
                       "sequences": bench_run.inputs.sequences,
                       "generate_s": bench_run.generate_s},
            "attempted": len(bench_run.samples), "failed": failed,
            "failed_frac": failed / len(bench_run.samples),
            "samples": bench_run.samples,
        }
        if bench_run.timed("plain") and (not trace or bench_run.timed("spans")):
            record["wall_s"] = wall_percentiles(bench_run)
            record["metrics"] = (per_layer(bench_run) if trace
                                 else end_to_end(bench_run))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "detraceval" / "cli.py").is_file():
        print(f"bench: error: no detraceval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    record = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                 bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")

    for s in record["samples"]:
        if not s["ok"]:
            print(f"bench: failed {s['role']} {s['mode']} invocation: "
                  f"{s['problems']} {s.get('log', '')}", file=sys.stderr)
    missing = sorted({m for s in record["samples"] for m in s.get("missing", ())})
    if missing:
        print(f"bench: warning: not in the library, so not traced: {missing}",
              file=sys.stderr)
    if "metrics" not in record:
        print("bench: error: no invocation completed", file=sys.stderr)
        return 1
    pct = record["wall_s"]
    print(f"bench: {args.workload} seed {args.seed}: {record['attempted']} "
          f"invocations, {record['failed']} failed "
          f"(failed_frac {record['failed_frac']:g}); wall_s median "
          f"{pct['p50']:.4f} s over {pct['count']} samples, max {pct['max']:.4f} s, "
          f"highest percentile with 10 samples beyond it: "
          f"{pct['highest_supported'] or 'none'}; record {path.relative_to(ROOT)}")
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"bench:   {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
