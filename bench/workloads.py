"""The benchmark's three workloads: seeded input generators and output checks.

Each workload writes its inputs under a directory, gives the `detraceval`
argv that evaluates them, and checks one invocation's output directory.
Generation runs in the benchmark process, outside any timed region; the CLI
sees only the generated files.  Sizes are constructor arguments so that the
smoke test can run every workload at a tiny size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

from detraceval.datamodel import (CATEGORIES, DIFFICULTIES, WEATHERS,
                                  BBox, GtTrack, IgnoreRegion,
                                  write_detections, write_ground_truth)
from detraceval.det_metrics import PRCurve, PRPoint
from detraceval.synth import ScenarioConfig, gen_scenario, oracle_ap


def round6(value: float) -> float:
    """The CLI's report rounding: 6 significant digits."""
    return float(f"{value:.6g}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt(value: float) -> str:
    """Number formatting of the library's CSV writers."""
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


@dataclasses.dataclass
class Inputs:
    """What a workload generated: directories plus box counts."""

    gt_dir: Path
    other_dir: Path
    gt_boxes: int
    input_boxes: int
    sequences: int

    @property
    def boxes(self) -> int:
        return self.gt_boxes + self.input_boxes


@dataclasses.dataclass
class Check:
    """Outcome of checking one invocation's output directory."""

    ok: bool
    digest: str
    problems: list[str]


def _write_scenarios(root: Path, scenarios) -> Inputs:
    gt_dir, det_dir = root / "gt", root / "det"
    gt_dir.mkdir(parents=True)
    det_dir.mkdir(parents=True)
    gt_boxes = input_boxes = 0
    for gt, dets in scenarios:
        with open(gt_dir / f"{gt.sequence_id}.json", "w") as fh:
            write_ground_truth(gt, fh)
        with open(det_dir / f"{gt.sequence_id}.csv", "w") as fh:
            write_detections(dets, fh)
        gt_boxes += gt.total_boxes()
        input_boxes += len(dets)
    return Inputs(gt_dir, det_dir, gt_boxes, input_boxes, len(scenarios))


class MotLong:
    """`eval-mot --jobs 1` on the criterion-09 shape: one long sequence whose
    hypotheses are the ground truth shifted right by 1 px."""

    name = "mot-long"
    report = "mot_aggregate.json"
    # IoU of a 40x40 box and its 1 px shift: 39*40 / (2*1600 - 39*40).
    motp = 100.0 * 1560.0 / 1640.0

    def __init__(self, n_targets: int = 20, n_frames: int = 5000):
        self.n_targets = n_targets
        self.n_frames = n_frames

    def generate(self, root: Path, seed: int) -> Inputs:
        rng = random.Random(seed)
        # One velocity for all targets keeps their 60 px spacing, so no two
        # targets ever overlap and every frame matches all boxes.
        vx = rng.uniform(-0.004, 0.01)
        vy = rng.uniform(-0.004, 0.004)
        tracks, rows = [], []
        for tid in range(1, self.n_targets + 1):
            x0 = 60.0 * tid + rng.uniform(0.0, 10.0)
            y0 = rng.uniform(40.0, 440.0)
            entries = []
            for frame in range(1, self.n_frames + 1):
                left, top = x0 + vx * frame, y0 + vy * frame
                entries.append({"frame": frame, "left": left, "top": top,
                                "width": 40.0, "height": 40.0,
                                "occlusion": 0.0, "truncation": 0.0,
                                "category": "car"})
                rows.append(f"{frame},{tid},{_fmt(left + 1.0)},{_fmt(top)},"
                            f"40,40\n")
            tracks.append({"target_id": tid, "entries": entries})
        doc = {"sequence_id": "long", "frame_count": self.n_frames,
               "weather": "cloudy", "difficulty": "medium",
               "ignore_regions": [], "tracks": tracks}
        gt_dir, tr_dir = root / "gt", root / "tracks"
        gt_dir.mkdir(parents=True)
        tr_dir.mkdir(parents=True)
        with open(gt_dir / "long.json", "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        with open(tr_dir / "long.csv", "w") as fh:
            fh.writelines(rows)
        n = self.n_targets * self.n_frames
        return Inputs(gt_dir, tr_dir, n, n, 1)

    def argv(self, inputs: Inputs, out: Path, jobs: int | None = None) -> list[str]:
        return ["eval-mot", "--gt", str(inputs.gt_dir),
                "--tracks", str(inputs.other_dir), "--jobs", "1",
                "--out", str(out)]

    def check(self, inputs: Inputs, out: Path) -> Check:
        problems = []
        bundle = json.loads((out / self.report).read_text())["bundle"]
        for key in ("fn", "fp", "ids", "fm"):
            if bundle[key] != 0:
                problems.append(f"{key} = {bundle[key]}, want 0")
        if bundle["mota"] != 100.0:
            problems.append(f"mota = {bundle['mota']}, want 100")
        if bundle["motp"] != round6(self.motp):
            problems.append(f"motp = {bundle['motp']}, want {round6(self.motp)}")
        if bundle["mt"] != self.n_targets:
            problems.append(f"mt = {bundle['mt']}, want {self.n_targets}")
        counts = json.loads((out / "mot_long.json").read_text())["per_frame_counts"]
        for key, want in (("gt", inputs.gt_boxes), ("matches", inputs.gt_boxes)):
            got = sum(c[key] for c in counts)
            if got != want:
                problems.append(f"sum of per-frame {key} = {got}, want {want}")
        return Check(not problems, sha256_file(out / self.report), problems)


class DetSubsets:
    """`eval-det` over short tagged sequences with ignore regions, scored on
    five subsets."""

    name = "det-subsets"
    report = "detection_report.json"
    subsets = ("overall", "scale:medium", "occlusion:partial", "category:car",
               "weather:night")

    def __init__(self, n_sequences: int = 12, n_targets: int = 20,
                 n_frames: int = 60):
        self.n_sequences = n_sequences
        self.n_targets = n_targets
        self.n_frames = n_frames

    def generate(self, root: Path, seed: int) -> Inputs:
        scenarios = []
        for i in range(self.n_sequences):
            gt, dets = gen_scenario(ScenarioConfig(
                n_targets=self.n_targets, n_frames=self.n_frames,
                box_size=(30.0, 130.0), drop_rate=0.1, clutter_rate=3.0,
                jitter_sigma=1.5, seed=seed * 1000 + i))
            rng = random.Random(seed * 1000 + i)
            static = BBox(rng.uniform(0.0, 700.0), rng.uniform(0.0, 350.0),
                          200.0, 150.0)
            timed = BBox(rng.uniform(0.0, 650.0), rng.uniform(0.0, 300.0),
                         250.0, 200.0)
            first = self.n_frames // 3 + 1
            # Categories cycle over targets so every category subset is
            # populated whatever the seed.
            tracks = tuple(
                GtTrack(tr.target_id, tuple(
                    dataclasses.replace(
                        e, category=CATEGORIES[tr.target_id % len(CATEGORIES)])
                    for e in tr.entries))
                for tr in gt.tracks)
            gt = dataclasses.replace(
                gt, sequence_id=f"seq{i:02d}", tracks=tracks,
                weather=WEATHERS[i % len(WEATHERS)],
                difficulty=DIFFICULTIES[i % len(DIFFICULTIES)],
                ignore_regions=(IgnoreRegion(static),
                                IgnoreRegion(timed, first, 2 * first)))
            scenarios.append((gt, dets))
        return _write_scenarios(root, scenarios)

    def argv(self, inputs: Inputs, out: Path, jobs: int | None = None) -> list[str]:
        argv = ["eval-det", "--gt", str(inputs.gt_dir),
                "--det", str(inputs.other_dir)]
        for name in self.subsets:
            argv += ["--subset", name]
        return argv + ["--out", str(out)]

    def check(self, inputs: Inputs, out: Path) -> Check:
        problems = []
        report = json.loads((out / self.report).read_text())
        if sorted(report) != sorted(self.subsets):
            problems.append(f"subsets {sorted(report)}, want {sorted(self.subsets)}")
        for name, body in sorted(report.items()):
            problems += self._check_subset(out, name, body)
        return Check(not problems, sha256_file(out / self.report), problems)

    @staticmethod
    def _check_subset(out: Path, name: str, body: dict) -> list[str]:
        points = body["points"]
        n_gt = {p["tp"] + p["fn"] for p in points}
        if len(n_gt) != 1:
            return [f"{name}: tp + fn differs between points"]
        (n_gt,) = n_gt
        problems = []
        curve = []
        for p in points:
            tp, fp = p["tp"], p["fp"]
            precision = tp / (tp + fp) if tp + fp else 1.0
            recall = tp / n_gt
            if (p["precision"], p["recall"]) != (round6(precision), round6(recall)):
                problems.append(f"{name}: point {p} disagrees with its counts")
            curve.append(PRPoint(0.0, precision, recall, tp, fp, p["fn"]))
        # The midpoint grid errs by at most half a step per unit of envelope
        # variation, which is at most 1, so a 1e-6 step keeps the oracle
        # within the 1e-6 tolerance of the report's 6-digit AP.
        want = oracle_ap(PRCurve(tuple(curve)), grid_step=1e-6)
        if not abs(body["ap"] - want) <= 1e-6:
            problems.append(f"{name}: ap {body['ap']} vs oracle {want:.9f}")
        csv = out / f"pr_curve_{name.replace(':', '_')}.csv"
        n_rows = len(csv.read_text().splitlines()) - 1
        if n_rows != len(points):
            problems.append(f"{csv.name}: {n_rows} rows, want {len(points)}")
        return problems


class SystemSweep:
    """`eval-system` with the builtin tracker over 10 uniform thresholds on
    several cluttered `gen_scenario` sequences.

    Timed invocations use `--jobs 1`.  Under the GIL, `--jobs 2` on two
    cores is about 25 % slower than `--jobs 1` and its wall time swings by a
    third from run to run, too much for a bound.  So an untimed `--jobs 2`
    invocation goes first instead: every timed report must match its bytes,
    and the traced run takes `cli.cpu_util` from it.
    """

    name = "system-sweep"
    report = "system_report.json"
    jobs = 1
    reference_jobs = 2

    def __init__(self, n_sequences: int = 4, n_targets: int = 30,
                 n_frames: int = 40):
        self.n_sequences = n_sequences
        self.n_targets = n_targets
        self.n_frames = n_frames

    def generate(self, root: Path, seed: int) -> Inputs:
        return _write_scenarios(root, [
            gen_scenario(ScenarioConfig(
                n_targets=self.n_targets, n_frames=self.n_frames,
                drop_rate=0.2, clutter_rate=8.0, jitter_sigma=1.0,
                seed=seed * 1000 + i))
            for i in range(self.n_sequences)])

    def argv(self, inputs: Inputs, out: Path, jobs: int | None = None) -> list[str]:
        return ["eval-system", "--gt", str(inputs.gt_dir),
                "--det", str(inputs.other_dir),
                "--tracker", "builtin:max_gap=2", "--thresholds", "10",
                "--jobs", str(jobs or self.jobs), "--out", str(out)]

    def check(self, inputs: Inputs, out: Path) -> Check:
        """Criterion-05's integral bound; byte identity across invocations
        and with `--jobs 1` is checked by the caller through the digest."""
        problems = []
        report = json.loads((out / self.report).read_text())
        psi = [p["bundle"]["mota"] for p in report["points"]]
        value, half_length = report["scores"]["pr_mota"], report["arc_length"] / 2
        # Every number in the report is rounded to 6 significant digits.
        tol = 1e-5 * (abs(value) + max(map(abs, psi)) * half_length) + 1e-9
        if not value <= 100.0 + tol:
            problems.append(f"pr_mota {value} > 100")
        if not min(psi) * half_length - tol <= value <= max(psi) * half_length + tol:
            problems.append(f"pr_mota {value} outside [min, max] * L/2 "
                            f"with psi in [{min(psi)}, {max(psi)}], L/2 = {half_length}")
        n_rows = len((out / "pr_curve.csv").read_text().splitlines()) - 1
        if n_rows != len(psi):
            problems.append(f"pr_curve.csv: {n_rows} rows, want {len(psi)}")
        return Check(not problems, sha256_file(out / self.report), problems)


WORKLOADS = {w.name: w for w in (MotLong, SystemSweep, DetSubsets)}
