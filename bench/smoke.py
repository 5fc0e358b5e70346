"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 bench/smoke.py

For every workload it checks that an untraced run emits every end-to-end
metric and a traced run every per-layer metric of BENCHMARK.json, that the
traced spans account for `cli.main`'s wall time, and that a corrupted report
is counted as failed.  It also checks that the benchmark refuses to run
without the library sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))
from workloads import DetSubsets, MotLong, SystemSweep  # noqa: E402

TINY = (MotLong(n_targets=3, n_frames=40),
        SystemSweep(n_sequences=2, n_targets=6, n_frames=8),
        DetSubsets(n_sequences=4, n_targets=5, n_frames=9))


def bump_first_digit(report: str):
    """Tamper hook: change the first digit of the report file."""
    def tamper(out):
        path = out / report
        text = path.read_text()
        i = next(i for i, c in enumerate(text) if c.isdigit())
        path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
    return tamper


def check_metrics(record: dict, wanted: list[dict]) -> None:
    assert record["failed"] == 0, record["samples"]
    for m in wanted:
        value = record["metrics"][m["name"]]
        assert isinstance(value, (int, float)) and math.isfinite(value), m


def check_accounting(record: dict) -> None:
    """The root span covers the measured wall time of `cli.main`, and no
    span's children overlap (self times are never negative)."""
    for s in record["samples"]:
        if s["mode"] == "spans":
            fns = s["functions"]
            assert 0.0 <= s["wall_s"] - fns["cli.main"]["total_s"] < 0.01, s
            assert all(f["self_s"] > -1e-9 for f in fns.values()), fns


def check_without_sources() -> None:
    """Only BENCHMARK.json and bench/: exit non-zero, print no result."""
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, f"{tmp}/bench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "mot-long",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_without_sources()
    for workload in TINY:
        check_metrics(run.run(workload, 1, 0, trace=False), spec["end_to_end"])
        traced = run.run(workload, 1, 0, trace=True)
        check_metrics(traced, spec["per_layer"])
        check_accounting(traced)
        corrupted = run.run(workload, 1, 0, trace=False,
                            tamper=bump_first_digit(workload.report))
        timed = [s for s in corrupted["samples"] if s["role"] == "timed"]
        assert timed and all(not s["ok"] for s in timed), corrupted["samples"]
        assert corrupted["failed"] == len(timed)
        print(f"smoke: {workload.name}: metrics present, spans account for "
              f"cli.main, {len(timed)} corrupted reports counted as failed")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
