"""The benchmark's workloads run in-process at the smoke test's sizes.

`bench/workloads.py` imports library names (`PRCurve`, `PRPoint`,
`oracle_ap`, the GT and detection writers, `total_boxes`) and checks the
CLI's reports with them. This test runs each workload's generate, CLI and
check steps, so that a library change that breaks the benchmark fails
here, without starting the benchmark's child processes.
"""

from pathlib import Path

import pytest

from detraceval.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import smoke
    return {w.name: w for w in smoke.TINY}


@pytest.mark.parametrize("name", ["mot-long", "system-sweep", "det-subsets"])
def test_bench_workload_runs_and_checks(tmp_path, tiny_workloads, name):
    workload = tiny_workloads[name]
    inputs = workload.generate(tmp_path / "inputs", 1)
    out = tmp_path / "out"
    assert main(workload.argv(inputs, out)) == 0
    check = workload.check(inputs, out)
    assert check.ok, check.problems
