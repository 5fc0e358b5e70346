"""The benchmark's tracer still finds the labeling and matching functions.

`bench/tracing.py` rebinds library functions by module and name, and a
function it cannot find (renamed or moved) is reported, not fatal, while
a span that no call reaches reads 0; the benchmark's own smoke test only
asks that each per-layer metric be finite. One test installs the tracer
in-process around tiny `eval-det` and `eval-system` runs on crowded
sequences, which hold conflicted frames, checks that the labeling and
matching spans record calls, and puts back every module attribute the
tracer rebound. Another test installs the tracer and the call counter and
checks which of their names they could not find.
"""

import contextlib
import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from detraceval.cli import main
from detraceval.datamodel import write_detections, write_ground_truth
from detraceval.synth import ScenarioConfig, gen_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"
N_SEQUENCES = 2


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


@pytest.fixture(scope="module")
def crowded(tmp_path_factory):
    """GT and detection directories of two short sequences in a small
    arena, with clutter and jitter."""
    root = tmp_path_factory.mktemp("crowded")
    (root / "gt").mkdir()
    (root / "det").mkdir()
    for i in range(N_SEQUENCES):
        gt, dets = gen_scenario(ScenarioConfig(
            n_targets=8, n_frames=10, arena=(200.0, 140.0), drop_rate=0.2,
            clutter_rate=6.0, jitter_sigma=3.0, seed=4 + i))
        gt = dataclasses.replace(gt, sequence_id=f"seq{i}")
        with open(root / "gt" / f"seq{i}.json", "w") as fh:
            write_ground_truth(gt, fh)
        with open(root / "det" / f"seq{i}.csv", "w") as fh:
            write_detections(dets, fh)
    return root


def _library_attributes() -> dict:
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "detraceval" or name.startswith("detraceval.")}


@contextlib.contextmanager
def _attributes_restored():
    """Puts back every library module attribute on exit, so what a tracer
    rebound inside does not outlive the block."""
    before = _library_attributes()
    try:
        yield
    finally:
        for name, attributes in before.items():
            for attr, value in attributes.items():
                setattr(sys.modules[name], attr, value)


def _traced_calls(tracing, argv) -> dict:
    """Calls per span of one traced `main(argv)`; every module attribute
    the tracer rebound is put back before this returns."""
    tracer = tracing.Tracer()
    with _attributes_restored():
        tracer.install()
        assert main(argv) == 0
    return {key: entry["calls"] for key, entry in tracer.summary().items()}


# Spanned names that no library function bears any more; their per-layer
# metrics read 0 until the benchmark's tracer is brought up to date.
STALE_SPANS = {"datamodel.parse_ground_truth", "datamodel.parse_detections",
               "datamodel.parse_tracks", "det_metrics.pr_curve_multi",
               "det_metrics.counts_at_threshold"}


def test_tracer_finds_every_name_but_the_known_stale_ones(tracing):
    """A library rename or deletion of a function the tracer spans or
    counts fails here, instead of silently zeroing a per-layer metric."""
    for module, _ in (*tracing.SPANNED, *tracing.COUNTED):
        importlib.import_module(f"detraceval.{module}")
    tracer, counter = tracing.Tracer(), tracing.Counter()
    with _attributes_restored():
        tracer.install()
        counter.install()
    assert set(tracer.missing) <= STALE_SPANS, tracer.missing
    assert counter.missing == []


@pytest.mark.parametrize("command, spans", [
    (["eval-det"], ("matching.match_frame_greedy",)),
    (["eval-system", "--tracker", "builtin"],
     ("matching.match_frame_greedy", "matching.clear_correspond")),
])
def test_tracer_spans_labeling_and_matching(tmp_path, tracing, crowded,
                                            command, spans):
    calls = _traced_calls(tracing, command[:1] + [
        "--gt", str(crowded / "gt"), "--det", str(crowded / "det"),
        "--out", str(tmp_path)] + command[1:])
    assert calls.get("det_metrics._label_detections") == N_SEQUENCES
    for key in spans:
        assert calls.get(key, 0) > 0, key
