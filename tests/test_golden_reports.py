"""Byte identity of `eval-system` reports against recorded digests.

The digests were recorded before the IoU kernel and the label-once sweep
replaced the scalar loops, so any later change that moves a report byte
(an operation order in the kernel, a tie rule in a matcher, a rounding in
the writer) fails here instead of drifting silently.  A change that means
to move report bytes must say why and re-record the digests.
"""

import hashlib

import pytest

from detraceval.cli import main
from detraceval.fixtures import load_fixture

# (case, tracker spec) -> (sha256 of system_report.json, of pr_curve.csv)
GOLDEN = {
    ("perfect", "builtin:link_thr=0.5,max_gap=1,min_track_len=1"): (
        "7e909c0cdf9edd104125c09b10fba2663c3a5c5466e9256549b9dccd8863bb80",
        "bdbcad8ebaca42e4522af01ad5c67066f08c077d40f80873c3cfb4d71ea503d2"),
    ("crossing", "builtin:link_thr=0.5,max_gap=1,min_track_len=1"): (
        "664c1969a8c8abe3a28ffcd063a3a43c2abd0eab732552be5c4d67f5f360607d",
        "5a9c9d9326335ecfb233e9cea085c05d17f3501b542d5e8fcaed6ee1712ee390"),
    ("ranking-flip", "builtin:link_thr=0.5,max_gap=2,min_track_len=1"): (
        "298b97fe7c2ac6c2485848570fe5b75b52072fd969cde8fb4d8590d5f560dfde",
        "ed5deca8c6d388efbc5846d3ebb5651a0b16d9e4613b55c1ef7724727a01a7ac"),
    ("ranking-flip", "builtin:link_thr=0.5,max_gap=2,min_track_len=6"): (
        "37000545341e5eb5e6756f7316b753551db72932dccd8cf80cdc07f5d4bb3297",
        "3315294a3e07e1a2a321a735e94fab477e77fe3ab5903b91837d6a8cd5e293cb"),
    ("fp-heavy", "builtin:link_thr=0.5,max_gap=1,min_track_len=1"): (
        "74c35f2e31bc1bf12332aa260bef5130bd91b14c414f270d3a3b1bee108bd914",
        "430e01d2a71238072d47267541c9b09a82ceb3437f99d655a8a0aab81f1c1421"),
    ("cluttered", "builtin:max_gap=2"): (
        "880849bd165d31328df8543310b819f02bdc59f2843badcc7144d69171ce6fb7",
        "3c82199c74884dc682519c8315bd20bc8f5fa6151661b273a77bb3bdadb18022"),
}

_CLUTTERED = ["--targets", "30", "--frames", "40", "--drop-rate", "0.2",
              "--clutter-rate", "8.0", "--jitter-sigma", "1.0", "--seed", "1"]


def _spec(tracker) -> str:
    return (f"builtin:link_thr={tracker.link_thr},max_gap={tracker.max_gap},"
            f"min_track_len={tracker.min_track_len}")


def _cases():
    for name in ("perfect", "crossing", "ranking-flip", "fp-heavy"):
        for tracker in load_fixture(name).trackers.values():
            yield name, _spec(tracker)
    yield "cluttered", "builtin:max_gap=2"


def _digests(tmp_path, case: str, spec: str) -> tuple[str, str]:
    data, out = tmp_path / "data", tmp_path / "out"
    source = ["--fixture", case] if case != "cluttered" else _CLUTTERED
    assert main(["gen-synthetic", *source, "--out", str(data)]) == 0
    assert main(["eval-system", "--gt", str(data / "gt"),
                 "--det", str(data / "det"), "--tracker", spec,
                 "--jobs", "1", "--out", str(out)]) == 0
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("system_report.json", "pr_curve.csv"))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case,spec", list(_cases()))
def test_system_report_bytes_match_golden(tmp_path, case, spec):
    assert _digests(tmp_path, case, spec) == GOLDEN[(case, spec)]
