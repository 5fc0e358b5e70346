"""Byte identity of the CLI's reports against recorded digests.

The `eval-system` digests were recorded before the IoU kernel and the
label-once sweep replaced the scalar loops; the `eval-mot`, `eval-det` and
`report` digests before the columnar parser and CLEAR loop replaced the
per-box objects.  Any later change that moves a report byte (an operation
order in the kernel, a tie rule in a matcher, a parse of a number, a
rounding in the writer) fails here instead of drifting silently.  A change
that means to move report bytes must say why and re-record the digests.
"""

import dataclasses
import hashlib

import pytest

from detraceval.cli import main
from detraceval.datamodel import (BBox, IgnoreRegion, parse_detections,
                                  write_detections, write_ground_truth,
                                  write_tracks)
from detraceval.fixtures import load_fixture
from detraceval.synth import ScenarioConfig, gen_scenario
from detraceval.trackers import make_tracker

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


# (case, tracker spec) -> file name -> sha256 of every eval-mot report file
GOLDEN_MOT = {
    ("perfect", "builtin:link_thr=0.5,max_gap=1,min_track_len=1"): {
        "mot_aggregate.json":
            "b3e7c1cca7bc908a3491b3983f09178d5c3603830f7a8ea208e770b87bb64894",
        "mot_perfect.json":
            "add3e31baec19e8744ecf008dc7b8c6996d0b31d8cea795bc21bd0f16f5d43ea",
    },
    ("crossing", "builtin:link_thr=0.5,max_gap=1,min_track_len=1"): {
        "mot_aggregate.json":
            "0e8cc086b6cbc00efa1ee9811621cd45754545772a737bb072a0f4a5f78ecc49",
        "mot_crossing.json":
            "c95b767837766d4260bda12ed09c9fc2c9e98f212cc18f5eb590a240bde60c6a",
    },
    ("ranking-flip", "builtin:link_thr=0.5,max_gap=2,min_track_len=1"): {
        "mot_aggregate.json":
            "47c39f211adf4a767d38ee4e27f4e0a0e44f0e53b055e6cddc2cfe9076f60d90",
        "mot_ranking-flip.json":
            "79917073770b317c724cdec865075b747251b9708bfa1ae45063589cd8ad17c9",
    },
    ("ranking-flip", "builtin:link_thr=0.5,max_gap=2,min_track_len=6"): {
        "mot_aggregate.json":
            "7a16332c92be65db06eb8b209522933a2d0f0123a1d23ab5f3fea563b97c63fb",
        "mot_ranking-flip.json":
            "b1fb3f58f20345737306e5d594912a7091d3ce18ea043f3cd99f8f5687d49c96",
    },
    ("fp-heavy", "builtin:link_thr=0.5,max_gap=1,min_track_len=1"): {
        "mot_aggregate.json":
            "fdaa8f624586f49b68f31ffff8c5f8b1396d268a1a2bc8213cd38ce135eee7ff",
        "mot_fp-heavy.json":
            "cb1b1df5d4adf1491558835cbe230c10dc7eec8968406c7d2d46a16576035586",
    },
    ("cluttered", "builtin:max_gap=2"): {
        "mot_aggregate.json":
            "e72a994dba9bd099cc78a68d76516d07950105781fbcd66ca7af36cd6fc26e8c",
        "mot_synth-1.json":
            "51858db36176aaa0dc036d41cb30fdeafb823edcb8e762e462bdd339630beb84",
    },
    ("ignore", "builtin:max_gap=2"): {
        "mot_aggregate.json":
            "01ee6d3ce2e9f53a4e0acc9d8f5cc0b5ad344b69132978aa43f92c165cda76de",
        "mot_ignore.json":
            "6b7339fec2372de5202618dbe71759e960636e56f753260aed846709849c98a9",
    },
}

# (case, category subset) -> file name -> sha256 of every eval-det output
GOLDEN_DET = {
    ("perfect", "car"): {
        "detection_report.json":
            "3cf1caa89afa6181598b6a976ee69056b6c0cb352cf6302c89a917e927a9125f",
        "pr_curve_category_car.csv":
            "be4f38c3fceaa21b99c30f6aa26ccdb2beb3aec9241d94f9f7923e3fa453f011",
        "pr_curve_overall.csv":
            "bae4682741d411fdb3829cd167a031868dc6e00a6a740cef3d235c4a48967e8b",
    },
    ("crossing", "car"): {
        "detection_report.json":
            "be90181436f7f618bc88f13611deb644d09ce91ba55ceec5e54504beab6d43da",
        "pr_curve_category_car.csv":
            "a4255feb2f6ec38d0c2541e439c506edde1c3ff079991aa74aeb7cd872ef8d21",
        "pr_curve_overall.csv":
            "a4255feb2f6ec38d0c2541e439c506edde1c3ff079991aa74aeb7cd872ef8d21",
    },
    ("ranking-flip", "bus"): {
        "detection_report.json":
            "123696469239c36ea67717db3db1552be2bbfee42a027c97e912752b89260b6a",
        "pr_curve_category_bus.csv":
            "ca884d3f86924e4b5f255f9b985dc712a48b2b30d4a054f69bee005cc08babee",
        "pr_curve_overall.csv":
            "2f51d646a9067c80c183d19687dad167c9d1267589837adfd0a762bce463e9da",
    },
    ("fp-heavy", "van"): {
        "detection_report.json":
            "48cb3c22591ee7d375e81bafacfd3972883d9899b0583933dd9e94284c6e6862",
        "pr_curve_category_van.csv":
            "03d0d024a98781f088302ab257f167c4bca5e5639eb34a402bc7f49d3f9e0be4",
        "pr_curve_overall.csv":
            "021f48ad28ffb63fd086ee7d2e6e2135955a327b078b1409f86bb218fccd0d1e",
    },
    ("cluttered", "car"): {
        "detection_report.json":
            "c2314d5575b7986d51bea0ba4428586e697ceb36a36192afbb512af34645c986",
        "pr_curve_category_car.csv":
            "bab288f92b849b212d55f067a69410af8fa543f60e0b96e477b6cd888e9dc5fb",
        "pr_curve_overall.csv":
            "26e827ba5616a80d2f99e0270d87ff0cb74d742f97440b031c8de53ebd36c464",
    },
    ("ignore", "car"): {
        "detection_report.json":
            "68a082e31d0b1323847c96c03012d47de23b1e37431b6d76a845f96443072996",
        "pr_curve_category_car.csv":
            "e97e095ca9dae89b7c345df05d0bc29e5a2b20fb5560747eb807caf51aece097",
        "pr_curve_overall.csv":
            "cf7536c97a86855eac0f843e027ae34bbc83cf6640ed273ad9b75f028e6fee49",
    },
}

GOLDEN_LEADERBOARD = {
    "leaderboard.csv":
        "179d35e5bccb422963e3bd4f95a8903c38247e52360c7a86241bd197aa2f1317",
    "leaderboard.json":
        "f57e44b1c144f73d436c33946e80f8bac2b26309637d99004e86e56c0764cea1",
}


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


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _gen(data, case: str) -> None:
    if case == "ignore":
        _gen_ignore(data)
        return
    source = ["--fixture", case] if case != "cluttered" else _CLUTTERED
    assert main(["gen-synthetic", *source, "--out", str(data)]) == 0


def _gen_ignore(data) -> None:
    """No fixture has ignore regions: a cluttered scene with one static and
    one frame-ranged region, so that CLEAR's and the detection layer's
    ignore handling reach the report bytes."""
    gt, dets = gen_scenario(ScenarioConfig(
        n_targets=12, n_frames=30, box_size=(30.0, 130.0), drop_rate=0.1,
        clutter_rate=4.0, jitter_sigma=1.5, seed=5))
    gt = dataclasses.replace(gt, sequence_id="ignore", ignore_regions=(
        IgnoreRegion(BBox(100.0, 50.0, 300.0, 200.0)),
        IgnoreRegion(BBox(500.0, 250.0, 250.0, 200.0), 10, 20)))
    (data / "gt").mkdir(parents=True)
    (data / "det").mkdir()
    with open(data / "gt" / "ignore.json", "w") as fh:
        write_ground_truth(gt, fh)
    with open(data / "det" / "ignore.csv", "w") as fh:
        write_detections(dets, fh)


def _mot_digests(tmp_path, case: str, spec: str) -> dict[str, str]:
    """eval-mot of the case's GT against the tracks `spec` builds from its
    detections; file name -> sha256 for every report file."""
    data, out = tmp_path / "data", tmp_path / "out"
    _gen(data, case)
    tracker = make_tracker(spec)
    (data / "tracks").mkdir()
    for det_path in sorted((data / "det").glob("*.csv")):
        with open(det_path) as fh:
            tracks = tracker(parse_detections(fh), det_path.stem)
        with open(data / "tracks" / det_path.name, "w") as fh:
            write_tracks(tracks, fh)
    assert main(["eval-mot", "--gt", str(data / "gt"),
                 "--tracks", str(data / "tracks"), "--jobs", "1",
                 "--out", str(out)]) == 0
    return {p.name: _sha(p) for p in sorted(out.iterdir())}


def _det_digests(tmp_path, case: str, category: str) -> dict[str, str]:
    data, out = tmp_path / "data", tmp_path / "out"
    _gen(data, case)
    assert main(["eval-det", "--gt", str(data / "gt"),
                 "--det", str(data / "det"), "--subset", "overall",
                 "--subset", f"category:{category}", "--out", str(out)]) == 0
    return {p.name: _sha(p) for p in sorted(out.iterdir())}


def _leaderboard_digests(tmp_path) -> dict[str, str]:
    data, results, out = (tmp_path / "data", tmp_path / "results",
                          tmp_path / "tables")
    _gen(data, "ranking-flip")
    for name, spec in (("keep-all", "builtin:max_gap=2"),
                       ("suppress-short", "builtin:min_track_len=6,max_gap=2"),
                       ("default", "builtin")):
        assert main(["eval-system", "--gt", str(data / "gt"),
                     "--det", str(data / "det"), "--tracker", spec,
                     "--tracker-name", name, "--detector-name", "synthetic",
                     "--jobs", "1", "--out", str(results / name)]) == 0
    assert main(["report", "--results", str(results), "--out", str(out)]) == 0
    return {p.name: _sha(p) for p in sorted(out.iterdir())}


def _mot_cases():
    yield from _cases()
    yield "ignore", "builtin:max_gap=2"


@pytest.mark.parametrize("case,spec", list(_mot_cases()))
def test_mot_report_bytes_match_golden(tmp_path, case, spec):
    assert _mot_digests(tmp_path, case, spec) == GOLDEN_MOT[(case, spec)]


@pytest.mark.parametrize("case,category", list(GOLDEN_DET))
def test_detection_report_bytes_match_golden(tmp_path, case, category):
    assert _det_digests(tmp_path, case, category) == GOLDEN_DET[(case, category)]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_leaderboard_bytes_match_golden(tmp_path):
    assert _leaderboard_digests(tmp_path) == GOLDEN_LEADERBOARD
