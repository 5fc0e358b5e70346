"""detraceval: joint detection-and-tracking evaluation toolkit.

Detection PR/AP, the CLEAR MOT suite (MOTA, MOTP, MT, ML, IDS, FM, FP, FN),
and PR-integrated tracking scores computed by detection-threshold sweeps and
line integration along the PR curve, with a synthetic scenario generator and
brute-force oracles for verification.
"""

from .datamodel import (BBox, Detection, DetectionSet, GroundTruth, GtEntry,
                        GtTrack, IgnoreRegion, OutTrack, TrackSet,
                        ValidationError)
from .det_metrics import (PRCurve, PRPoint, average_precision,
                          detection_report, pr_curve, pr_curve_multi)
from .geometry import (OcclusionClass, ScaleClass, ignore_coverage, iou,
                       occlusion_class, scale_class)
from .matching import (FORBIDDEN, FrameMatching, clear_correspond, hungarian,
                       match_frame_greedy)
from .mot_metrics import (FrameCounts, MetricBundle, SequenceStats, aggregate,
                          evaluate_clear)
from .pr_integration import (OperatingPoint, PRIntegratedReport, SweepError,
                             integrate, pr_report, select_thresholds, sweep)
from .synth import (ScenarioConfig, gen_scenario, oracle_ap, oracle_clear,
                    random_tiny_scenario)
from .trackers import (BuiltinGreedyTracker, ExternalTracker, TrackerError,
                       greedy_iou_track, make_tracker, run_external)

__version__ = "0.1.0"
