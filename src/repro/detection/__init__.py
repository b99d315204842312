"""Hijack detection: probe sets, detectors, Fig. 7 analysis, placement."""

from repro.detection.analysis import (
    DetectionStudy,
    greedy_probe_placement,
)
from repro.detection.detector import DetectionReport, HijackDetector
from repro.detection.moas import MoasReport, MoasVerdict
from repro.detection.probes import (
    ProbeSet,
    bgpmon_like_probes,
    tier1_probes,
    top_degree_probes,
)
from repro.detection.taxonomy import (
    PathObservation,
    classify_observations,
    grid_cells,
)

__all__ = [
    "DetectionReport",
    "DetectionStudy",
    "HijackDetector",
    "MoasReport",
    "MoasVerdict",
    "PathObservation",
    "ProbeSet",
    "classify_observations",
    "grid_cells",
    "bgpmon_like_probes",
    "greedy_probe_placement",
    "tier1_probes",
    "top_degree_probes",
]
