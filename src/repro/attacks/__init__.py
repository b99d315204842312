"""Hijack scenarios, outcomes and the hijack laboratory."""

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import (
    AttackOutcome,
    HijackKind,
    HijackScenario,
    PathKind,
    synthetic_forged_path,
)

__all__ = [
    "AttackOutcome",
    "HijackKind",
    "HijackLab",
    "HijackScenario",
    "PathKind",
    "synthetic_forged_path",
]
