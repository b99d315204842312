"""Experiment drivers, configuration and the sqlite result store."""

from repro.experiments.calibration import calibrate
from repro.experiments.config import ExperimentConfig, ExperimentResult
from repro.experiments.reportgen import render_experiments_markdown
from repro.experiments.store import ResultStore
from repro.experiments.suite import ExperimentSuite

__all__ = [
    "calibrate",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentSuite",
    "ResultStore",
    "render_experiments_markdown",
]
