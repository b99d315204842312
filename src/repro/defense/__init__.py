"""Defensive deployments: strategies, origin validation, prefix filters."""

from repro.defense.deployment import Defense, FilterRule
from repro.defense.strategies import (
    DeploymentStrategy,
    degree_threshold_deployment,
    no_deployment,
    paper_ladder,
    tier1_deployment,
    top_degree_deployment,
)

__all__ = [
    "Defense",
    "DeploymentStrategy",
    "FilterRule",
    "degree_threshold_deployment",
    "no_deployment",
    "paper_ladder",
    "tier1_deployment",
    "top_degree_deployment",
]
