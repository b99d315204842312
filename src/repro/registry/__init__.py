"""Route-origin registries: ROA validation, publication, neighbors, history."""

from repro.registry.history import HistoricalAuthority
from repro.registry.neighbors import NeighborRegistry
from repro.registry.publication import PublicationState, plan_truth_table
from repro.registry.roa import (
    OriginAuthority,
    RoaTable,
    RouteOriginAuthorization,
    ValidationState,
)

__all__ = [
    "HistoricalAuthority",
    "NeighborRegistry",
    "OriginAuthority",
    "PublicationState",
    "RoaTable",
    "RouteOriginAuthorization",
    "ValidationState",
    "plan_truth_table",
]
