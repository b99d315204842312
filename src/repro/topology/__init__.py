"""AS-level topology: graph model, CAIDA I/O, classification, generation."""

from repro.topology.asgraph import ASGraph, TopologyError
from repro.topology.caida import (
    CaidaFormatError,
    dump_caida,
    dumps_caida,
    load_caida,
    loads_caida,
)
from repro.topology.classify import (
    TopologySummary,
    customer_cone,
    depth_to_tier1,
    effective_depth,
    find_tier1,
    find_tier2,
    reach,
    stub_asns,
    summarize,
    transit_asns,
)
from repro.topology.generator import (
    GeneratorConfig,
    default_address_plan,
    generate_topology,
)
from repro.topology.relationships import Relationship, RouteClass
from repro.topology.view import RoutingView

__all__ = [
    "ASGraph",
    "CaidaFormatError",
    "GeneratorConfig",
    "Relationship",
    "RouteClass",
    "RoutingView",
    "TopologyError",
    "TopologySummary",
    "customer_cone",
    "default_address_plan",
    "depth_to_tier1",
    "dump_caida",
    "dumps_caida",
    "effective_depth",
    "find_tier1",
    "find_tier2",
    "generate_topology",
    "load_caida",
    "loads_caida",
    "reach",
    "stub_asns",
    "summarize",
    "transit_asns",
]
