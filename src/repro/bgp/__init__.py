"""BGP policy model, convergence statistics and the fast routing engine.

The generation-stepped message flood lives in the oracle
(:class:`repro.oracle.reference.ReferenceSimulator`)."""

from repro.bgp.convergence import (
    ConvergenceStats,
    generation_wavefront,
    measure_convergence,
)
from repro.bgp.engine import UNREACHABLE, HijackResult, RouteState, RoutingEngine
from repro.bgp.policy import PolicyConfig, prefers

# The array-kernel names are exported lazily (PEP 562) so that merely
# importing repro.bgp on the reference path never pays the numpy import.
_KERNEL_EXPORTS = ("BACKENDS", "CompiledTopology", "compile_view", "resolve_backend")


def __getattr__(name: str):
    if name in _KERNEL_EXPORTS:
        from repro.bgp import kernel

        return getattr(kernel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BACKENDS",
    "CompiledTopology",
    "compile_view",
    "resolve_backend",
    "ConvergenceStats",
    "generation_wavefront",
    "measure_convergence",
    "HijackResult",
    "PolicyConfig",
    "RouteState",
    "RoutingEngine",
    "UNREACHABLE",
    "prefers",
]
