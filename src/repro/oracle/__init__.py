"""The independent correctness layer for the routing core.

Everything the paper reports — depth-ordered vulnerability, the ROV
deployment threshold, probe blind spots — rests on
:class:`~repro.bgp.engine.RoutingEngine` computing correct routes, and
since the parallel/caching work landed the fast paths are only checked
against each other. This package is the outside referee:

* :mod:`repro.oracle.reference` — a deliberately slow, obviously-correct
  reference simulator: a line-by-line transcription of the paper's
  Gao–Rexford preference and valley-free export rules with explicit
  AS-path routes, no caching, no bucket queues, no incremental state.
  It shares **no routing code** with the production engines.
* :mod:`repro.oracle.differential` — the differential harness comparing
  engine output against the reference, plus a dependency-free random
  case generator so the check also runs outside pytest
  (``repro-bgp validate``).
* :mod:`repro.oracle.invariants` — structural invariant checks on
  converged states (loop-free parent chains, valley-free final classes,
  preference stability, blocked-node coherence, cache coherence,
  convergence determinism), callable from tests and at runtime through
  the ``validate=`` flag on :class:`~repro.bgp.engine.RoutingEngine`,
  :class:`~repro.attacks.lab.HijackLab` and
  :class:`~repro.experiments.config.ExperimentConfig`.

The Hypothesis strategy library the property tests draw from lives in
``tests/strategies.py``: nothing under ``src/`` imports Hypothesis.

See ``docs/testing.md`` for how the layers fit together.
"""

from repro.oracle.differential import random_hijack_cases
from repro.oracle.invariants import (
    InvariantViolation,
    check_cache_coherence,
    check_convergence_deterministic,
    check_hijack_result,
    check_route_state,
)
from repro.oracle.reference import ReferenceRoute, ReferenceSimulator

__all__ = [
    "InvariantViolation",
    "ReferenceRoute",
    "ReferenceSimulator",
    "check_cache_coherence",
    "check_convergence_deterministic",
    "check_hijack_result",
    "check_route_state",
    "random_hijack_cases",
]
