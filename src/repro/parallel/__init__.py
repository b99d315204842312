"""Convergence caching.

Half of every attack in a sweep (the legitimate baseline convergence) is
shared across attacks: :class:`ConvergenceCache` memoizes clean
baselines per (topology digest, policy, origin). ``docs/performance.md``
describes the design and its guarantees.
"""

from repro.parallel.cache import ConvergenceCache

__all__ = ["ConvergenceCache"]
