"""repro — reproduction of "Incremental Deployment Strategies for Effective
Detection and Prevention of BGP Origin Hijacks" (Gersch, Massey,
Papadopoulos; ICDCS 2014).

The package layers:

* :mod:`repro.prefixes` — IPv4 prefixes, longest-prefix matching, address plans
* :mod:`repro.topology` — AS graph, CAIDA I/O, synthetic generator
* :mod:`repro.bgp` — policy model, convergence statistics, fast engine
* :mod:`repro.attacks` — hijack scenarios, attacker sweeps and the
  lab's convergence cache
* :mod:`repro.obs` — runtime metrics (counters, gauges, spans)
* :mod:`repro.oracle` — the reference flood (the one generation-stepped
  simulator), the differential harness and invariant checks
* :mod:`repro.registry` — ROA tables, route-origin publication, history
* :mod:`repro.defense` — filtering / origin-validation deployment
* :mod:`repro.detection` — hijack-detector probe analysis
* :mod:`repro.core` — the paper's analyses (vulnerability, deployment,
  detection, self-interest planning)
* :mod:`repro.viz` — polar propagation graphs and SVG charts
* :mod:`repro.experiments` — figure/table drivers and the result store
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
