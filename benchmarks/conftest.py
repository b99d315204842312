"""Benchmark harness configuration.

Each ``bench_*`` module regenerates one table or figure from the paper's
evaluation: it runs the experiment (timed once through pytest-benchmark),
prints the same rows/series the paper reports, renders the SVG artifact
under ``results/``, records the run into the sqlite result store, and
asserts the paper's qualitative shape (who wins, by roughly what factor).

Scale knobs (environment variables):

``REPRO_BENCH_AS_COUNT``      topology size        (default 4270 — 1/10 CAIDA)
``REPRO_BENCH_SAMPLE``        attackers per sweep  (default 1200; 0 = exhaustive)
``REPRO_BENCH_ATTACKS``       Fig. 7 workload size (default 8000, as the paper)
``REPRO_BENCH_SEED``          experiment seed      (default 2014)

Every ``bench_*`` module reads its knobs from here — nothing else in
``benchmarks/`` (outside ``benchmarks/e2e/``) touches ``os.environ`` —
so one table lists every way a run can be scaled. Wall-clock is measured
by ``benchmarks/e2e`` alone (docs/performance.md, "How to measure").

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.store import ResultStore
from repro.experiments.suite import ExperimentSuite
from repro.obs import Metrics
from repro.topology.generator import GeneratorConfig
from repro.util.tables import render_table


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return default if value in (None, "") else int(value)


AS_COUNT = _env_int("REPRO_BENCH_AS_COUNT", 4270)
SAMPLE = _env_int("REPRO_BENCH_SAMPLE", 1200) or None
ATTACKS = _env_int("REPRO_BENCH_ATTACKS", 8000)
SEED = _env_int("REPRO_BENCH_SEED", 2014)
RESULTS_DIR = Path(os.environ.get("REPRO_BENCH_RESULTS", "results"))


@pytest.fixture(scope="session")
def bench_metrics() -> Metrics:
    """One shared metrics sink for the whole benchmark session."""
    return Metrics()


@pytest.fixture(scope="session")
def suite(bench_metrics) -> ExperimentSuite:
    config = ExperimentConfig(
        topology=GeneratorConfig.scaled(AS_COUNT, seed=SEED),
        seed=SEED,
        output_dir=RESULTS_DIR,
        attacker_sample=SAMPLE,
        detection_attacks=ATTACKS,
        external_sample=200,
    )
    return ExperimentSuite(config, metrics=bench_metrics)


@pytest.fixture(scope="session")
def store() -> ResultStore:
    with ResultStore(RESULTS_DIR / "runs.sqlite") as result_store:
        yield result_store


@pytest.fixture
def run_experiment(suite, store, benchmark):
    """Time one suite method, persist its result, and return it.

    Runs through :meth:`ExperimentSuite.run`, so every timed experiment
    also lands as a ``suite.<name>`` span in the session's metrics sink.
    """

    def runner(name: str):
        result = benchmark.pedantic(
            suite.run, args=(name,), rounds=1, iterations=1
        )
        result.save_json(RESULTS_DIR / "data")
        store.record(
            result,
            params={
                "as_count": AS_COUNT,
                "sample": SAMPLE,
                "attacks": ATTACKS,
                "seed": SEED,
            },
        )
        return result

    return runner


def print_summary_table(result, *, series_stat_keys=("mean", "maximum")) -> None:
    """Print per-curve summary rows in the paper's vocabulary."""
    rows = []
    for label, stats in result.summary.items():
        if isinstance(stats, dict) and "mean" in stats:
            rows.append(
                (label, *(round(stats[key], 1) for key in series_stat_keys))
            )
    if rows:
        print()
        print(render_table(("curve", *series_stat_keys), rows, title=result.title))
