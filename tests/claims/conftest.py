"""The paper's qualitative claims, asserted at 4,270 ASes (1/10 CAIDA).

Every module under ``tests/claims/`` reads one session-scoped
:class:`ExperimentSuite` built from the constants below — the defaults of
``repro-bgp figure`` — and asserts the shape statements the paper makes:
who wins, by roughly what factor. The constants are fixed on purpose; to
run the same experiments at another scale use ``repro-bgp figure
--as-count/--sample/--attacks/--seed`` or ``repro-bgp report``.

Artifacts go to a temporary directory, so running the claims never
touches the committed ``results/``.
"""

from __future__ import annotations

import functools

import pytest

from repro.experiments.config import ExperimentConfig, ExperimentResult
from repro.experiments.suite import ExperimentSuite
from repro.topology.generator import GeneratorConfig

AS_COUNT = 4270
SEED = 2014


@pytest.fixture(scope="session")
def suite(tmp_path_factory) -> ExperimentSuite:
    return ExperimentSuite(
        ExperimentConfig(
            topology=GeneratorConfig.scaled(AS_COUNT, seed=SEED),
            seed=SEED,
            output_dir=tmp_path_factory.mktemp("claims"),
            attacker_sample=1200,
            detection_attacks=8000,
            external_sample=200,
        )
    )


@pytest.fixture(scope="session")
def experiment(suite):
    """``suite.run`` memoized: each driver runs once per session, however
    many claims read its result."""
    return functools.cache(suite.run)


def curves(result: ExperimentResult) -> dict[str, dict]:
    """The per-curve summary stats of a figure, by curve label."""
    return {
        label: stats
        for label, stats in result.summary.items()
        if isinstance(stats, dict) and "mean" in stats
    }


def first(mapping: dict, prefix: str):
    """The value of the first key starting with *prefix* (strategy and
    probe-set names carry their size, e.g. ``tier1-17``)."""
    return next(value for key, value in mapping.items() if key.startswith(prefix))
