"""Golden-figure regression tests: pinned small-topology paper slices.

Recomputes reduced-scale slices of the fig2 (vulnerability by depth),
fig5 (incremental deployment) and fig7 (detector comparison) metrics and
compares them against the pinned fixture in ``golden/small_figures.json``.
The equivalence suites prove that both backends and every fused batch
width agree with the reference kernel
(``tests/property/test_kernel_equivalence.py``,
``tests/property/test_batched_equivalence.py``) and that the engine
agrees with the oracle flood
(``tests/integration/test_engine_equivalence.py``); this layer pins the
*absolute numbers*, so a future perf refactor that changed outcomes
identically everywhere (and thus slipped past equivalence testing) still
cannot silently move paper results.

Tolerance policy (documented per the issue):

* anything countable — pollution counts, attacker counts, severity
  (area under a CCDF), missed-attack counts — is compared **exactly**;
* derived ratios (means, miss rates, improvement factors) are compared
  with a relative tolerance of 1e-9: they are deterministic floats, and
  the slack only forgives benign floating-point reassociation (e.g. a
  future vectorized summation), never a changed outcome.

To regenerate after an *intentional* model change::

    PYTHONPATH=src python tests/integration/test_golden_figures.py --regenerate

and justify the fixture diff in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.attacks.lab import HijackLab
from repro.core.deployment_analysis import compare_strategies
from repro.core.detection_analysis import compare_detectors, paper_probe_sets
from repro.core.roles import resolve_roles
from repro.core.vulnerability import VulnerabilityProfile
from repro.defense.strategies import paper_ladder
from repro.registry.publication import PublicationState
from repro.topology.generator import GeneratorConfig, generate_topology

GOLDEN_PATH = Path(__file__).parent / "golden" / "small_figures.json"

# Small enough to run in seconds, large enough that every paper role
# (deep chains, a tier-2 layer, a small region) exists.
AS_COUNT = 500
SEED = 2014
SWEEP_SAMPLE = 60
DETECTION_ATTACKS = 150
RATIO_TOLERANCE = 1e-9


# Both convergence backends recompute every slice against the same
# pinned numbers: the fixture is backend-independent by the backend
# contract (docs/model.md), so a kernel divergence that slipped past the
# checksum battery would still trip these absolute comparisons.
@pytest.fixture(scope="module", params=["reference", "array"])
def lab(request) -> HijackLab:
    return HijackLab(
        generate_topology(GeneratorConfig.scaled(AS_COUNT, seed=SEED)),
        seed=SEED,
        backend=request.param,
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; regenerate with "
        "PYTHONPATH=src python tests/integration/test_golden_figures.py --regenerate"
    )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def compute_fig2_slice(lab: HijackLab) -> dict:
    roles = resolve_roles(lab.graph)
    slice_data: dict[str, dict] = {}
    for label, target in roles.fig2_targets().items():
        outcomes = lab.sweep_target(target, sample=SWEEP_SAMPLE, seed=SEED)
        profile = VulnerabilityProfile.from_outcomes(
            target, outcomes.values(), label=label
        )
        slice_data[label] = {
            "target": target,
            "attackers": profile.summary.count,
            "max_pollution": profile.summary.maximum,
            "severity": profile.severity(),
            "mean_pollution": profile.summary.mean,
        }
    return slice_data


def compute_fig5_slice(lab: HijackLab) -> dict:
    ladder = paper_ladder(lab.graph, seed=SEED)
    rungs = [ladder[0], ladder[3], ladder[-1]]  # baseline, tier-1, biggest core
    authority = PublicationState.full(lab.plan).table()
    comparison = compare_strategies(
        lab,
        resolve_roles(lab.graph).deep_target,
        rungs,
        authority,
        transit_only=True,
        sample=SWEEP_SAMPLE,
        seed=SEED,
    )
    slice_data: dict[str, dict] = {}
    for evaluation in comparison.evaluations:
        profile = evaluation.profile
        slice_data[evaluation.strategy.name] = {
            "deployers": len(evaluation.strategy),
            "attackers": profile.summary.count,
            "severity": profile.severity(),
            "mean_successful": profile.summary.mean_successful,
        }
    slice_data["improvement_factors"] = comparison.improvement_factors()
    return slice_data


def compute_fig7_slice(lab: HijackLab) -> dict:
    comparison = compare_detectors(
        lab,
        paper_probe_sets(lab, seed=SEED),
        attack_count=DETECTION_ATTACKS,
        seed=SEED,
    )
    return {
        study.detector.probes.name: {
            "missed": int(study.undetected_summary()["missed"]),
            "max_missed_pollution": int(study.undetected_summary()["max_pollution"]),
            "miss_rate": study.miss_rate(),
        }
        for study in comparison.studies
    }


def compute_golden(lab: HijackLab) -> dict:
    return {
        "config": {
            "as_count": AS_COUNT,
            "seed": SEED,
            "sweep_sample": SWEEP_SAMPLE,
            "detection_attacks": DETECTION_ATTACKS,
        },
        "fig2": compute_fig2_slice(lab),
        "fig5": compute_fig5_slice(lab),
        "fig7": compute_fig7_slice(lab),
    }


# -- the tests ---------------------------------------------------------------


def test_golden_config_matches(golden):
    assert golden["config"] == {
        "as_count": AS_COUNT,
        "seed": SEED,
        "sweep_sample": SWEEP_SAMPLE,
        "detection_attacks": DETECTION_ATTACKS,
    }, "test parameters changed — regenerate the golden fixture deliberately"


def test_fig2_slice_matches_golden(lab, golden):
    actual = compute_fig2_slice(lab)
    assert set(actual) == set(golden["fig2"])
    for label, pinned in golden["fig2"].items():
        computed = actual[label]
        # Counts pin exactly; the mean is a ratio (tolerance documented above).
        for key in ("target", "attackers", "max_pollution", "severity"):
            assert computed[key] == pinned[key], (label, key)
        assert computed["mean_pollution"] == pytest.approx(
            pinned["mean_pollution"], rel=RATIO_TOLERANCE
        ), label


def test_fig5_slice_matches_golden(lab, golden):
    actual = compute_fig5_slice(lab)
    assert set(actual) == set(golden["fig5"])
    for name, pinned in golden["fig5"].items():
        computed = actual[name]
        if name == "improvement_factors":
            assert set(computed) == set(pinned)
            for strategy, factor in pinned.items():
                assert computed[strategy] == pytest.approx(
                    factor, rel=RATIO_TOLERANCE
                ), strategy
            continue
        for key in ("deployers", "attackers", "severity"):
            assert computed[key] == pinned[key], (name, key)
        assert computed["mean_successful"] == pytest.approx(
            pinned["mean_successful"], rel=RATIO_TOLERANCE
        ), name


def test_fig7_slice_matches_golden(lab, golden):
    actual = compute_fig7_slice(lab)
    assert set(actual) == set(golden["fig7"])
    for name, pinned in golden["fig7"].items():
        computed = actual[name]
        assert computed["missed"] == pinned["missed"], name
        assert computed["max_missed_pollution"] == pinned["max_missed_pollution"], name
        assert computed["miss_rate"] == pytest.approx(
            pinned["miss_rate"], rel=RATIO_TOLERANCE
        ), name


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("usage: python tests/integration/test_golden_figures.py --regenerate")
    fresh_lab = HijackLab(
        generate_topology(GeneratorConfig.scaled(AS_COUNT, seed=SEED)), seed=SEED
    )
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(fresh_lab), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
