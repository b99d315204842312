"""The paper's analyses: vulnerability, deployment, detection, self-interest."""

from repro.core.deployment_analysis import (
    DeploymentComparison,
    compare_strategies,
    top_potent_attacks,
)
from repro.core.detection_analysis import (
    DetectorComparison,
    compare_detectors,
    paper_probe_sets,
)
from repro.core.churn import (
    sample_transfers,
    stale_history_study,
)
from repro.core.roles import RoleCatalog, resolve_roles
from repro.core.selfinterest import (
    SelfInterestPlanner,
    apply_rehoming,
    assess_region,
    plan_rehoming,
    regional_attack_study,
)
from repro.core.vulnerability import (
    VulnerabilityProfile,
    attacker_aggressiveness,
    correlate_target_metrics,
    profile_target,
)

__all__ = [
    "sample_transfers",
    "stale_history_study",
    "DeploymentComparison",
    "DetectorComparison",
    "RoleCatalog",
    "SelfInterestPlanner",
    "VulnerabilityProfile",
    "apply_rehoming",
    "assess_region",
    "attacker_aggressiveness",
    "compare_detectors",
    "compare_strategies",
    "correlate_target_metrics",
    "paper_probe_sets",
    "plan_rehoming",
    "profile_target",
    "regional_attack_study",
    "resolve_roles",
    "top_potent_attacks",
]
