"""Experiment configuration and shared result shapes.

One :class:`ExperimentConfig` pins everything an experiment needs —
topology, seed, sweep sample sizes, output directory — so that every
figure and table of the paper regenerates deterministically from a single
value. Results come back as :class:`ExperimentResult`, a uniform shape the
sqlite store, the report generator and the CLI all share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.topology.generator import GeneratorConfig

__all__ = ["ExperimentConfig", "ExperimentResult"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``attacker_sample`` bounds the attacker count per vulnerability sweep
    (the paper attacks from all 42,696 ASes; ``None`` reproduces that
    exhaustively, the default keeps a full figure under a minute at
    indistinguishable curve shape). ``detection_attacks`` is the Fig. 7
    workload size (paper: 8,000). ``validate`` arms
    the runtime invariant checker (:mod:`repro.oracle.invariants`) on every
    convergence the experiments run — a correctness tripwire for long
    unattended runs, off by default because it costs roughly one extra
    pass over the topology per convergence. ``backend`` selects the
    convergence kernel (``"reference"`` or ``"array"``); both are
    checksum-identical, so it changes wall-clock only, never a result
    (see the Backends section of docs/performance.md). The fused sweep
    width is the lab's own constant, not a setting, and so is the
    attack matrix's per-cell sample (``suite.MATRIX_ATTACKS``).
    """

    topology: GeneratorConfig = field(default_factory=GeneratorConfig)
    seed: int = 2014
    output_dir: Path = Path("results")
    attacker_sample: int | None = 1200
    detection_attacks: int = 8000
    external_sample: int = 200
    validate: bool = False
    backend: str = "reference"


@dataclass
class ExperimentResult:
    """One reproduced figure or table.

    ``series`` maps curve labels to ``(x, y)`` points; ``tables`` maps
    table names to row dicts; ``summary`` carries the headline numbers
    compared against the paper in EXPERIMENTS.md; ``artifacts`` lists
    rendered SVG files.
    """

    experiment_id: str
    title: str
    summary: dict[str, object] = field(default_factory=dict)
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    tables: dict[str, list[dict[str, object]]] = field(default_factory=dict)
    artifacts: list[Path] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "summary": self.summary,
            "series": {
                label: [[x, y] for x, y in points]
                for label, points in self.series.items()
            },
            "tables": self.tables,
            "artifacts": [str(path) for path in self.artifacts],
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=str)

    def save_json(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id}.json"
        path.write_text(self.to_json(), encoding="utf-8")
        return path
