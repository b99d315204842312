"""Drivers for every figure and table in the paper's evaluation.

:class:`ExperimentSuite` materializes the whole evaluation pipeline once —
topology, address plan, role resolution, registry publication — and
exposes one method per paper artifact (``fig1`` … ``fig7``, ``tab1`` …
``tab5``, the Section VII experiments ``nz_rehoming``/``nz_filter``).
Intermediate products (baseline sweeps, the random-attack workload) are
memoized so regenerating all artifacts costs little more than the most
expensive one.

Each method returns an :class:`~repro.experiments.config.ExperimentResult`
carrying the same rows/series the paper reports; charts are rendered to
SVG under the configured output directory.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from repro.attacks.lab import HijackLab
from repro.attacks.scenario import AttackOutcome
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
from repro.core.roles import RoleCatalog, resolve_roles
from repro.core.selfinterest import (
    apply_rehoming,
    plan_rehoming,
    regional_attack_study,
)
from repro.core.vulnerability import VulnerabilityProfile
from repro.defense.deployment import Defense, FilterRule
from repro.defense.strategies import paper_ladder
from repro.experiments.config import ExperimentConfig, ExperimentResult
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.registry.publication import PublicationState
from repro.topology.generator import generate_topology
from repro.viz.charts import Series, bar_line_chart, line_chart
from repro.viz.layout import PolarLayout
from repro.viz.polar import PolarRenderer, render_attack_frames

# Random transit attackers per grid cell and rung of ``attack_matrix``.
MATRIX_ATTACKS = 40

__all__ = ["ExperimentSuite"]


class ExperimentSuite:
    """All paper experiments over one configured topology."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        metrics: Metrics | None = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        with self.metrics.span("suite.topology"):
            self.graph = generate_topology(self.config.topology)
        self.lab = HijackLab(
            self.graph,
            seed=self.config.seed,
            validate=self.config.validate,
            metrics=self.metrics,
            backend=self.config.backend,
        )
        self.roles: RoleCatalog = resolve_roles(self.graph)
        self.publication = PublicationState.full(self.lab.plan)
        self.authority = self.publication.table()
        self._baseline_sweeps: dict[tuple[int, bool], dict[int, AttackOutcome]] = {}
        self._workload: list[AttackOutcome] | None = None
        self._fig7: DetectorComparison | None = None
        self._ladder = None

    # -- shared intermediates ----------------------------------------------------

    def _sweep(self, target_asn: int, *, transit_only: bool) -> dict[int, AttackOutcome]:
        key = (target_asn, transit_only)
        cached = self._baseline_sweeps.get(key)
        if cached is None:
            cached = self.lab.sweep_target(
                target_asn,
                transit_only=transit_only,
                sample=self.config.attacker_sample,
                seed=self.config.seed,
            )
            self._baseline_sweeps[key] = cached
        return cached

    def _profile(self, target_asn: int, label: str, *, transit_only: bool) -> VulnerabilityProfile:
        return VulnerabilityProfile.from_outcomes(
            target_asn,
            self._sweep(target_asn, transit_only=transit_only).values(),
            label=label,
        )

    def ladder(self):
        if self._ladder is None:
            self._ladder = paper_ladder(self.graph, seed=self.config.seed)
        return self._ladder

    def detection_workload(self) -> list[AttackOutcome]:
        if self._workload is None:
            self._workload = self.lab.random_attacks(
                self.config.detection_attacks, transit_only=True, seed=self.config.seed
            )
        return self._workload

    def fig7_comparison(self) -> DetectorComparison:
        if self._fig7 is None:
            self._fig7 = compare_detectors(
                self.lab,
                paper_probe_sets(self.lab, seed=self.config.seed),
                workload=self.detection_workload(),
            )
        return self._fig7

    def _chart_path(self, name: str) -> Path:
        return Path(self.config.output_dir) / "figures" / f"{name}.svg"

    @staticmethod
    def _curve_points(profile: VulnerabilityProfile) -> list[tuple[float, float]]:
        return [(float(x), float(y)) for x, y in profile.curve.points()]

    def _profile_chart(
        self,
        experiment_id: str,
        title: str,
        profiles: list[VulnerabilityProfile],
    ) -> ExperimentResult:
        result = ExperimentResult(experiment_id=experiment_id, title=title)
        for profile in profiles:
            result.series[profile.label] = self._curve_points(profile)
            result.summary[profile.label] = {
                "target": profile.target_asn,
                **profile.summary.as_dict(),
            }
        chart = line_chart(
            [Series.from_pairs(p.label, self._curve_points(p)) for p in profiles],
            title=title,
            x_label="minimum polluted ASes",
            y_label="attackers achieving at least that pollution",
        )
        result.artifacts.append(chart.save(self._chart_path(experiment_id)))
        return result

    # -- FIG1: polar propagation movie --------------------------------------------

    def fig1(self) -> ExperimentResult:
        """Fig. 1: an aggressive low-depth attacker hijacks the deepest,
        most vulnerable target; frames per generation as SVG."""
        attacker = self.roles.aggressive_attacker
        target = self.roles.deep_target
        legit_report, attack_report = self.lab.animate(target, attacker)
        outcome = self.lab.origin_hijack(target, attacker)
        layout = PolarLayout.compute(self.graph, plan=self.lab.plan, view=self.lab.view)
        renderer = PolarRenderer(layout=layout, view=self.lab.view)
        frames = render_attack_frames(
            renderer,
            attack_report,
            Path(self.config.output_dir) / "figures" / "fig1",
            attacker_asn=attacker,
            target_asn=target,
        )
        result = ExperimentResult(
            experiment_id="fig1",
            title="Polar propagation of an origin hijack",
            summary={
                "attacker": attacker,
                "target": target,
                "generations": attack_report.generations,
                "paper_generations": "5-10",
                "polluted_ases": outcome.pollution_count,
                "address_space_fraction": outcome.address_fraction,
                "paper_address_space_fraction": 0.96,
            },
        )
        result.artifacts.extend(frames)
        return result

    # -- FIG2/FIG3: vulnerability by depth -----------------------------------------

    def fig2(self) -> ExperimentResult:
        """Fig. 2: CCDF vulnerability curves for targets at increasing depth
        inside the tier-1 hierarchy (worst case: every AS attacks)."""
        profiles = [
            self._profile(asn, label, transit_only=False)
            for label, asn in self.roles.fig2_targets().items()
        ]
        result = self._profile_chart(
            "fig2", "Vulnerability by depth (tier-1 hierarchy)", profiles
        )
        by_label = {p.label: p.summary.mean for p in profiles}
        tier1 = by_label["tier-1"]
        depth1 = (
            by_label["depth-1 single-homed stub"],
            by_label["depth-1 multi-homed stub"],
        )
        depth2 = by_label["depth-2 stub"]
        deep = max(
            mean for label, mean in by_label.items()
            if label.startswith("depth-") and label.endswith("AS")
        )
        # The paper's ordering: tier-1 < depth-1 (multi-homing is only a
        # slight improvement within the pair) < depth-2 < the deep target.
        result.summary["depth_ordering_holds"] = (
            tier1 < min(depth1)
            and max(depth1) <= depth2 * 1.05
            and depth2 <= deep * 1.05
        )
        return result

    def fig3(self) -> ExperimentResult:
        """Fig. 3: the same roles under a tier-2 hierarchy; the curves line
        up with Fig. 2's, motivating the redefined depth metric."""
        profiles = [
            self._profile(asn, label, transit_only=False)
            for label, asn in self.roles.fig3_targets().items()
        ]
        return self._profile_chart(
            "fig3", "Vulnerability by depth (tier-2 hierarchy)", profiles
        )

    # -- FIG4: defensive stub filtering ------------------------------------------------

    def fig4(self) -> ExperimentResult:
        """Fig. 4: worst-case vs stub-filtered (transit-only attackers) for
        the depth-1 and deep targets; filtering scales curves down but
        preserves their shape.

        The worst-case sweep is stratified: it reuses the transit-only
        attacker sample and adds sampled stub attackers, so the filtered
        outcome set is a strict subset of the worst-case one (as it is in
        the paper's exhaustive sweeps).
        """
        from repro.topology.classify import stub_asns

        stubs = sorted(stub_asns(self.graph))

        def stratified(target_asn: int, label_all: str, label_filtered: str):
            transit_outcomes = self._sweep(target_asn, transit_only=True)
            stub_sample = self.config.attacker_sample
            stub_outcomes = self.lab.sweep_target(
                target_asn,
                attackers=stubs,
                sample=stub_sample,
                seed=self.config.seed,
            )
            combined = {**stub_outcomes, **transit_outcomes}
            return (
                VulnerabilityProfile.from_outcomes(
                    target_asn, combined.values(), label=label_all
                ),
                VulnerabilityProfile.from_outcomes(
                    target_asn, transit_outcomes.values(), label=label_filtered
                ),
            )

        depth1_all, depth1_filtered = stratified(
            self.roles.depth1_multi_stub, "depth-1, all attackers",
            "depth-1, stub-filtered",
        )
        deep_all, deep_filtered = stratified(
            self.roles.deep_target, "deep target, all attackers",
            "deep target, stub-filtered",
        )
        profiles = [depth1_all, depth1_filtered, deep_all, deep_filtered]
        result = self._profile_chart(
            "fig4", "Effect of defensive stub filters", profiles
        )
        result.summary["shape_preserved"] = (
            depth1_filtered.summary.maximum <= depth1_all.summary.maximum
            and deep_filtered.summary.maximum <= deep_all.summary.maximum
            and depth1_filtered.summary.count <= depth1_all.summary.count
        )
        return result

    # -- FIG5/FIG6: incremental deployment ------------------------------------------------

    def _deployment_figure(
        self, experiment_id: str, title: str, target_asn: int
    ) -> tuple[ExperimentResult, DeploymentComparison]:
        comparison = compare_strategies(
            self.lab,
            target_asn,
            self.ladder(),
            self.authority,
            transit_only=True,
            sample=self.config.attacker_sample,
            seed=self.config.seed,
        )
        result = ExperimentResult(experiment_id=experiment_id, title=title)
        profiles = []
        for evaluation in comparison.evaluations:
            profile = evaluation.profile
            profiles.append(profile)
            result.series[profile.label] = self._curve_points(profile)
            result.summary[profile.label] = {
                "deployers": len(evaluation.strategy),
                **profile.summary.as_dict(),
            }
        crossover = comparison.crossover()
        result.summary["crossover_strategy"] = (
            crossover.strategy.name if crossover else None
        )
        result.summary["improvement_factors"] = comparison.improvement_factors()
        chart = line_chart(
            [Series.from_pairs(p.label, self._curve_points(p)) for p in profiles],
            title=title,
            x_label="minimum polluted ASes",
            y_label="attackers achieving at least that pollution",
        )
        result.artifacts.append(chart.save(self._chart_path(experiment_id)))
        return result, comparison

    def fig5(self) -> ExperimentResult:
        """Fig. 5: the deployment ladder against the attack-resistant
        depth-1 target (AS98 analogue)."""
        result, _ = self._deployment_figure(
            "fig5",
            "Incremental filtering — resistant depth-1 target",
            self.roles.depth1_multi_stub,
        )
        return result

    def fig6(self) -> ExperimentResult:
        """Fig. 6: the same ladder against the very vulnerable deep target
        (AS55857 analogue)."""
        result, _ = self._deployment_figure(
            "fig6",
            "Incremental filtering — vulnerable deep target",
            self.roles.deep_target,
        )
        return result

    # -- TAB1/TAB2: still-potent attacks --------------------------------------------------

    def _potent_table(self, experiment_id: str, target_asn: int, label: str) -> ExperimentResult:
        strategy = self.ladder()[-1]  # the largest deployment (core-299)
        attacks = top_potent_attacks(
            self.lab,
            target_asn,
            strategy,
            self.authority,
            transit_only=True,
            sample=self.config.attacker_sample,
            seed=self.config.seed,
        )
        result = ExperimentResult(
            experiment_id=experiment_id,
            title=f"Top still-potent attacks vs {label} under {strategy.name}",
            summary={"target": target_asn, "strategy": strategy.name},
            tables={"potent_attacks": [asdict(attack) for attack in attacks]},
        )
        return result

    def tab1(self) -> ExperimentResult:
        """Section V table: top-5 attacks still potent against the
        resistant target at maximum deployment."""
        return self._potent_table("tab1", self.roles.depth1_multi_stub, "depth-1 target")

    def tab2(self) -> ExperimentResult:
        """Section V table: the same for the vulnerable deep target."""
        return self._potent_table("tab2", self.roles.deep_target, "deep target")

    # -- FIG7 + TAB3..5: detection -----------------------------------------------------------

    def fig7(self) -> ExperimentResult:
        """Fig. 7: three detector configurations over one random-attack
        workload; histogram of probes triggered + mean attack size."""
        comparison = self.fig7_comparison()
        result = ExperimentResult(
            experiment_id="fig7",
            title="Detector configurations vs random attacks",
            summary={
                "attacks": comparison.workload_size,
                "paper_miss_rates": {
                    "tier1": 0.34,
                    "bgpmon": 0.11,
                    "top-degree-62": 0.03,
                },
            },
        )
        for study in comparison.studies:
            name = study.detector.probes.name
            histogram = study.histogram()
            means = study.mean_size_by_probe_count()
            result.series[f"{name}/histogram"] = [
                (float(bucket), float(count)) for bucket, count in histogram.items()
            ]
            result.series[f"{name}/mean_size"] = [
                (float(bucket), float(mean)) for bucket, mean in means.items()
            ]
            result.summary[name] = study.undetected_summary()
            chart = bar_line_chart(
                histogram,
                means,
                title=f"Detection with probes: {name}",
                x_label="number of probes triggered (0 = undetected)",
                bar_label="attacks",
                line_label="mean attack size",
            )
            result.artifacts.append(self._chart_path(f"fig7_{name}"))
            chart.save(result.artifacts[-1])
        result.summary["ordering_matches_paper"] = (
            comparison.worst().detector.probes.name.startswith("tier1")
            and comparison.best().detector.probes.name.startswith("top-degree")
        )
        return result

    def _undetected_table(self, experiment_id: str, index: int) -> ExperimentResult:
        study = self.fig7_comparison().studies[index]
        rows = [asdict(attack) for attack in study.top_undetected()]
        return ExperimentResult(
            experiment_id=experiment_id,
            title=f"Top undetected attacks — {study.detector.probes.name}",
            summary=study.undetected_summary(),
            tables={"undetected": rows},
        )

    def tab3(self) -> ExperimentResult:
        """Section VI: top undetected attacks with 17 tier-1 probes."""
        return self._undetected_table("tab3", 0)

    def tab4(self) -> ExperimentResult:
        """Section VI: top undetected attacks with the BGPmon-like probes."""
        return self._undetected_table("tab4", 1)

    def tab5(self) -> ExperimentResult:
        """Section VI: top undetected attacks with the 62 top-degree probes."""
        return self._undetected_table("tab5", 2)

    # -- Section VII: the New-Zealand-style experiments ---------------------------------------

    def _nz_region(self) -> str:
        regions = self.graph.regions()
        return min(regions, key=lambda region: len(regions[region]))

    def nz_rehoming(self) -> ExperimentResult:
        """EXP-NZ1: re-home the deep regional target up two provider levels
        and measure average regional pollution before/after."""
        region = self._nz_region()
        target = self.roles.deep_target
        if self.graph.region_of(target) != region:
            members = self.graph.regions()[region]
            from repro.topology.classify import effective_depth

            depth = effective_depth(self.graph)
            target = max(members, key=lambda asn: (depth.get(asn, 0), -asn))
        before = regional_attack_study(
            self.lab, target, region,
            external_sample=self.config.external_sample, seed=self.config.seed,
        )
        plan = plan_rehoming(self.graph, target)
        after = before
        if plan is not None:
            rehomed_lab = HijackLab(
                apply_rehoming(self.graph, plan),
                plan=self.lab.plan, policy=self.lab.policy, seed=self.config.seed,
                validate=self.config.validate,
                metrics=self.metrics, backend=self.config.backend,
            )
            after = regional_attack_study(
                rehomed_lab, target, region,
                external_sample=self.config.external_sample, seed=self.config.seed,
            )
        return ExperimentResult(
            experiment_id="nz_rehoming",
            title="Section VII: re-homing the vulnerable regional target",
            summary={
                "region": region,
                "region_size": before.region_size,
                "target": target,
                "rehoming": asdict(plan) if plan else None,
                "regional_fraction_before": before.regional_fraction,
                "regional_fraction_after": after.regional_fraction,
                "external_fraction_before": before.external_fraction,
                "external_fraction_after": after.external_fraction,
                "paper": {
                    "regional_before": 0.60, "regional_after": 0.25,
                    "external_before": 0.15, "external_after": 0.06,
                },
            },
        )

    def nz_filter(self) -> ExperimentResult:
        """EXP-NZ2: a single prefix filter at the regional hub."""
        region = self._nz_region()
        target = self.roles.deep_target
        from repro.core.selfinterest import assess_region

        assessment = assess_region(self.graph, region)
        if self.graph.region_of(target) != region:
            target = assessment.deepest()
        rule = FilterRule(
            filtering_asn=assessment.hub_asn,
            prefix=self.lab.target_prefix(target),
            allowed_origins=frozenset({target}),
        )
        before = regional_attack_study(
            self.lab, target, region,
            external_sample=self.config.external_sample, seed=self.config.seed,
        )
        filtered_lab = self.lab.with_defense(Defense(manual_filters=(rule,)))
        after = regional_attack_study(
            filtered_lab, target, region,
            external_sample=self.config.external_sample, seed=self.config.seed,
        )
        return ExperimentResult(
            experiment_id="nz_filter",
            title="Section VII: one prefix filter at the regional hub",
            summary={
                "region": region,
                "target": target,
                "hub": assessment.hub_asn,
                "regional_fraction_before": before.regional_fraction,
                "regional_fraction_after": after.regional_fraction,
                "external_fraction_before": before.external_fraction,
                "external_fraction_after": after.external_fraction,
                "paper": {"regional_after": 0.40, "external_after": 0.14},
            },
        )

    # -- extension: sub-prefix hijacks ----------------------------------------------------------

    def ext_subprefix(self) -> ExperimentResult:
        """EXT-SUB: sub-prefix vs origin hijacks (the paper's future work).

        A more-specific announcement has no legitimate competitor, so
        longest-prefix match hands the attacker *everything it reaches* —
        filtering by route preference cannot help, only origin validation
        (with exact-length ROAs / RLOCKed reverse DNS) can. This extension
        quantifies both statements on the same attacker sample.
        """
        target = self.roles.deep_target
        rng_sample = self.config.attacker_sample or 200
        attackers = self.lab.sweep_target(
            target, transit_only=True,
            sample=min(rng_sample, 300), seed=self.config.seed,
        )
        origin_counts = []
        sub_counts = []
        defended = self.lab.with_defense(
            Defense(
                strategy=self.ladder()[-1],  # core-299
                authority=self.authority,
            )
        )
        blocked_sub_counts = []
        for attacker_asn, outcome in attackers.items():
            origin_counts.append(outcome.pollution_count)
            sub = self.lab.subprefix_hijack(target, attacker_asn)
            sub_counts.append(sub.pollution_count)
            blocked_sub_counts.append(
                defended.subprefix_hijack(target, attacker_asn).pollution_count
            )
        from repro.util.ccdf import describe

        origin_stats = describe(origin_counts)
        sub_stats = describe(sub_counts)
        blocked_stats = describe(blocked_sub_counts)
        dominance = sum(
            1 for o, s in zip(origin_counts, sub_counts) if s >= o
        ) / max(1, len(origin_counts))
        return ExperimentResult(
            experiment_id="ext_subprefix",
            title="Extension: sub-prefix hijacks vs origin hijacks",
            summary={
                "target": target,
                "attackers": len(origin_counts),
                "origin_hijack": origin_stats.as_dict(),
                "subprefix_hijack": sub_stats.as_dict(),
                "subprefix_with_core299_rov": blocked_stats.as_dict(),
                "subprefix_dominates_fraction": dominance,
            },
        )

    # -- extension: the full attack taxonomy matrix ---------------------------------------------

    def attack_matrix(self) -> ExperimentResult:
        """EXT-MATRIX: every grid cell of the attack taxonomy against the
        deployment ladder (docs/attacks.md walks the expected shape).

        Each of the 13 (prefix axis × path axis) cells is swept with the
        same ``MATRIX_ATTACKS`` random transit attackers against the deep
        target, under three deployment rungs (undefended, the smallest
        ladder rung, the largest). Two detector configurations judge every
        outcome — ROV only (``roa``) and full path-aware (``full``: ROAs +
        declared neighbors + topology) — so the table quantifies both the
        pollution each defense prevents and the cells origin validation
        provably cannot classify (type-1's valid claimed origin).
        """
        from repro.detection.detector import HijackDetector
        from repro.detection.probes import top_degree_probes
        from repro.detection.taxonomy import grid_cells
        from repro.registry.neighbors import NeighborRegistry

        target = self.roles.deep_target
        sample = MATRIX_ATTACKS
        ladder = self.ladder()
        rungs: list = [None, ladder[0], ladder[-1]]
        neighbors = NeighborRegistry.from_graph(self.graph)
        probes = top_degree_probes(self.graph, count=62)
        detectors = {
            "roa": HijackDetector(probes=probes, authority=self.authority),
            "full": HijackDetector(
                probes=probes, authority=self.authority,
                neighbors=neighbors, relationships=self.graph,
            ),
        }
        rows: list[dict[str, object]] = []
        for kind, path_kind in grid_cells():
            for rung in rungs:
                defense = (
                    Defense()
                    if rung is None
                    else Defense(strategy=rung, authority=self.authority)
                )
                lab = self.lab.with_defense(defense)
                outcomes = lab.sweep_target(
                    target,
                    transit_only=True,
                    sample=sample,
                    seed=self.config.seed,
                    kind=kind,
                    path_kind=path_kind,
                    forged_depth=2,
                )
                launched = [o for o in outcomes.values() if o.claimed_path]
                pollution = [o.pollution_count for o in launched]
                mean_pollution = (
                    sum(pollution) / len(pollution) if pollution else 0.0
                )
                row: dict[str, object] = {
                    "kind": kind.value,
                    "path_kind": path_kind.value,
                    "strategy": rung.name if rung is not None else "none",
                    "attacks": len(outcomes),
                    "launched": len(launched),
                    "mean_pollution": round(mean_pollution, 2),
                }
                for name, detector in detectors.items():
                    reports = [detector.observe(o) for o in launched]
                    detected = sum(1 for r in reports if r.detected)
                    row[f"detected_{name}"] = (
                        round(detected / len(reports), 3) if reports else 0.0
                    )
                rows.append(row)
        result = ExperimentResult(
            experiment_id="attack_matrix",
            title="Extension: attack taxonomy × deployment matrix",
            summary={
                "target": target,
                "cells": len(grid_cells()),
                "attacks_per_cell": sample,
                "strategies": [
                    "none" if rung is None else rung.name for rung in rungs
                ],
            },
            tables={"matrix": rows},
        )
        by_cell = {
            (row["kind"], row["path_kind"], row["strategy"]): row for row in rows
        }
        undefended_origin = by_cell[("origin", "type-1", "none")]
        # The headline claim: ROV cannot classify a type-1 origin hijack
        # (valid claimed origin), the path-aware detector can.
        result.summary["rov_type1_blind_spot"] = bool(
            undefended_origin["launched"]
            and undefended_origin["detected_roa"] < undefended_origin["detected_full"]
        )
        return result

    # -- extension: the always-on monitoring service --------------------------------------------

    def service_latency(self) -> ExperimentResult:
        """EXT-SERVICE: the live monitoring daemon vs the offline monitor.

        The full 13-cell taxonomy campaign against the deep target is
        serialized to the JSONL wire format and pushed through the
        multi-tenant :class:`~repro.service.daemon.MonitorService` core
        (ingest → replay → verdict poll), measuring ingest throughput and
        the wall-clock arrive→verdict latency. The run is then checked
        for **parity** against the offline reference — one
        :class:`~repro.stream.replay.StreamReplayer` +
        :class:`~repro.stream.monitor.OnlineMonitor` with the same
        probes and the full path-aware detector — on every alarm's full
        payload, in order: the service plumbing must change wall-clock
        only, never verdicts.
        """
        import json as _json
        import time as _time

        from repro.detection.detector import HijackDetector
        from repro.detection.probes import top_degree_probes
        from repro.detection.taxonomy import grid_cells
        from repro.registry.neighbors import NeighborRegistry
        from repro.service.daemon import MonitorService
        from repro.service.tenants import LatencyStats
        from repro.stream.events import RoaPublish, compile_scenario, event_to_dict
        from repro.stream.replay import StreamReplayer
        from repro.util.rng import make_rng

        target = self.roles.deep_target
        probes = top_degree_probes(self.graph, count=62)
        rng = make_rng(self.config.seed, "service-latency")
        target_node = self.lab.view.node_of(target)
        pool = [
            asn
            for asn in self.lab.attacker_pool(transit_only=True)
            if self.lab.view.node_of(asn) != target_node
        ]
        attackers = rng.sample(pool, min(len(pool), len(grid_cells())))

        events = []
        for index, (kind, path_kind) in enumerate(grid_cells()):
            scenario = self.lab.build_scenario(
                target,
                attackers[index % len(attackers)],
                kind=kind,
                path_kind=path_kind,
            )
            events.extend(
                compile_scenario(scenario, start=float(index * 4), dwell=2.0)
            )
        events.sort(key=lambda event: event.at)
        lines = [
            _json.dumps(event_to_dict(event), sort_keys=True, separators=(",", ":"))
            for event in events
        ]
        victim_prefix = self.lab.target_prefix(target)

        # The offline reference: one replayer, one monitor, the same
        # full-ladder detector, fed the tenant's ROA before the stream.
        reference = StreamReplayer(
            self.lab,
            detector=HijackDetector(
                probes,
                neighbors=NeighborRegistry.from_graph(self.graph),
                relationships=self.graph,
            ),
            metrics=self.metrics,
        )
        reference.submit(RoaPublish(at=0.0, prefix=victim_prefix, origin_asn=target))
        offline = reference.run(events).monitor
        assert offline is not None

        service = MonitorService(self.lab, probes=probes, metrics=self.metrics)
        service.register("victim", victim_prefix, target)
        latencies = LatencyStats()
        started = _time.perf_counter()
        for line in lines:
            arrived = _time.perf_counter()
            service.ingest_line(line)
            for _ in service.poll():
                latencies.add(_time.perf_counter() - arrived)
        elapsed = _time.perf_counter() - started
        # One tenant, so each alarm is exactly one verdict.
        parity = [v.alarm.as_dict() for v in service.verdicts] == [
            alarm.as_dict() for alarm in offline.alarms
        ]
        row = {
            "events_per_s": round(service.plane.ingested / max(elapsed, 1e-9), 1),
            "verdicts": len(service.verdicts),
            "latency_p50_ms": round((latencies.percentile(0.50) or 0.0) * 1000, 3),
            "latency_p95_ms": round((latencies.percentile(0.95) or 0.0) * 1000, 3),
            "parity_with_offline": parity,
        }
        return ExperimentResult(
            experiment_id="service_latency",
            title="Extension: always-on service vs offline monitor",
            summary={
                "target": target,
                "cells": len(grid_cells()),
                "stream_events": len(events),
                "offline_alarms": len(offline.alarms),
                "parity_with_offline": parity,
            },
            tables={"service": [row]},
        )

    # -- everything ---------------------------------------------------------------------------

    def run(self, name: str) -> ExperimentResult:
        """Run one experiment by name under a ``suite.<name>`` span."""
        with self.metrics.span(f"suite.{name}"):
            result: ExperimentResult = getattr(self, name)()
        self.metrics.count("suite.experiments")
        return result
