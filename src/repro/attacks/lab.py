"""The hijack laboratory: one facade over topology, routing and defense.

:class:`HijackLab` is the main entry point of the library. It compiles a
topology once, caches legitimate routing states per target (they are
attacker-independent, which is what makes the paper's 42,696-attacker
sweeps tractable), applies a :class:`~repro.defense.Defense`, and returns
:class:`~repro.attacks.scenario.AttackOutcome` objects ready for the
analysis layer.

    lab = HijackLab(generate_topology())
    outcome = lab.origin_hijack(target_asn=4000, attacker_asn=23)
    print(outcome.pollution_count)

Sweeps run in this process through one batch entry point,
:meth:`HijackLab.run_scenarios`; ``batch_origins=K`` fuses K scenarios
per convergence pass on the array backend. Results are bit-identical
for every K, in the same order; see ``docs/performance.md``.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.attacks.scenario import (
    AttackOutcome,
    HijackKind,
    HijackScenario,
    PathKind,
    synthetic_forged_path,
)
from repro.bgp.engine import RouteState, RoutingEngine
from repro.bgp.policy import PolicyConfig
from repro.defense.deployment import Defense
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.parallel.cache import ConvergenceCache
from repro.prefixes.addressing import AddressPlan
from repro.prefixes.prefix import Prefix
from repro.topology.asgraph import ASGraph
from repro.topology.classify import transit_asns
from repro.topology.generator import default_address_plan
from repro.topology.view import RoutingView
from repro.util.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from numpy import ndarray

    from repro.defense.strategies import DeploymentStrategy
    from repro.oracle.reference import PropagationReport
    from repro.registry.roa import OriginAuthority

__all__ = ["HijackLab"]


class _Without(Sequence[int]):
    """A sorted *pool* minus the *excluded* values it holds, by index.

    Finding the few excluded positions is one bisection each, so a
    sample of a large pool never walks the whole pool.
    """

    def __init__(self, pool: Sequence[int], excluded: Iterable[int]) -> None:
        self._pool = pool
        skipped = []
        for value in excluded:
            index = bisect_left(pool, value)
            if index < len(pool) and pool[index] == value:
                skipped.append(index)
        self._skipped = sorted(skipped)

    def __len__(self) -> int:
        return len(self._pool) - len(self._skipped)

    def __getitem__(self, index: int) -> int:  # type: ignore[override]
        if not 0 <= index < len(self):
            raise IndexError(index)
        for skipped in self._skipped:
            if skipped > index:
                break
            index += 1
        return self._pool[index]


class HijackLab:
    """Runs hijack scenarios against one topology under one defense."""

    def __init__(
        self,
        graph: ASGraph,
        *,
        plan: AddressPlan | None = None,
        policy: PolicyConfig | None = None,
        defense: Defense | None = None,
        seed: int = 0,
        cache: ConvergenceCache | None = None,
        validate: bool = False,
        metrics: Metrics | None = None,
        backend: str = "reference",
        batch_origins: int = 1,
    ) -> None:
        if batch_origins < 1:
            raise ValueError("batch_origins must be >= 1")
        self.graph = graph
        self.plan = plan if plan is not None else default_address_plan(graph, seed=seed)
        self.policy = policy or PolicyConfig()
        self.defense = defense or Defense()
        self.seed = seed
        self.validate = validate
        self.backend = backend
        # Scenarios per fused converge_batch call (docs/performance.md,
        # "Batched multi-origin convergence"). 1 = the scalar per-scenario
        # path, byte-identical outcomes either way.
        self.batch_origins = batch_origins
        # One metrics sink flows through everything the lab drives —
        # engine convergences, cache lookups, sweep spans
        # (see docs/performance.md); the default NULL_METRICS is a no-op.
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.view = RoutingView.from_graph(graph)
        # validate=True turns on the runtime invariant checker after every
        # convergence and per-hit cache verification (see docs/testing.md);
        # the default path is unchanged.
        self.engine = RoutingEngine(
            self.view,
            self.policy,
            validate=validate,
            metrics=self.metrics,
            backend=backend,
        )
        self.cache = (
            cache
            if cache is not None
            else ConvergenceCache(verify=validate, metrics=self.metrics)
        )
        # Lazily built lookup tables (per-node address space, attacker
        # pools). with_defense clones share the dict itself, so a table
        # built through any of them is built for all.
        self._tables: dict[object, object] = {}

    # -- configuration -----------------------------------------------------------

    def with_defense(self, defense: Defense) -> "HijackLab":
        """A lab sharing this one's topology/plan but a different defense.

        The convergence cache is shared state-free (legit routing does
        not depend on the defense, which only drops *bogus* routes), so the
        clone re-uses it — a deployment-ladder comparison converges each
        baseline exactly once across every rung.
        """
        clone = copy.copy(self)
        clone.defense = defense
        return clone

    # -- internals -----------------------------------------------------------------

    def _legitimate_state(self, target_node: int) -> RouteState:
        return self.cache.baseline(self.engine, target_node)

    def _first_hop_filtered(self, attacker_asn: int) -> bool:
        """Defensive stub filters stop a *stub* attacker's announcements to
        its providers (the attack can still leak through peer links)."""
        return self.defense.stub_filter and not self.graph.customers(attacker_asn)

    def _node_space(self) -> "ndarray":
        """Address space originated behind each routing node (int64),
        built from the plan (fixed once built) on first use."""
        space = self._tables.get("node_space")
        if space is None:
            import numpy as np  # lazy, as in _pollution

            space_of = self.plan.address_space_of
            space = self._tables["node_space"] = np.fromiter(
                (sum(map(space_of, group)) for group in self.view.members),
                dtype=np.int64,
                count=len(self.view),
            )
        return space

    def _pollution(
        self, state: RouteState, attacker_node: int
    ) -> tuple[frozenset[int], float]:
        """Who routes to *attacker_node* in *state*, and how much space.

        Returns ``(polluted_asns, address_fraction)`` — the ASNs behind
        every node holding the attacker's route (the attacker's own node
        excluded) and their share of the allocated address space. Equal
        to ``view.expand(state.holders_of(node))`` and
        ``plan.fraction_owned(...)`` of it, bit for bit (one integer sum,
        one division), computed as array reductions over the state.
        """
        import numpy as np  # lazy: labs that never attack skip the import

        view = self.view
        held = np.asarray(state.origin_of) == attacker_node
        held[attacker_node] = False
        nodes = np.flatnonzero(held)
        asns = view.representative_asns[nodes].tolist()
        siblings = view.sibling_nodes
        for node in siblings[held[siblings]].tolist():
            asns.extend(view.members[node][1:])
        total = self.plan.total_allocated()
        owned = int(self._node_space()[nodes].sum())
        return frozenset(asns), (owned / total if total else 0.0)

    def _outcome(
        self,
        scenario: HijackScenario,
        claimed: tuple[int, ...] | None,
        state: RouteState | None = None,
        attacker_node: int = -1,
        blocked: frozenset[int] = frozenset(),
    ) -> AttackOutcome:
        """Assemble a scenario's outcome from its converged *state*.

        Without a state the attack never launched (nothing to replay or
        leak): nobody is polluted and nothing was blocked.
        """
        if state is None:
            polluted_asns, fraction = frozenset(), 0.0
        else:
            polluted_asns, fraction = self._pollution(state, attacker_node)
        return AttackOutcome(
            scenario=scenario,
            polluted_asns=polluted_asns,
            blocked_asns=self.view.expand(blocked),
            address_fraction=fraction,
            claimed_path=claimed,
        )

    def _sweep_pool(
        self,
        target_asn: int,
        pool: Sequence[int],
        sample: int | None,
        seed: int | None,
    ) -> tuple[int, ...]:
        """The attackers of one sweep: *pool* (ascending, no repeats)
        minus the target's own routing node, down-sampled
        deterministically to *sample*."""
        view = self.view
        own = view.members[view.node_of(target_asn)]
        remaining = _Without(pool, own)
        if sample is not None and sample < len(remaining):
            rng = make_rng(self.seed if seed is None else seed, "sweep", target_asn)
            # random.sample draws by index, so sampling the view draws
            # exactly what sampling the filtered tuple would.
            return tuple(sorted(rng.sample(remaining, sample)))
        return tuple(remaining)

    def claimed_path(self, scenario: HijackScenario) -> tuple[int, ...] | None:
        """The AS path the bogus announcement carries, claimed origin last.

        Forged claims (type-0/1/N) are static properties of the scenario.
        A type-U replay and a route leak reuse the path the attacker
        *actually learned* — resolved here against the target's cached
        legitimate state: the replayed tail is the attacker's received
        AS path (the attacker itself absent, as on the wire), and a leak
        is that same path with the leaker prepended. Returns ``None``
        when the attacker holds no route to reuse — the attack never
        launches.
        """
        static = scenario.static_claimed_path
        if static is not None:
            return static
        view = self.view
        target_node = view.node_of(scenario.target_asn)
        attacker_node = view.node_of(scenario.attacker_asn)
        legit = self._legitimate_state(target_node)
        if not legit.has_route(attacker_node):
            return None
        chain = legit.path_from(attacker_node)
        tail = tuple(
            scenario.target_asn if node == target_node else view.asn_of(node)
            for node in chain
        )
        if scenario.kind is HijackKind.ROUTE_LEAK:
            return (scenario.attacker_asn, *tail)
        return tail

    def run_scenario(self, scenario: HijackScenario) -> AttackOutcome:
        """Execute one scenario: the one-scenario case of
        :meth:`run_scenarios`."""
        return self.run_scenarios([scenario])[0]

    def run_scenarios(
        self, scenarios: Iterable[HijackScenario]
    ) -> list[AttackOutcome]:
        """Execute scenarios in order, reading only immutable lab state
        plus the (shared, frozen) convergence cache.

        Scenarios sharing a base state (same target's legitimate
        baseline for origin/leak attacks, the clean state for
        sub-prefix/squat) are grouped and converged ``batch_origins`` at
        a time via :meth:`RoutingEngine.converge_batch
        <repro.bgp.engine.RoutingEngine.converge_batch>`. With
        ``batch_origins=1`` (the default lab) or a single scenario each
        one converges on its own, as it is prepared. Outcomes are
        identical either way, in the same order — batching is a
        wall-clock knob, never a result knob.
        """
        scenarios = list(scenarios)
        batch = self.batch_origins if len(scenarios) > 1 else 1
        view = self.view
        outcomes: list[AttackOutcome | None] = [None] * len(scenarios)
        # (index, scenario, attacker node, claimed path, blocked, first-hop)
        prepared: list[tuple[int, HijackScenario, int, tuple[int, ...], frozenset[int], bool]] = []
        groups: dict[int | None, list[int]] = {}
        for index, scenario in enumerate(scenarios):
            target_node = view.node_of(scenario.target_asn)
            attacker_node = view.node_of(scenario.attacker_asn)
            if target_node == attacker_node:
                raise ValueError(
                    "attacker and target collapse into one routing node "
                    f"(sibling group) for AS{scenario.attacker_asn}/AS{scenario.target_asn}"
                )
            claimed = self.claimed_path(scenario)
            if claimed is None:
                # Nothing to replay/leak: the attack fizzles before launch.
                outcomes[index] = self._outcome(scenario, None)
                continue
            blocked = self.defense.blocking_nodes(
                view, scenario.prefix, scenario.attacker_asn, claimed_path=claimed
            )
            first_hop = self._first_hop_filtered(scenario.attacker_asn)
            # An origin hijack or leak competes with the legitimate route
            # for the same NLRI. A sub-prefix or squatted block is a
            # brand-new NLRI: it converges on a clean state and wins
            # everywhere it reaches; only blocking can contain it.
            base_node = (
                target_node
                if scenario.kind in (HijackKind.ORIGIN, HijackKind.ROUTE_LEAK)
                else None
            )
            if batch == 1:
                state = self.engine.converge(
                    attacker_node,
                    base=self._legitimate_state(base_node) if base_node is not None else None,
                    blocked=blocked,
                    filter_first_hop_providers=first_hop,
                    origin_length=len(claimed) - 1,
                )
                outcomes[index] = self._outcome(
                    scenario, claimed, state, attacker_node, blocked
                )
                continue
            groups.setdefault(base_node, []).append(len(prepared))
            prepared.append(
                (index, scenario, attacker_node, claimed, blocked, first_hop)
            )
        for base_node, members in groups.items():
            base = self._legitimate_state(base_node) if base_node is not None else None
            for start in range(0, len(members), batch):
                chunk = [prepared[member] for member in members[start:start + batch]]
                states = self.engine.converge_batch(
                    [entry[2] for entry in chunk],
                    base=base,
                    blocked_sets=[entry[4] for entry in chunk],
                    first_hop_flags=[entry[5] for entry in chunk],
                    origin_lengths=[len(entry[3]) - 1 for entry in chunk],
                )
                for (index, scenario, attacker_node, claimed, blocked, _), state in zip(
                    chunk, states
                ):
                    outcomes[index] = self._outcome(
                        scenario, claimed, state, attacker_node, blocked
                    )
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    # -- single attacks ---------------------------------------------------------------

    def target_prefix(self, target_asn: int) -> Prefix:
        """The target's primary (largest) allocated prefix."""
        return self.plan.primary_prefix(target_asn)

    def attack_prefix(self, target_asn: int, kind: HijackKind) -> Prefix:
        """The prefix a *kind* attack on *target_asn* announces.

        Exact-prefix kinds (origin, route-leak) use the primary prefix;
        a sub-prefix hijack announces its first half; a squat announces
        the *last* half — modelling the allocated-but-unrouted slice the
        target never originates (ARTEMIS's squatting definition).
        """
        parent = self.target_prefix(target_asn)
        if kind in (HijackKind.ORIGIN, HijackKind.ROUTE_LEAK):
            return parent
        if parent.length + 1 > 32:
            raise ValueError(f"cannot split /{parent.length} for a {kind.value}")
        halves = list(parent.subnets(parent.length + 1))
        return halves[0] if kind is HijackKind.SUBPREFIX else halves[-1]

    def build_scenario(
        self,
        target_asn: int,
        attacker_asn: int,
        *,
        kind: HijackKind = HijackKind.ORIGIN,
        path_kind: PathKind = PathKind.TYPE_0,
        forged_depth: int = 1,
        forged_path: tuple[int, ...] | None = None,
        prefix: Prefix | None = None,
    ) -> HijackScenario:
        """Assemble one grid-cell scenario with the lab's address plan.

        For type-N without an explicit *forged_path* the claim is padded
        with private-use ASNs to *forged_depth* hops
        (:func:`~repro.attacks.scenario.synthetic_forged_path`).
        """
        if forged_path is None and path_kind is PathKind.TYPE_N:
            forged_path = synthetic_forged_path(
                attacker_asn, target_asn, forged_depth
            )
        return HijackScenario(
            target_asn=target_asn,
            attacker_asn=attacker_asn,
            prefix=prefix if prefix is not None else self.attack_prefix(target_asn, kind),
            kind=kind,
            path_kind=path_kind,
            forged_path=forged_path if forged_path is not None else (),
        )

    def origin_hijack(self, target_asn: int, attacker_asn: int) -> AttackOutcome:
        """Simulate the attacker announcing the target's own prefix."""
        return self.run_scenario(self.build_scenario(target_asn, attacker_asn))

    def subprefix_hijack(self, target_asn: int, attacker_asn: int) -> AttackOutcome:
        """Simulate a more-specific hijack of the target's primary prefix."""
        return self.run_scenario(
            self.build_scenario(target_asn, attacker_asn, kind=HijackKind.SUBPREFIX)
        )

    # -- sweeps -------------------------------------------------------------------------

    def attacker_pool(self, *, transit_only: bool = False) -> tuple[int, ...]:
        """Candidate attackers: everyone, or the paper's optimistic
        transit-only pool ("attacks now originate only from the transit
        ASes", Section IV)."""
        pool = self._tables.get(("attacker_pool", transit_only))
        if pool is None:
            asns = transit_asns(self.graph) if transit_only else self.graph.asns()
            pool = self._tables["attacker_pool", transit_only] = tuple(sorted(set(asns)))
        return pool

    def sweep_target(
        self,
        target_asn: int,
        *,
        attackers: Iterable[int] | None = None,
        transit_only: bool = False,
        sample: int | None = None,
        seed: int | None = None,
        kind: HijackKind = HijackKind.ORIGIN,
        path_kind: PathKind = PathKind.TYPE_0,
        forged_depth: int = 1,
    ) -> dict[int, AttackOutcome]:
        """Attack one target from many attackers; the Fig. 2–6 workload.

        By default every other AS attacks once (the paper's worst-case
        sweep). ``sample`` draws a deterministic random subset — the
        experiment suite (``ExperimentConfig.attacker_sample``, set by
        ``repro-bgp figure --sample``) uses it to keep wall-clock in check
        at identical curve shapes. Outcomes are keyed and ordered by attacker ASN.
        ``kind``/``path_kind``/``forged_depth`` select the attack-grid
        cell to sweep (default: the paper's type-0 origin hijack,
        byte-identical to the pre-taxonomy sweep).
        """
        if attackers is None:
            pool: Sequence[int] = self.attacker_pool(transit_only=transit_only)
        else:
            pool = tuple(sorted(set(attackers)))
        pool = self._sweep_pool(target_asn, pool, sample, seed)
        prefix = self.attack_prefix(target_asn, kind)
        scenarios = [
            self.build_scenario(
                target_asn,
                attacker_asn,
                kind=kind,
                path_kind=path_kind,
                forged_depth=forged_depth,
                prefix=prefix,
            )
            for attacker_asn in pool
        ]
        self.metrics.count("lab.sweeps")
        with self.metrics.span("lab.sweep_target"):
            results = self.run_scenarios(scenarios)
        return {
            scenario.attacker_asn: outcome
            for scenario, outcome in zip(scenarios, results)
        }

    def sweep_deployments(
        self,
        target_asn: int,
        strategies: Sequence["DeploymentStrategy"],
        authority: "OriginAuthority | None",
        *,
        transit_only: bool = True,
        sample: int | None = None,
        seed: int | None = None,
    ) -> list[dict[int, AttackOutcome]]:
        """Sweep one target across a whole deployment ladder, warm-started.

        The Fig. 5/6 workload — one type-0 origin-hijack sweep per
        deployment rung — without a cold convergence per (attacker, rung)
        point: each attacker's state is copied from the target's
        legitimate baseline *once*, then every rung applies its blocked
        set in place via :meth:`RoutingEngine.converge_delta_batch
        <repro.bgp.engine.RoutingEngine.converge_delta_batch>` and is
        rewound through the undo journal before the next rung (adjacent
        deployment sets differ by a handful of ASes, so re-announcing
        over the reverted state is the whole warm start). Attacker pool
        and sampling are exactly :meth:`sweep_target`'s, so rung *i*'s
        outcome dict is item-identical to
        ``with_defense(Defense(strategy=strategies[i], authority=authority))
        .sweep_target(target_asn, ...)``.
        """
        pool = self._sweep_pool(
            target_asn, self.attacker_pool(transit_only=transit_only), sample, seed
        )
        target_node = self.view.node_of(target_asn)
        prefix = self.attack_prefix(target_asn, HijackKind.ORIGIN)
        defenses = [
            Defense(strategy=strategy, authority=authority)
            for strategy in strategies
        ]
        view = self.view
        legit = self._legitimate_state(target_node)
        results: list[dict[int, AttackOutcome]] = [{} for _ in defenses]
        batch = max(1, self.batch_origins)
        self.metrics.count("lab.deployment_sweeps")
        with self.metrics.span("lab.sweep_deployments"):
            for start in range(0, len(pool), batch):
                attackers = pool[start:start + batch]
                nodes = [view.node_of(asn) for asn in attackers]
                scenarios = [
                    self.build_scenario(target_asn, asn, prefix=prefix)
                    for asn in attackers
                ]
                states = [legit.copy_for(node) for node in nodes]
                for rung, defense in enumerate(defenses):
                    blocked_sets = [
                        defense.blocking_nodes(
                            view, prefix, asn, claimed_path=(asn,)
                        )
                        for asn in attackers
                    ]
                    first_hop_flags = [
                        defense.stub_filter and not self.graph.customers(asn)
                        for asn in attackers
                    ]
                    deltas = self.engine.converge_delta_batch(
                        states,
                        nodes,
                        blocked_sets=blocked_sets,
                        first_hop_flags=first_hop_flags,
                    )
                    for scenario, node, state, blocked in zip(
                        scenarios, nodes, states, blocked_sets
                    ):
                        results[rung][scenario.attacker_asn] = self._outcome(
                            scenario, (scenario.attacker_asn,), state, node, blocked
                        )
                    for state, delta in zip(states, deltas):
                        delta.revert(state)
        return results

    def random_attacks(
        self,
        count: int,
        *,
        transit_only: bool = True,
        seed: int | None = None,
    ) -> list[AttackOutcome]:
        """Random attacker/target pairs: the Fig. 7 detection workload
        ("8000 random simulated IP hijacks… chosen from the transit ASes").

        Pair generation is purely RNG-driven (it never looks at routing
        outcomes).
        """
        pool = self.attacker_pool(transit_only=transit_only)
        rng = make_rng(self.seed if seed is None else seed, "random-attacks", count)
        scenarios: list[HijackScenario] = []
        while len(scenarios) < count:
            target_asn, attacker_asn = rng.sample(pool, 2)
            if self.view.node_of(target_asn) == self.view.node_of(attacker_asn):
                continue
            scenarios.append(
                HijackScenario(
                    target_asn=target_asn,
                    attacker_asn=attacker_asn,
                    prefix=self.target_prefix(target_asn),
                    kind=HijackKind.ORIGIN,
                )
            )
        self.metrics.count("lab.random_attack_batches")
        with self.metrics.span("lab.random_attacks"):
            return self.run_scenarios(scenarios)

    # -- observable propagation (Fig. 1) ---------------------------------------------

    def animate(
        self, target_asn: int, attacker_asn: int
    ) -> tuple[PropagationReport, PropagationReport]:
        """Flood both phases generation by generation, with event logs.

        The legitimate announcement floods a clean network unblocked; the
        attack floods over the resulting table with the blocked nodes and
        first-hop flag :meth:`run_scenario` hands the engine. Returns the
        legitimate and attack propagation reports whose per-generation
        events drive the polar visualisation.
        """
        from repro.oracle.reference import ReferenceSimulator

        view = self.view
        target_node = view.node_of(target_asn)
        attacker_node = view.node_of(attacker_asn)
        if target_node == attacker_node:
            raise ValueError(
                "attacker and target collapse into one routing node "
                f"(sibling group) for AS{attacker_asn}/AS{target_asn}"
            )
        flood = ReferenceSimulator(
            view, tier1_shortest_path=self.policy.tier1_shortest_path
        )
        table: dict = {}
        legit = flood.announce(target_node, table=table)
        attack = flood.announce(
            attacker_node,
            table=table,
            blocked=self.defense.blocking_nodes(
                view, self.target_prefix(target_asn), attacker_asn
            ),
            filter_first_hop_providers=self._first_hop_filtered(attacker_asn),
        )
        return legit, attack
