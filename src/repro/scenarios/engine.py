"""Compile and run declarative scenarios.

:func:`compile_scenario` turns a :class:`ScenarioSpec` into the concrete
ingredients of a simulator run — a :class:`ConsensusConfig`, a latency
model, a per-link bandwidth model, a crash plan, partition schedules and
the attacker coalition — and :func:`run_scenario` executes it epoch by
epoch through :mod:`repro.experiments.runner`, re-selecting the committee
from the stake registry between epochs when the spec asks for churn.

Everything is seeded from the spec, so a fixed spec produces identical
finalized-view metrics on every run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, List, Optional, Set, Tuple

from repro.attacks.byzantine import corrupt_replicas
from repro.consensus.config import ConsensusConfig
from repro.experiments.runner import ExperimentResult, build_deployment, summarise
from repro.experiments.workloads import ClientWorkload
from repro.membership.epochs import EpochSchedule, MembershipManager
from repro.membership.stake import StakeRegistry
from repro.results import EpochMetrics, RunResult
from repro.scenarios.spec import ScenarioSpec, TopologySpec
from repro.simnet.failures import FailureInjector, FailurePlan
from repro.simnet.latency import (
    ConstantLatency,
    LatencyModel,
    LinkBandwidth,
    NormalLatency,
)
from repro.simnet.topology import (
    WAN_REGION_MATRIX,  # noqa: F401  (canonical home: repro.simnet.topology)
    MatrixLatency,
    RackTopologyLatency,
    RegionMatrixLatency,
)

__all__ = [
    "CompiledScenario",
    "EpochOutcome",
    "ScenarioResult",
    "WAN_REGION_MATRIX",
    "build_latency_model",
    "build_scenario_deployment",
    "compile_scenario",
    "compiled_for_epoch",
    "run_epochs",
    "run_scenario",
]


def build_latency_model(topology: TopologySpec, committee_size: int) -> LatencyModel:
    """The latency model a topology spec describes, sized for the committee."""
    if topology.kind == "constant":
        return ConstantLatency(topology.intra_delay)
    if topology.kind == "normal":
        return NormalLatency(
            mean=topology.intra_delay,
            std=topology.intra_delay * max(topology.jitter, 0.01),
            minimum=topology.intra_delay * 0.1,
        )
    if topology.kind == "rack":
        return RackTopologyLatency.evenly_spread(
            committee_size,
            topology.regions,
            intra_delay=topology.intra_delay,
            inter_delay=topology.inter_delay,
            jitter=topology.jitter,
        )
    if topology.kind == "wan":
        matrix = topology.matrix
        if matrix is None:
            if topology.regions > len(WAN_REGION_MATRIX):
                raise ValueError(
                    f"built-in WAN matrix covers {len(WAN_REGION_MATRIX)} regions; "
                    "provide an explicit matrix for more"
                )
            matrix = tuple(
                row[: topology.regions] for row in WAN_REGION_MATRIX[: topology.regions]
            )
        return RegionMatrixLatency.evenly_spread(
            committee_size, matrix, intra_delay=topology.intra_delay, jitter=topology.jitter
        )
    if topology.kind == "matrix":
        if len(topology.matrix) < committee_size:
            raise ValueError("latency matrix must cover every committee process id")
        return MatrixLatency(topology.matrix, jitter=topology.jitter)
    raise ValueError(f"unknown topology kind {topology.kind!r}")


@dataclass
class CompiledScenario:
    """A spec resolved into concrete run ingredients."""

    spec: ScenarioSpec
    config: ConsensusConfig
    latency_model: LatencyModel
    loss_probability: float
    failure_plan: Optional[FailurePlan]
    attacker_ids: Tuple[int, ...]
    epoch_duration: float

    def link_bandwidth(self) -> Optional[LinkBandwidth]:
        """A fresh (queue-empty) bandwidth model for one epoch run."""
        rate = self.spec.topology.bandwidth_bytes_per_sec
        if rate is None:
            return None
        return LinkBandwidth(rate)


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Resolve a spec into a :class:`CompiledScenario` (no run yet)."""
    size = spec.committee.size
    latency_model = build_latency_model(spec.topology, size)
    bound = latency_model.upper_bound
    # On thin links, serialization dominates propagation: a hop is only
    # "delivered" once a full proposal has finished transmitting, so the
    # synchrony bound must cover one batch's transmission time or
    # bandwidth-crunched scenarios live in permanent view timeout.
    if spec.topology.bandwidth_bytes_per_sec:
        proposal_bytes = spec.batch_size * spec.workload.payload_size
        bound += proposal_bytes / spec.topology.bandwidth_bytes_per_sec
    # Timers derive from the topology unless pinned: Δ covers one hop plus
    # processing headroom, the 2ND-CHANCE δ one extra round trip, and the
    # pacemaker must outlast Iniva's 7Δ critical path.
    delta = spec.delta if spec.delta is not None else max(0.0025, 1.25 * bound)
    second_chance = (
        spec.second_chance_timeout if spec.second_chance_timeout is not None else max(0.005, bound)
    )
    view_timeout = spec.view_timeout if spec.view_timeout is not None else max(0.25, 8.0 * delta)
    config = ConsensusConfig(
        committee_size=size,
        batch_size=spec.batch_size,
        payload_size=spec.workload.payload_size,
        aggregation=spec.aggregation,
        signature_scheme=spec.signature_scheme,
        leader_policy=spec.leader_policy,
        delta=delta,
        second_chance_timeout=second_chance,
        view_timeout=view_timeout,
        num_internal=spec.num_internal,
        seed=spec.seed,
        sync_on_recover=spec.resilience.catchup,
        max_sync_blocks=spec.resilience.max_sync_blocks,
        optimistic_responsiveness=spec.optimistic_responsiveness,
        **dict(spec.scheme_params),
    )

    victim = spec.attack.victim if spec.attack.strategy != "none" else None
    protected = {0} if spec.faults.protect_leader else set()
    protected |= set(spec.faults.crash_exclude)
    if victim is not None:
        protected.add(victim)

    attacker_ids: Tuple[int, ...] = ()
    if spec.attack.strategy == "omission":
        candidates = [pid for pid in range(1, size) if pid != victim]
        if spec.attack.attackers > len(candidates):
            raise ValueError("more attackers than available committee seats")
        # Knuth-style mix keeps the attacker draw independent of the crash
        # draw (both derive from spec.seed) and stable across processes.
        rng = random.Random(spec.seed * 2654435761 + 97)
        attacker_ids = tuple(sorted(rng.sample(candidates, spec.attack.attackers)))
        protected |= set(attacker_ids)

    failure_plan = None
    if spec.faults.crashes:
        crash_seed = (
            spec.faults.crash_seed if spec.faults.crash_seed is not None else spec.seed
        )
        failure_plan = FailurePlan.random_crashes(
            committee_size=size,
            count=spec.faults.crashes,
            seed=crash_seed,
            at_time=spec.faults.crash_at,
            exclude=sorted(protected),
            restart_at=spec.faults.restart_at,
        )

    epoch_duration = spec.duration / spec.churn.epochs
    return CompiledScenario(
        spec=spec,
        config=config,
        latency_model=latency_model,
        loss_probability=spec.topology.loss_probability,
        failure_plan=failure_plan,
        attacker_ids=attacker_ids,
        epoch_duration=epoch_duration,
    )


# The engine used to define its own result types; they are now the
# repo-wide unified result (kept under the old names for compatibility).
EpochOutcome = EpochMetrics
ScenarioResult = RunResult


def compiled_for_epoch(compiled: CompiledScenario, epoch: int) -> CompiledScenario:
    """The per-epoch view of a compiled scenario.

    Epoch ``e`` runs with the config seed shifted by ``7919 * e`` so each
    committee generation sees fresh trees/latency draws while staying
    deterministic; everything else (latency model, failure plan, attacker
    coalition, partition schedule) is shared across epochs.  Epoch 0 is
    the compiled scenario itself.
    """
    if epoch == 0:
        return compiled
    return dataclass_replace(
        compiled, config=compiled.config.with_(seed=compiled.spec.seed + 7919 * epoch)
    )


def build_scenario_deployment(
    compiled: CompiledScenario,
    epoch: int = 0,
    runtime: str = "sim",
):
    """Wire one epoch's deployment: workload attached, faults scheduled.

    This is the single spec→deployment path — :func:`run_scenario` calls
    it once per epoch, and :func:`repro.api.deploy` exposes it to callers
    that need the live :class:`Deployment` (custom drop rules, message
    tracing, QC audits) rather than just the summarised metrics.

    ``runtime`` selects the substrate: ``"sim"`` (default) returns the
    fully wired simulator :class:`Deployment`; ``"live"`` returns a
    not-yet-started :class:`~repro.runtime.live.LiveCluster` that runs
    the same spec as an asyncio TCP cluster — with the chaos layer
    (:mod:`repro.chaos`) translating the spec's topology shaping,
    partitions, crash/restart churn and Byzantine cartel onto the live
    transport.
    """
    if runtime == "live":
        # Imported lazily: repro.runtime.live imports this module.
        from repro.runtime.live import LiveCluster

        return LiveCluster(spec=compiled.spec, compiled=compiled, epoch=epoch)
    if runtime != "sim":
        raise ValueError(f"unknown runtime {runtime!r} (expected 'sim' or 'live')")
    spec = compiled.spec
    config = compiled_for_epoch(compiled, epoch).config
    deployment = build_deployment(
        config,
        warmup=min(spec.warmup, compiled.epoch_duration / 4),
        latency_model=compiled.latency_model,
        loss_probability=compiled.loss_probability,
        link_bandwidth=compiled.link_bandwidth(),
    )
    if spec.observe.enabled:
        # One tracer for the whole deployment (the sim shares one metrics
        # collector; events carry the pid).  The per-replica capacity the
        # spec names scales by committee size so a sim trace holds as many
        # events as the live runtime's n per-node rings would.
        from repro.observe.trace import Tracer, seeded_run_id

        deployment.metrics.tracer = Tracer(
            seeded_run_id(spec.name, spec.seed),
            capacity=spec.observe.capacity * spec.committee.size,
            sample_rate=spec.observe.sample_rate,
            seed=spec.seed,
        )
    workload_seed = spec.workload.seed if spec.workload.seed is not None else config.seed
    workload = ClientWorkload(
        rate=spec.workload.rate,
        payload_size=spec.workload.payload_size,
        num_clients=spec.workload.num_clients,
        arrival=spec.workload.arrival,
        burst_factor=spec.workload.burst_factor,
        period=spec.workload.arrival_period,
        seed=workload_seed,
    )
    if spec.workload.preload:
        workload.preload_into(deployment.mempool, compiled.epoch_duration)
    else:
        workload.attach(deployment.simulator, deployment.mempool, compiled.epoch_duration)

    injector = FailureInjector(deployment.simulator, deployment.network)
    if compiled.failure_plan is not None:
        injector.apply(compiled.failure_plan)
    injector.schedule_partitions(spec.faults.partitions)
    if compiled.attacker_ids:
        corrupt_replicas(deployment, compiled.attacker_ids, spec.attack.victim)
    return deployment


def _stake_gini(stakes: List[float]) -> float:
    """Gini coefficient of the stake distribution (0 equal .. 1 skewed)."""
    if not stakes:
        return 0.0
    ordered = sorted(stakes)
    total = sum(ordered)
    if total <= 0:
        return 0.0
    cumulative = 0.0
    weighted = 0.0
    for rank, stake in enumerate(ordered, start=1):
        cumulative += stake
        weighted += rank * stake
    n = len(ordered)
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


#: Per-epoch execution callback: ``(compiled, epoch) -> (metrics, crashed
#: process ids)``.  ``run_epochs`` owns everything around it (membership
#: churn, reward feedback, stake drift); the runner owns the substrate.
EpochRunner = Callable[[CompiledScenario, int], Tuple[ExperimentResult, Set[int]]]


def run_epochs(
    spec: ScenarioSpec,
    compiled: CompiledScenario,
    epoch_runner: EpochRunner,
    runtime_name: str,
) -> RunResult:
    """The epoch-loop orchestration shared by the sim and live runtimes.

    Handles committee (re-)selection from the stake pool, per-epoch
    overlap, reward-to-stake feedback and Gini tracking identically for
    every substrate; ``epoch_runner`` executes one epoch on the sim
    (:func:`run_scenario`) or the live cluster
    (:func:`repro.runtime.live.run_live`) and reports which replicas
    ended the epoch crashed (they earn no rewards).
    """
    wall_started = time.perf_counter()
    churn = spec.churn.epochs > 1 or spec.committee.pool_size > spec.committee.size
    registry: Optional[StakeRegistry] = None
    manager: Optional[MembershipManager] = None
    if churn:
        registry = StakeRegistry()
        for validator_id, stake in enumerate(spec.committee.stakes()):
            registry.register(validator_id, stake=stake)
        manager = MembershipManager(
            registry,
            EpochSchedule(views_per_epoch=spec.churn.views_per_epoch),
            committee_size=spec.committee.size,
            base_seed=spec.seed,
        )

    outcome_list: List[EpochMetrics] = []
    previous_committee: Optional[Tuple[int, ...]] = None
    for epoch in range(spec.churn.epochs):
        if manager is not None:
            descriptor = manager.committee_for_epoch(epoch)
            committee = tuple(descriptor.members)
        else:
            committee = tuple(range(spec.committee.size))

        result, crashed = epoch_runner(compiled, epoch)

        overlap = 1.0
        if previous_committee is not None:
            overlap = len(set(committee) & set(previous_committee)) / max(len(committee), 1)
        previous_committee = committee

        gini: Optional[float] = None
        if registry is not None and manager is not None:
            if spec.churn.reward_feedback and result.committed_blocks:
                reward_total = spec.churn.reward_per_block * result.committed_blocks
                earners = [pid for pid in range(len(committee)) if pid not in crashed]
                if earners:
                    payouts = {pid: reward_total / len(earners) for pid in earners}
                    manager.apply_block_rewards(
                        manager.schedule.first_view_of(epoch), payouts
                    )
            gini = _stake_gini([validator.stake for validator in registry])

        outcome_list.append(
            EpochMetrics(
                epoch=epoch,
                committee=committee,
                overlap=overlap,
                stake_gini=gini,
                result=result,
            )
        )
    return RunResult(
        spec=spec,
        epochs=outcome_list,
        attackers=compiled.attacker_ids,
        runtime=runtime_name,
        wall_clock_seconds=time.perf_counter() - wall_started,
    )


def run_scenario(spec: ScenarioSpec, quick: bool = False) -> RunResult:
    """Run a scenario end to end and collect per-epoch metrics.

    With ``quick`` the spec is first shrunk via :meth:`ScenarioSpec.quick`
    so the run finishes in seconds.  Fixed spec ⇒ identical metrics.
    """
    if quick:
        spec = spec.quick()
    compiled = compile_scenario(spec)

    def sim_epoch(compiled_scenario: CompiledScenario, epoch: int):
        deployment = build_scenario_deployment(compiled_scenario, epoch)
        deployment.start()
        deployment.simulator.run(until=compiled_scenario.epoch_duration)
        result = summarise(
            deployment,
            compiled_scenario.epoch_duration,
            label=f"{spec.name} epoch={epoch} {deployment.config.describe()}",
        )
        tracer = deployment.metrics.tracer
        if tracer is not None:
            from repro.observe.metrics import MetricsRegistry

            # Mirror the live node's registry namespace (consensus.* /
            # transport.*) so merged sim and live snapshots are directly
            # comparable; the sim's deployment-wide message counters land
            # under transport.* like the live per-node transport dict.
            metrics = deployment.metrics
            registry = MetricsRegistry()
            registry.fill_counters(deployment.network.counters(), prefix="transport.")
            registry.counter("consensus.committed_blocks", metrics.committed_blocks())
            registry.counter(
                "consensus.committed_operations", metrics.committed_operations()
            )
            registry.counter("consensus.views_recorded", metrics.total_views())
            registry.counter(
                "consensus.second_chance_inclusions",
                metrics.second_chance_inclusions(),
            )
            registry.gauge("consensus.average_qc_size", metrics.average_qc_size())
            histogram = registry.histogram("consensus.commit_latency")
            for sample in metrics.latency_samples():
                histogram.record(sample)
            result = dataclass_replace(
                result,
                observability={
                    "run_id": tracer.run_id,
                    "enabled": True,
                    "trace": tracer.snapshot(),
                    "metrics": registry.snapshot(),
                },
            )
        crashed = set(deployment.network.process_ids) - {
            replica.process_id for replica in deployment.correct_replicas()
        }
        return result, crashed

    return run_epochs(spec, compiled, sim_epoch, runtime_name="sim")
