"""The workloads of the repo benchmark and the cells that run them.

A *cell* is one deployment from compile to teardown.  A run serves as
many cells as its ``--seconds`` budget holds and reports medians, so a
single slow cell cannot move a reported figure much.  Every cell passes
a correctness gate before any of its numbers are used; a failed gate
raises :class:`GateError` and the run records nothing.

The spec of each workload is fixed here; only ``--seed`` varies between
runs.  Each cell derives its own seed from it (:func:`cell_seeds`), which
the program receives as the spec seed (committee keys, crash set, link
jitter) and the generator as the seed of its request schedule.
"""

from __future__ import annotations

import gc
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List

from generator import quantile
from probe import LAYERS, Probe
from repro import api
from repro.analysis.properties import check_inclusiveness, check_no_forks
from repro.experiments.runner import summarise
from repro.runtime.fabric import WorkerFabric
from repro.runtime.live import LiveCluster
from repro.scenarios.spec import (
    CommitteeSpec,
    FaultSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Injected one-way delay of every live link (constant, shaped by repro.chaos).
LINK_DELAY = 0.0005

# -- open-n4 ----------------------------------------------------------------------
#: Saturation goodput of open-n4 on the commit that defined this benchmark
#: (one generator process, 2-vCPU VM shared with other tenants): the
#: backlog grew from about 10 000 offered ops/s in quiet periods and from
#: about 8 000 in busy ones, where a step at 8 000 tipped over in 3 of 10
#: runs.  The steps are fixed from the busy figure.
OPEN_SATURATION = 8_000.0
OPEN_STEPS = (("low", 0.2), ("mid", 0.5), ("high", 0.8))
#: ``capacity_ops_s`` only counts a step whose p99 stays under this limit,
#: which answered at least 99.9% of its requests, and whose backlog did
#: not grow: the median latency of its last third stays within this
#: factor (plus 20 ms) of its first third's.
OPEN_P99_LIMIT_S = 1.0
OPEN_BACKLOG_FACTOR = 2.0
#: Slices of a step's window; latency and blocks/s are medians over them.
OPEN_SLICES = 5
#: The generator fell behind when its p99 send lateness exceeds this.
#: Scheduling jitter on a shared 2-vCPU VM alone reaches 10-20 ms.
OPEN_LATE_BOUND_S = 0.050
OPEN_WARMUP_S = 0.5
#: How long a step waits for replies after its last due request: a request
#: still unanswered then has missed the p99 limit anyway.
OPEN_DRAIN_S = 1.0

# -- fixed-work live cells ---------------------------------------------------------
#: (warm-up commits W, measured commits K) of bls-n16.
BLS_WORK = (10, 60)
#: Wall-clock cap of one fixed-work cell; hitting it fails the gate.
CELL_CAP_S = 30.0

# -- sim ----------------------------------------------------------------------------
SIM_VIRTUAL_S = 2.0
#: Typical wall seconds of one sim cell on a 2-vCPU VM.
SIM_CELL_S = 3.0
SIM_CRASHES = 5
#: Fewest blocks a sim cell must commit to pass its gate.  A healthy cell
#: commits 150-176; one whose crash set holds an early Carousel leader
#: loses view timeouts and commits about 90.
SIM_MIN_BLOCKS = 50


#: Largest share of a traced window that layer self times plus idle may
#: leave unexplained.
RECONCILE_TOLERANCE = 0.10


class GateError(RuntimeError):
    """A cell produced wrong or too little output; the run is refused."""


class GeneratorBehind(GateError):
    """The request generator fell behind its schedule: not a valid open loop."""


@dataclass
class Outcome:
    """What one run reports: the gate verdict, op counts and metrics."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)


def _spec(name: str, *, seed: int, size: int, scheme: str, **overrides: Any) -> ScenarioSpec:
    base = dict(
        name=name,
        aggregation="iniva",
        signature_scheme=scheme,
        batch_size=100,
        warmup=0.0,
        seed=seed,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=max(0.25, 0.012 * size),
        committee=CommitteeSpec(size=size),
        topology=TopologySpec(kind="constant", intra_delay=LINK_DELAY),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def open_spec(seed: int) -> ScenarioSpec:
    # rate=0 keeps the in-process client swarm off: the load comes from
    # the benchmark's own generator process.
    return _spec(
        "perfbench-open-n4", seed=seed, size=4, scheme="hashsig", duration=30.0,
        workload=WorkloadSpec(rate=0.0, payload_size=64, seed=seed),
    )


def bls_spec(seed: int) -> ScenarioSpec:
    # Preload: rate x duration requests per replica, 1.7x what W+K blocks take.
    return _spec(
        "perfbench-bls-n16", seed=seed, size=16, scheme="bls", duration=4.0,
        workload=WorkloadSpec(rate=3_000.0, payload_size=64, seed=seed, preload=True),
    )


def sim_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="perfbench-sim-n64-crash5",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=100,
        leader_policy="carousel",
        duration=SIM_VIRTUAL_S,
        warmup=0.0,
        seed=seed,
        committee=CommitteeSpec(size=64),
        # Normal(0.5 ms, 0.1 ms): jitter is the relative standard deviation.
        topology=TopologySpec(kind="normal", intra_delay=LINK_DELAY, jitter=0.2),
        faults=FaultSpec(crashes=SIM_CRASHES, crash_at=0.0),
        workload=WorkloadSpec(rate=2_000.0, payload_size=64, seed=seed),
    )


# -- shared helpers -----------------------------------------------------------------
def fresh_cell(probe: Probe) -> None:
    """Clear the probe and collect the last cell's garbage before timing.

    Each cell then starts from the same collector state, so a full
    collection of the previous cell's objects is not charged to this one.
    """
    probe.reset()
    gc.collect()


def check_prefixes(orders: Dict[int, List[str]]) -> None:
    """Every replica's committed chain must be a prefix of the longest."""
    longest = max(orders.values(), key=len)
    for pid, order in orders.items():
        if order != longest[: len(order)]:
            raise GateError(f"replica {pid} committed a chain that forks from the longest one")


def sabotage_orders(orders: Dict[int, List[str]]) -> None:
    """Self-test of the gate: swap replica 0's first two committed blocks."""
    order = orders[0]
    if len(order) >= 2:
        order[0], order[1] = order[1], order[0]


def commit_series(snapshot: Dict[str, Any]) -> Dict[str, List[Any]]:
    """Per-replica commit records ``(time, block id, ops)`` in commit order."""
    series: Dict[str, List[Any]] = {}
    for key, when, block_id, ops in snapshot["commits"]:
        series.setdefault(key, []).append((when, block_id, ops))
    return series


def block_latencies(snapshot: Dict[str, Any], blocks: set) -> List[float]:
    """Proposal-to-commit seconds of every replica commit of ``blocks``."""
    proposals = snapshot["proposals"]
    return [
        when - proposals[block_id]
        for _, when, block_id, _ in snapshot["commits"]
        if block_id in blocks and block_id in proposals
    ]


def layer_metrics(snapshot: Dict[str, Any], blocks: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced cell, normalised per committed block."""
    per = 1.0 / max(blocks, 1)
    self_s = snapshot["self_s"]
    calls = snapshot["calls"]
    window = snapshot["window_s"]
    spent = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    metrics = {
        "crypto.sign_calls": calls.get("Committee.sign", 0) * per,
        "crypto.verify_calls": sum(
            count for label, count in calls.items() if label.startswith("Committee.verify")
        ) * per,
        "codec.encode_calls": sum(
            count for label, count in calls.items()
            if label.startswith("WireCodec.") and label != "WireCodec.decode"
        ) * per,
        "codec.decode_calls": calls.get("WireCodec.decode", 0) * per,
        "codec.bytes": snapshot["encoded_bytes"] * per,
        "consensus.handler_calls": calls.get("HotStuffReplica.on_message", 0) * per,
        "fabric.msgs_sent": calls.get("WorkerFabric.dispatch", 0) * per,
        "simnet.events": snapshot["simnet_events"] * per,
        "mempool.preload_s": snapshot["preload_s"],
        "runtime.loop_lag_p99_ms": quantile(sorted(snapshot["lag_s"]), 0.99) * 1000.0,
        "runtime.idle_share": self_s.get("idle", 0.0) / window if window else 0.0,
        "trace.unattributed_share": (window - spent) / window if window else 0.0,
        "trace.window_s": window,
        "clients.generator_late_p99_ms": 0.0,
        "aggregation.noninclusive_qcs": 0.0,
    }
    for layer in LAYERS:
        if layer != "idle":
            metrics[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1000.0 * per
    metrics.update(extra)
    return metrics


def live_counters(result: Any, blocks: int) -> Dict[str, float]:
    """Per-layer metrics a live ``RunResult`` already counts."""
    metrics = result.metrics
    fabric = result.resilience.get("cluster", {}).get("fabric", {})
    admission = result.clients.get("admission", {})
    suspicions = sum(
        len(record.get("suspicions", []))
        for record in result.resilience.get("per_replica", {}).values()
    )
    per = 1.0 / max(blocks, 1)
    return {
        "aggregation.second_chance_votes": metrics.second_chance_inclusions * per,
        "aggregation.votes_per_qc": metrics.average_qc_size,
        "consensus.views": metrics.total_views * per,
        "mempool.ops_per_block": metrics.committed_operations / max(metrics.committed_blocks, 1),
        "fabric.fast_path_msgs": fabric.get("fast_path_messages", 0) * per,
        "clients.admission_rejects": float(admission.get("dropped", 0) + admission.get("deferred", 0)),
        "resilience.suspicions": float(suspicions),
    }


def check_reconciled(layers: Dict[str, float]) -> None:
    """Self times plus idle must cover the traced window within 10%."""
    if abs(layers["trace.unattributed_share"]) > RECONCILE_TOLERANCE:
        raise GateError(
            f"layer self times plus idle miss {layers['trace.unattributed_share']:.1%} of the window"
        )


def median_metrics(cells: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over cells."""
    return {key: statistics.median(cell[key] for cell in cells) for key in cells[0]}


# -- live cluster plumbing ------------------------------------------------------------
@dataclass
class FixedWork:
    """A live workload served from a preloaded backlog: W warm-up commits,
    then K measured commits, then teardown."""

    make_spec: Callable[[int], ScenarioSpec]
    work: tuple
    #: Typical wall seconds of one cell on a 2-vCPU VM, setup included.
    cell_seconds: float

    def cell(self, seed: int, probe: Probe, trace: bool, sabotage: str) -> Dict[str, float]:
        warm, measured = self.work
        spec = self.make_spec(seed)
        size = spec.committee.size
        fresh_cell(probe)
        started = time.process_time()
        cluster = LiveCluster(spec=spec, duration=CELL_CAP_S, target_blocks=warm + measured)
        result = cluster.run()
        snapshot = probe.snapshot()
        failed_pids = cluster.worker_report.get("failed_pids", [])
        if failed_pids:
            raise GateError(f"workers died; replicas {failed_pids} have no report")
        orders = {pid: cluster.committed_order(pid) for pid in range(size)}
        if sabotage == "fork":
            sabotage_orders(orders)
        check_prefixes(orders)
        series = commit_series(snapshot)
        ready = [s for s in series.values() if len(s) >= warm + measured]
        if not ready:
            most = max((len(s) for s in series.values()), default=0)
            raise GateError(f"only {most} of {warm + measured} commits before the cap")
        observer = min(ready, key=lambda s: s[warm + measured - 1][0])
        window = observer[warm: warm + measured]
        elapsed = window[-1][0] - observer[warm - 1][0]
        ops = sum(record[2] for record in window)
        latencies = block_latencies(snapshot, {record[1] for record in window})
        metrics = result.metrics
        if snapshot["started_cpu_s"] is None:
            raise GateError("the protocol never started")
        cell = {
            "setup_s": snapshot["started_cpu_s"] - started,
            "blocks_per_s": measured / elapsed,
            "timed_blocks_per_s": measured / elapsed,
            "qc_inclusion": metrics.average_qc_size / size,
            "views_ok_ratio": 1.0 - metrics.failed_view_fraction,
            "latency_p50_ms": quantile(sorted(latencies), 0.50) * 1000.0,
            "goodput_ops_s": ops / elapsed,
            "ops_served_ratio": ops / (measured * spec.batch_size),
            "attempted": measured * spec.batch_size,
            "failed": measured * spec.batch_size - ops,
        }
        if trace:
            blocks = max(len(s) for s in series.values())
            cell["layers"] = layer_metrics(snapshot, blocks, live_counters(result, blocks))
        return cell

    def run(self, seed: int, seconds: float, trace: bool, sabotage: str) -> Outcome:
        return repeat_cells(
            lambda cell_seed, probe, traced: self.cell(cell_seed, probe, traced, sabotage),
            seed, seconds, self.cell_seconds, trace,
        )


def cell_seeds(seed: int, count: int) -> List[int]:
    """The input seeds of a run's cells, a function of ``--seed`` alone.

    Each cell of a run serves its own inputs, so a run's medians average
    over several committees and schedules instead of resting on one.
    """
    return [seed * 1000 + index for index in range(count)]


def repeat_cells(
    cell: Callable[[int, Probe, bool], Dict[str, Any]],
    seed: int,
    seconds: float,
    cell_seconds: float,
    trace: bool,
    exact: tuple = (),
) -> Outcome:
    """Run as many cells as ``seconds`` holds (at least two), report medians.

    The cell count comes from ``seconds`` and the workload's typical cell
    length, not from the clock, so a seed always gives the same inputs.
    Untraced runs report every end-to-end metric as the median over
    cells, except the ``exact`` ones: they repeat exactly for a cell
    seed, so they have no noise for a median to reject, and their mean
    lets every cell count, slow ones included.  Traced runs serve each input twice, untraced then traced, and
    report the per-layer metrics of the traced cells and the tracing
    overhead as the relative loss of ``timed_blocks_per_s`` (blocks per
    measured second) between the two medians.
    """
    count = max(2, round(seconds / cell_seconds))
    seeds = cell_seeds(seed, max(1, count // 2) if trace else count)
    probe = Probe()
    probe.install()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    try:
        for cell_seed in seeds:
            plain.append(cell(cell_seed, probe, False))
            if trace:
                probe.uninstall()
                probe.install(trace=True)
                try:
                    traced.append(cell(cell_seed, probe, True))
                finally:
                    probe.uninstall()
                    probe.install()
    finally:
        probe.uninstall()
    outcome = Outcome(
        attempted=sum(c["attempted"] for c in plain + traced),
        failed=sum(c["failed"] for c in plain + traced),
    )
    if trace:
        for cell in traced:
            check_reconciled(cell["layers"])
        layers = median_metrics([c["layers"] for c in traced])
        layers["trace.overhead_share"] = 1.0 - (
            statistics.median(c["timed_blocks_per_s"] for c in traced)
            / statistics.median(c["timed_blocks_per_s"] for c in plain)
        )
        outcome.metrics = layers
        return outcome
    metrics = median_metrics(plain)
    metrics.update({key: statistics.mean(c[key] for c in plain) for key in exact})
    outcome.metrics = single_level(metrics)
    return outcome


def single_level(cell: Dict[str, float]) -> Dict[str, float]:
    """End-to-end metrics of a workload with one load level.

    It has no open-loop steps, so the three step names carry the one
    latency it has and capacity is the goodput of its saturated backlog.
    """
    metrics = {
        key: cell[key]
        for key in ("setup_s", "blocks_per_s", "qc_inclusion", "views_ok_ratio", "goodput_ops_s", "ops_served_ratio")
    }
    metrics["capacity_ops_s"] = cell["goodput_ops_s"]
    for step, _ in OPEN_STEPS:
        metrics[f"latency_p50_ms.{step}"] = cell["latency_p50_ms"]
    return metrics


# -- sim-n64-crash5 ----------------------------------------------------------------
def sabotage_sim_chain(deployment: Any) -> None:
    """Self-test of the fork gate: one correct replica commits a forged block.

    The lowest block it committed is swapped for a copy with another
    payload (so another block id) at the same height.
    """
    replica = deployment.correct_replicas()[0]
    committed = [replica.blocks[block_id] for block_id in replica.committed_blocks]
    original = min((b for b in committed if not b.is_genesis), key=lambda b: b.height)
    forged = replace(original, payload=original.payload + (-1,))
    replica.committed_blocks.discard(original.block_id)
    replica.blocks[forged.block_id] = forged
    replica.committed_blocks.add(forged.block_id)


def sim_cell(seed: int, probe: Probe, trace: bool, sabotage: str) -> Dict[str, Any]:
    # Rates are per virtual second: they repeat exactly for a cell seed.
    # The simulator's own speed is not an end-to-end metric here (the same
    # cell's CPU time moved by half between runs minutes apart, see
    # README.md); it shows in trace.overhead_share's base and in
    # simnet.self_ms.  Set-up is timed in process CPU time.
    fresh_cell(probe)
    spec = sim_spec(seed)
    started = time.process_time()
    deployment = api.deploy(spec)
    deployment.start()
    setup = time.process_time() - started
    began = time.process_time()
    deployment.simulator.run(until=SIM_VIRTUAL_S)
    cpu = time.process_time() - began
    result = summarise(deployment, SIM_VIRTUAL_S)
    if sabotage == "fork":
        sabotage_sim_chain(deployment)
    forks = check_no_forks(deployment)
    if not forks.holds:
        raise GateError(f"sim forked: {forks.violations[:1]}")
    # Inclusiveness is counted, not gated: at this configuration about one
    # cell in forty forms a certificate, under a correct leader and
    # collector, that misses one correct vote (see README.md).  Every run
    # reports such certificates as failed operations.
    inclusive = check_inclusiveness(deployment)
    noninclusive = len(inclusive.violations)
    for violation in inclusive.violations:
        print(f"sim-n64-crash5 cell {seed}: {violation}", file=sys.stderr)
    if result.committed_blocks < SIM_MIN_BLOCKS:
        raise GateError(f"sim committed {result.committed_blocks} < {SIM_MIN_BLOCKS} blocks")
    correct = len(deployment.correct_replicas())
    submitted = deployment.mempool.submitted_count
    cell = {
        "setup_s": setup,
        "blocks_per_s": result.committed_blocks / SIM_VIRTUAL_S,
        "timed_blocks_per_s": result.committed_blocks / cpu,
        "qc_inclusion": result.average_qc_size / correct,
        "views_ok_ratio": 1.0 - result.failed_view_fraction,
        # Request latency from arrival to commit, in virtual time.
        "latency_p50_ms": result.latency.median * 1000.0,
        "goodput_ops_s": result.committed_operations / SIM_VIRTUAL_S,
        "ops_served_ratio": result.committed_operations / submitted,
        # The sim's checked operations are its certificates.
        "attempted": inclusive.checked,
        "failed": noninclusive,
    }
    if trace:
        snapshot = probe.snapshot()
        blocks = result.committed_blocks
        cell["layers"] = layer_metrics(snapshot, blocks, {
            "aggregation.second_chance_votes": result.second_chance_inclusions / blocks,
            "aggregation.votes_per_qc": result.average_qc_size,
            "consensus.views": result.total_views / blocks,
            "mempool.ops_per_block": result.committed_operations / blocks,
            "aggregation.noninclusive_qcs": float(noninclusive),
            "fabric.fast_path_msgs": 0.0,
            "clients.admission_rejects": 0.0,
            "resilience.suspicions": 0.0,
        })
    return cell


#: The sim's end-to-end metrics that repeat exactly for a cell seed.
SIM_EXACT = (
    "blocks_per_s", "qc_inclusion", "views_ok_ratio", "latency_p50_ms",
    "goodput_ops_s", "ops_served_ratio",
)


def run_sim(seed: int, seconds: float, trace: bool, sabotage: str) -> Outcome:
    return repeat_cells(
        lambda cell_seed, probe, traced: sim_cell(cell_seed, probe, traced, sabotage),
        seed, seconds, SIM_CELL_S, trace, exact=SIM_EXACT,
    )


# -- open-n4 -------------------------------------------------------------------------
class Generator:
    """The benchmark-owned open-loop generator process (``generator.py``)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "generator.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def start(self, command: Dict[str, Any]) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def result(self, timeout: float) -> Dict[str, Any]:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise GateError("the request generator returned no summary")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def open_step(
    generator: Generator, probe: Probe, seed: int, rate: float, measure: float, sabotage: str
) -> Dict[str, Any]:
    """Serve one offered-load step of open-n4 and gate its outputs."""
    fresh_cell(probe)
    spec = open_spec(seed)
    command = {
        "rate": rate, "warmup": OPEN_WARMUP_S, "measure": measure,
        "drain": OPEN_DRAIN_S, "seed": seed,
    }
    serve = WorkerFabric.serve

    async def serve_and_dial(fabric: WorkerFabric, port: int = 0) -> int:
        bound = await serve(fabric, port)
        generator.start({**command, "port": bound})
        return bound

    WorkerFabric.serve = serve_and_dial
    try:
        started = time.process_time()
        cluster = LiveCluster(
            spec=spec, duration=OPEN_WARMUP_S + measure + OPEN_DRAIN_S + 0.3
        )
        result = cluster.run()
    finally:
        WorkerFabric.serve = serve
    summary = generator.result(timeout=10.0)
    orders = {pid: cluster.committed_order(pid) for pid in range(spec.committee.size)}
    if sabotage == "fork":
        sabotage_orders(orders)
    check_prefixes(orders)
    if summary["stray_replies"]:
        raise GateError(f"{summary['stray_replies']} replies name requests never sent")
    if summary["late_p99_s"] > OPEN_LATE_BOUND_S:
        raise GeneratorBehind(
            f"generator fell behind: p99 send lateness {summary['late_p99_s'] * 1000:.1f} ms"
        )
    if summary["answered"] == 0:
        raise GateError("no request was answered")
    snapshot = probe.snapshot()
    if snapshot["started_cpu_s"] is None:
        raise GateError("the protocol never started")
    metrics = result.metrics
    first, last = summary["first_third_p50_s"], summary["last_third_p50_s"]
    # Commit rate of the fastest replica in each fifth of the measured
    # window (node clocks count from the protocol start, the generator's
    # from its connect, a few milliseconds apart).
    observer = max(commit_series(snapshot).values(), key=len)
    slice_s = measure / OPEN_SLICES
    rates = [
        sum(1 for when, _, _ in observer if lo <= when < lo + slice_s) / slice_s
        for lo in (OPEN_WARMUP_S + k * slice_s for k in range(OPEN_SLICES))
    ]
    return {
        "summary": summary,
        "result": result,
        "snapshot": snapshot,
        "setup_s": snapshot["started_cpu_s"] - started,
        "blocks_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(summary["window_p50_s"]) * 1000.0,
        "qc_inclusion": metrics.average_qc_size / spec.committee.size,
        "views_ok_ratio": 1.0 - metrics.failed_view_fraction,
        "goodput_ops_s": summary["answered"] / measure,
        "steady": (
            summary["latency_p99_s"] <= OPEN_P99_LIMIT_S
            and summary["answered"] >= 0.999 * summary["due"]
            and last <= OPEN_BACKLOG_FACTOR * first + 0.020
        ),
    }


def serve_step(
    generator: Generator, probe: Probe, seed: int, rate: float, measure: float, sabotage: str
) -> Dict[str, Any]:
    """Serve a step; serve it once more if the generator fell behind.

    The generator is its own process, so it falls behind when the host
    stalls it (on a shared 2-vCPU VM, about one step in thirty).  Such a
    step is discarded, not recorded, and served again on the same inputs;
    a step whose generator falls behind twice refuses the run.
    """
    try:
        return open_step(generator, probe, seed, rate, measure, sabotage)
    except GeneratorBehind as exc:
        print(f"open-n4: {exc}; serving the step once more", file=sys.stderr)
        return open_step(generator, probe, seed, rate, measure, sabotage)


def run_open(seed: int, seconds: float, trace: bool, sabotage: str) -> Outcome:
    probe = Probe()
    generator = Generator()
    try:
        if trace:
            return _open_traced(generator, probe, seed, seconds, sabotage)
        probe.install()
        try:
            measure = max(1.0, (seconds - 3 * (OPEN_WARMUP_S + OPEN_DRAIN_S + 0.4)) / 3)
            steps = [
                (name, serve_step(generator, probe, step_seed, share * OPEN_SATURATION, measure, sabotage))
                for (name, share), step_seed in zip(OPEN_STEPS, cell_seeds(seed, len(OPEN_STEPS)))
            ]
        finally:
            probe.uninstall()
    finally:
        generator.close()
    outcome = Outcome(
        attempted=sum(step["summary"]["due"] for _, step in steps),
        failed=sum(step["summary"]["due"] - step["summary"]["answered"] for _, step in steps),
    )
    low, high = steps[0][1], steps[-1][1]
    capacity = 0.0
    for _, step in steps:
        if step["steady"]:
            capacity = step["goodput_ops_s"]
    metrics = {
        "setup_s": statistics.median(step["setup_s"] for _, step in steps),
        # At low load the commit rate is the protocol's pacing; near the
        # knee it falls as blocks grow, which latency already shows.
        "blocks_per_s": low["blocks_per_s"],
        "qc_inclusion": statistics.mean(step["qc_inclusion"] for _, step in steps),
        "views_ok_ratio": statistics.mean(step["views_ok_ratio"] for _, step in steps),
        "goodput_ops_s": high["goodput_ops_s"],
        "capacity_ops_s": capacity,
        "ops_served_ratio": 1.0 - outcome.failed / outcome.attempted,
    }
    for name, step in steps:
        metrics[f"latency_p50_ms.{name}"] = step["latency_p50_ms"]
        summary = step["summary"]
        print(
            f"open-n4 {name}: {summary['answered']}/{summary['due']} answered, "
            f"{summary['due'] - summary['sent']} never sent, {summary['rejected']} rejected, "
            f"p50 {step['latency_p50_ms']:.1f} ms, p99 {summary['latency_p99_s'] * 1000:.1f} ms, "
            f"thirds {summary['first_third_p50_s'] * 1000:.1f}->{summary['last_third_p50_s'] * 1000:.1f} ms, "
            f"late p50 {summary['late_p50_s'] * 1000:.2f} ms, "
            f"slices {[round(x * 1000, 1) for x in summary['window_p50_s']]}, "
            f"steady={step['steady']}",
            file=sys.stderr,
        )
    outcome.metrics = metrics
    return outcome


def _open_traced(generator: Generator, probe: Probe, seed: int, seconds: float, sabotage: str) -> Outcome:
    """Mid step untraced, then traced: per-layer metrics and overhead."""
    measure = max(1.0, (seconds - 2 * (OPEN_WARMUP_S + OPEN_DRAIN_S + 0.4)) / 2)
    rate = dict(OPEN_STEPS)["mid"] * OPEN_SATURATION
    step_seed = cell_seeds(seed, 1)[0]
    probe.install()
    try:
        plain = serve_step(generator, probe, step_seed, rate, measure, sabotage)
    finally:
        probe.uninstall()
    probe.install(trace=True)
    try:
        traced = serve_step(generator, probe, step_seed, rate, measure, sabotage)
    finally:
        probe.uninstall()
    result = traced["result"]
    blocks = result.metrics.committed_blocks
    extra = live_counters(result, blocks)
    extra["clients.generator_late_p99_ms"] = traced["summary"]["late_p99_s"] * 1000.0
    metrics = layer_metrics(traced["snapshot"], blocks, extra)
    check_reconciled(metrics)
    metrics["trace.overhead_share"] = traced["latency_p50_ms"] / plain["latency_p50_ms"] - 1.0
    due = plain["summary"]["due"] + traced["summary"]["due"]
    answered = plain["summary"]["answered"] + traced["summary"]["answered"]
    return Outcome(attempted=due, failed=due - answered, metrics=metrics)


#: Every workload ``--workload`` accepts.
WORKLOADS: Dict[str, Callable[[int, float, bool, str], Outcome]] = {
    "open-n4": run_open,
    "bls-n16": FixedWork(bls_spec, work=BLS_WORK, cell_seconds=3.75).run,
    "sim-n64-crash5": run_sim,
}
