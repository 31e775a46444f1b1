"""Live-runtime performance tracker: emits ``BENCH_LIVE.json``.

Run as a script (not collected by pytest — the tier-1 suite lives in
``tests/``)::

    PYTHONPATH=src python benchmarks/bench_live.py [output.json] [--quick] [--procs N]
    PYTHONPATH=src python benchmarks/bench_live.py smoke.json --smoke
    PYTHONPATH=src python benchmarks/bench_live.py smoke.json --scaling-smoke
    PYTHONPATH=src python benchmarks/bench_live.py smoke.json --tracing-smoke

Benchmarks the asyncio localhost-TCP cluster (:mod:`repro.runtime.live`)
on a 4-replica committee: blocks/sec and ops/sec actually served over
real sockets with the versioned wire codec, per-scheme (star vs iniva)
and per-backend (hashsig vs bls); a shaped-link row (five-region WAN
matrix + 1% loss through the :mod:`repro.chaos` pipeline); a
crash-restart row measuring catch-up sync and *time to rejoin* (recovery
to first post-recovery commit — the resilience layer's headline number);
and raw codec rates including the batched-vs-unbatched framing
comparison.  A ``hot_path`` section carries before/after cells for the
two hot-path fronts (optimistic responsiveness, zero-copy codec) so each
one's effect is tracked on its own.  Because
the ``clusters`` cells preload their workload at time zero, their
per-request timing is reported as *time to commit* since cluster start,
not client service latency.

The ``saturation`` section is the open-loop counterpart: a real client
swarm (:mod:`repro.clients`) drives each cluster over the wire at a
fixed offered load, and each cell reports goodput (first-reply commits
per second), *client-observed* p50/p99 latency, peak queue depth and
admission drops — swept over ≥4 offered loads per (scheme × link)
curve, star vs iniva on clean and WAN links.  ``--smoke`` runs the one
mid-curve cell CI's ``clients-smoke`` stage gates on and writes just
that cell's document.

The ``scaling`` section is the scale-out fabric's committee-size sweep:
n ∈ {4, 16, 50, 100, 200}, star vs iniva, clean and WAN-shaped links,
all in task mode (one worker hosting every replica — the colocated fast
path carries the whole committee with **zero** inter-replica TCP
connections, which is exactly what makes n=200 feasible on one box).  A
``fabric_demo`` cell additionally runs n=100 over ``--procs 4`` worker
subprocesses to show the multiplexed transport's headline: 12 worker-pair
sessions where a per-replica mesh would hold 9 900.  ``--scaling-smoke``
runs the one n=50 cell CI's ``scaling-smoke`` stage gates on and writes
just that cell's document.

The ``tracing`` section is the observability layer's overhead contract:
the same n=4 clean cluster with :mod:`repro.observe` tracing off vs on
at ``sample_rate=1.0``, reporting the blocks/sec delta against the 5%
budget.  ``--tracing-smoke`` runs just that cell and **exits non-zero**
when the budget is blown, which is what CI's ``trace-smoke`` stage
gates on.
This tracks the live-runtime trajectory next to the simulator-side
``BENCH_PERF.json``; note that since the chaos layer landed, clusters
emulate their spec's topology (the 0.5 ms links below are *shaped*, so
numbers are not comparable with pre-chaos revisions that ignored the
latency model).

``--quick`` (what CI's bench stage runs) shortens the serving window so
the tracker finishes in a few seconds; ``--procs N`` spreads the
replicas over worker subprocesses instead of one event loop.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from repro.runtime.codec import WireCodec
from repro.runtime.live import LiveCluster
from repro.scenarios.spec import (
    CommitteeSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


def _bench_spec(aggregation: str, signature_scheme: str, duration: float) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"bench-live-{aggregation}-{signature_scheme}",
        aggregation=aggregation,
        signature_scheme=signature_scheme,
        batch_size=100,
        duration=duration,
        warmup=0.0,
        seed=1,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=0.25,
        committee=CommitteeSpec(size=4),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=20_000, payload_size=64, preload=True),
    )


def _wan_spec(duration: float) -> ScenarioSpec:
    """Shaped-link cell: committee over the 5-region WAN matrix, 1% loss."""
    return _bench_spec("iniva", "hashsig", duration).with_(
        name="bench-live-wan-lossy",
        topology={
            "kind": "wan",
            "regions": 5,
            "intra_delay": 0.0005,
            "jitter": 0.1,
            "loss_probability": 0.01,
        },
    )


def run_cell(
    spec: ScenarioSpec,
    duration: float,
    *,
    procs: int = 1,
    target_blocks: int | None = None,
    fast_path: bool = True,
):
    """The one shared boot/measure/teardown path under every cluster cell.

    Builds the :class:`LiveCluster`, serves the window (until ``duration``
    wall seconds or ``target_blocks`` commits), tears it down, and returns
    ``(result, base)`` where ``base`` is the block-level measurement dict
    every section starts from.  The clusters, scaling, saturation,
    hot-path and recovery sections all layer their section-specific
    columns on top of this instead of re-rolling the lifecycle.
    """
    cluster = LiveCluster(
        spec=spec,
        duration=duration,
        procs=procs,
        target_blocks=target_blocks,
        fast_path=fast_path,
    )
    result = cluster.run()
    metrics = result.metrics
    window = metrics.duration or 1e-9
    base = {
        "duration_s": round(metrics.duration, 3),
        "wall_clock_s": round(result.wall_clock_seconds, 3),
        "committed_blocks": metrics.committed_blocks,
        "blocks_per_sec": round(metrics.committed_blocks / window, 1),
    }
    return result, base


def bench_cluster(
    aggregation: str, signature_scheme: str, duration: float, procs: int,
    spec: ScenarioSpec | None = None, label: str | None = None,
) -> dict:
    spec = spec if spec is not None else _bench_spec(aggregation, signature_scheme, duration)
    result, base = run_cell(spec, duration, procs=procs)
    metrics = result.metrics
    sent = sum(c["messages_sent"] for c in result.transport.values())
    return {
        "label": label
        or f"{aggregation}/{signature_scheme} n=4"
        + (f" procs={procs}" if procs > 1 else ""),
        **base,
        "throughput_ops_per_sec": round(metrics.throughput, 1),
        # The live workload is preloaded at t=0, so per-request "latency"
        # is really time from cluster start to commit — report it as such
        # rather than pretending it is client-perceived service latency.
        "time_to_commit_mean_ms": round(metrics.latency.mean * 1000, 2),
        "time_to_commit_p90_ms": round(metrics.latency.p90 * 1000, 2),
        "avg_qc_size": round(metrics.average_qc_size, 2),
        "messages_sent_total": sent,
        "messages_per_sec": round(sent / metrics.duration, 1),
        "messages_dropped": metrics.message_counters["messages_dropped"],
    }


#: The zero-copy codec front replaced the copying decoder outright, so its
#: "before" column is the last committed measurement of the old code (same
#: machine class, same --quick protocol) rather than a live re-run.
CODEC_BEFORE = {
    "label": "copying decoder (pre zero-copy, committed baseline)",
    "encode_us": 47.79,
    "decode_us": 121.65,
    "decode_per_sec": 8220.1,
}


def bench_hot_path(duration: float, procs: int) -> dict:
    """Before/after cell for optimistic responsiveness.

    Both cluster cells run iniva/bls — the hardware-bound configuration
    where signature verification dominates — with the same spec except for
    the knob under test.

    Like the WAN and recovery cells, these windows have a floor (2.5 s)
    even under ``--quick``: the hardware-bound cells ramp as the scheme's
    pairing and weighted-key caches warm, so a 1 s window mostly measures
    warm-up.
    """
    window = max(duration, 2.5)

    def cell(label: str, **knobs) -> dict:
        spec = _bench_spec("iniva", "bls", window)
        if knobs:
            spec = spec.with_(**knobs)
        return bench_cluster(
            "iniva", "bls", window, procs, spec=spec,
            label=f"iniva/bls n=4 {label}",
        )

    return {
        "optimistic_responsiveness": {
            "before": cell("knobs=off"),
            "after": cell("optimistic", optimistic_responsiveness=True),
        },
    }


def bench_recovery(duration: float) -> dict:
    """Crash-restart cell: one replica down mid-window, then catching up.

    Always runs in task mode (the scheduled fault driver needs it) and
    reports the resilience layer's headline number — time to rejoin: the
    gap between the replica's recovery and its first post-recovery commit
    through the ordinary three-chain rule, with catch-up sync closing the
    committed-block gap in between.
    """
    spec = _bench_spec("iniva", "hashsig", duration).with_(
        name="bench-live-crash-restart",
        view_timeout=0.15,
        faults={"crashes": 1, "crash_at": duration * 0.3, "restart_at": duration * 0.6},
        resilience={"phi_threshold": 6.0},
        workload={"rate": 2000},
    )
    result, base = run_cell(spec, duration)
    per_replica = result.resilience.get("per_replica", {})
    record = next((r for r in per_replica.values() if r.get("restarts")), {})
    rejoin = record.get("time_to_rejoin")
    return {
        "label": "iniva/hashsig n=4 crash-restart",
        **base,
        "catchup_blocks": record.get("catchup_blocks", 0),
        "sync_requests_sent": record.get("sync_requests_sent", 0),
        "time_to_rejoin_ms": None if rejoin is None else round(rejoin * 1000, 2),
        "suspicions_raised": sum(
            len(r.get("suspicions", [])) for r in per_replica.values()
        ),
    }


#: Offered-load sweep per link profile, requests/sec.  WAN capacity is an
#: order of magnitude below clean-link capacity (commit interval is a few
#: cross-region RTTs), so its loads sweep a lower band.
SATURATION_LOADS = {
    "clean": (500.0, 1_000.0, 2_000.0, 4_000.0),
    "wan": (250.0, 500.0, 1_000.0, 2_000.0),
}

#: The CI ``clients-smoke`` gate runs exactly this cell and compares its
#: goodput against the committed curve point below.
SMOKE_CELL = {"scheme": "iniva", "link": "clean", "offered_load": 1_000.0}


def _saturation_spec(
    aggregation: str, link: str, rate: float, duration: float
) -> ScenarioSpec:
    if link == "clean":
        topology = TopologySpec(kind="constant", intra_delay=0.0005)
        view_timeout = 0.25
    else:
        topology = TopologySpec(kind="wan", regions=5, intra_delay=0.0005, jitter=0.1)
        view_timeout = 0.6
    return ScenarioSpec(
        name=f"bench-sat-{aggregation}-{link}-{int(rate)}",
        aggregation=aggregation,
        signature_scheme="hashsig",
        batch_size=100,
        duration=duration,
        warmup=0.0,
        seed=1,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=view_timeout,
        committee=CommitteeSpec(size=4),
        topology=topology,
        # Open loop: no preload — a live swarm of 32 poisson clients
        # drives the cluster over TCP; the bounded pending queue makes
        # overload legible as admission drops instead of unbounded RAM.
        workload=WorkloadSpec(
            rate=rate,
            payload_size=64,
            num_clients=32,
            seed=1,
            arrival="poisson",
            max_pending=20_000,
        ),
    )


def saturation_cell(
    aggregation: str, link: str, rate: float, duration: float, procs: int
) -> dict:
    """One offered-load point: run the swarm, report the client view."""
    spec = _saturation_spec(aggregation, link, rate, duration)
    result, _ = run_cell(spec, duration, procs=procs)
    clients = result.clients
    admission = clients.get("admission", {})
    latency = clients.get("latency_ms", {})
    swarm = clients.get("swarm", {})
    return {
        "offered_load_ops_per_sec": rate,
        "issued": swarm.get("issued", 0),
        "completed": swarm.get("completed", 0),
        "goodput_ops_per_sec": round(clients.get("goodput", 0.0), 1),
        "latency_p50_ms": latency.get("p50_ms", 0.0),
        "latency_p99_ms": latency.get("p99_ms", 0.0),
        "peak_queue_depth": admission.get("peak_pending", 0),
        "admission_drops": admission.get("dropped", 0),
        "admission_deferred": admission.get("deferred", 0),
        "rejected_frames": swarm.get("rejected_frames", {}),
    }


def bench_saturation(duration: float, procs: int) -> dict:
    """Offered-load vs goodput/latency curves, star vs iniva × clean/WAN.

    Every window has a floor even under ``--quick`` (clean 1.5 s, WAN
    2.5 s): an open-loop curve point needs enough commits past the
    connection ramp for its percentiles to mean anything, and WAN commit
    intervals are several hundred ms.
    """
    curves = []
    for link, loads in SATURATION_LOADS.items():
        window = max(duration, 1.5 if link == "clean" else 2.5)
        for aggregation in ("star", "iniva"):
            points = [
                saturation_cell(aggregation, link, load, window, procs)
                for load in loads
            ]
            curves.append(
                {
                    "scheme": aggregation,
                    "link": link,
                    "window_s": window,
                    "points": points,
                }
            )
    return {
        "num_clients": 32,
        "arrival": "poisson",
        "max_pending": 20_000,
        "curves": curves,
    }


def bench_smoke(duration: float) -> dict:
    """The single saturation cell CI's ``clients-smoke`` stage gates on."""
    window = max(duration, 2.5)
    cell = saturation_cell(
        SMOKE_CELL["scheme"], SMOKE_CELL["link"], SMOKE_CELL["offered_load"],
        window, procs=1,
    )
    return {"benchmark": "clients-smoke", **SMOKE_CELL, "window_s": window, "cell": cell}


#: Committee sizes of the scale-out sweep.  ``--quick`` stops at 50 so
#: CI's bench stage stays fast; the committed tracker carries all five.
SCALING_SIZES = (4, 16, 50, 100, 200)
SCALING_QUICK_SIZES = (4, 16, 50)

#: The CI ``scaling-smoke`` gate runs exactly this cell and compares its
#: blocks/sec against the committed scaling-curve point below.
SCALING_SMOKE_CELL = {"scheme": "iniva", "link": "clean", "n": 50}


def _scaling_spec(aggregation: str, size: int, link: str) -> ScenarioSpec:
    """One committee-size point of the scale-out sweep.

    The preload is sized per replica (``rate × spec.duration`` requests)
    rather than per serving window, so the n=200 cell stays in memory;
    the actual window is governed by the cluster's wall cap and block
    target.  The view timeout grows with n: a 200-replica committee on
    one event loop pays O(n²) Python message handling per view, and a
    timeout tuned for n=4 would thrash view changes instead of measuring
    steady state.
    """
    if link == "clean":
        topology = TopologySpec(kind="constant", intra_delay=0.0005)
        view_timeout = max(0.25, 0.012 * size)
        second_chance = 0.005
    else:
        # Shaped but lossless: five-region WAN delays with 10% jitter.
        # (The lossy WAN cell lives in ``clusters``; here the sweep keeps
        # every (scheme × n) pair comparable without retransmit noise.)
        topology = TopologySpec(kind="wan", regions=5, intra_delay=0.0005, jitter=0.1)
        view_timeout = max(0.8, 0.025 * size)
        second_chance = 0.05
    return ScenarioSpec(
        name=f"bench-scaling-{aggregation}-{link}-n{size}",
        aggregation=aggregation,
        signature_scheme="hashsig",
        batch_size=100,
        duration=4.0,  # preload window: 500 req/s × 4 s = 2 000 per replica
        warmup=0.0,
        seed=1,
        delta=0.0025,
        second_chance_timeout=second_chance,
        view_timeout=view_timeout,
        committee=CommitteeSpec(size=size),
        topology=topology,
        workload=WorkloadSpec(rate=500, payload_size=64, preload=True),
    )


def scaling_point(
    aggregation: str,
    size: int,
    link: str,
    *,
    procs: int = 1,
    duration_cap: float,
    target_blocks: int,
) -> dict:
    """One (scheme × n × link) cell, with the fabric's transport telemetry."""
    spec = _scaling_spec(aggregation, size, link)
    result, base = run_cell(
        spec, duration_cap, procs=procs, target_blocks=target_blocks
    )
    fabric = result.resilience.get("cluster", {}).get("fabric", {})
    sent = sum(c["messages_sent"] for c in result.transport.values())
    return {
        "n": size,
        **base,
        "throughput_ops_per_sec": round(result.metrics.throughput, 1),
        "view_timeout_s": spec.view_timeout,
        "messages_sent_total": sent,
        "workers": fabric.get("workers", 1),
        "sessions_total": fabric.get("sessions_total", 0),
        "naive_pairwise_sessions": fabric.get("naive_pairwise_sessions", 0),
        "fast_path_messages": fabric.get("fast_path_messages", 0),
        "tcp_messages": fabric.get("tcp_messages", 0),
    }


def bench_scaling(quick: bool) -> dict:
    """Committee-size curves, star vs iniva × clean/WAN, plus the fabric demo.

    Window caps scale with n (big committees need longer to clear the
    epoch barrier and first views) but every cell exits early on its
    block target, so the sweep's cost tracks committee size, not caps.
    """
    sizes = SCALING_QUICK_SIZES if quick else SCALING_SIZES
    links = ("clean",) if quick else ("clean", "wan")
    curves = []
    for link in links:
        for aggregation in ("star", "iniva"):
            points = []
            for size in sizes:
                if link == "clean":
                    cap, target = 10.0 + 0.2 * size, 6
                else:
                    cap, target = 20.0 + 0.5 * size, 3
                points.append(
                    scaling_point(
                        aggregation, size, link,
                        duration_cap=cap, target_blocks=target,
                    )
                )
            curves.append({"scheme": aggregation, "link": link, "points": points})
    # The multiplexed-transport headline: n replicas spread over w worker
    # subprocesses hold w·(w−1) directed sessions, not n·(n−1).
    demo_n, demo_procs = (16, 2) if quick else (100, 4)
    demo = scaling_point(
        "iniva", demo_n, "clean",
        procs=demo_procs, duration_cap=10.0 + 0.3 * demo_n, target_blocks=3,
    )
    return {
        "mode": "task (single worker, colocated fast path) unless noted",
        "signature_scheme": "hashsig",
        "sizes": list(sizes),
        "curves": curves,
        "fabric_demo": {"procs": demo_procs, **demo},
    }


def bench_scaling_smoke(duration: float) -> dict:
    """The single scaling cell CI's ``scaling-smoke`` stage gates on."""
    # A deeper block target than the sweep's: the gate compares blocks/sec
    # ratios, so the measured window must be long enough to dominate
    # per-view jitter on a noisy CI machine.
    cell = scaling_point(
        SCALING_SMOKE_CELL["scheme"], SCALING_SMOKE_CELL["n"],
        SCALING_SMOKE_CELL["link"],
        duration_cap=max(duration, 20.0), target_blocks=12,
    )
    return {"benchmark": "scaling-smoke", **SCALING_SMOKE_CELL, "cell": cell}


#: The tracing-overhead gate: a fully-sampled trace may cost at most this
#: fraction of clean-cluster blocks/sec.  CI's ``trace-smoke`` stage runs
#: ``--tracing-smoke`` and fails the build when ``within_budget`` is false.
TRACING_OVERHEAD_BUDGET_PCT = 5.0


def bench_tracing(duration: float) -> dict:
    """Tracing-overhead cell: the same n=4 clean cluster, tracing off vs on.

    Both cells run iniva/hashsig with the full event taxonomy at
    ``sample_rate=1.0`` — the *worst case*, since production tracing is
    expected to sample.  The window has a floor (2.5 s) even under
    ``--quick``: the overhead is a ratio of two noisy throughput
    measurements, so each side needs enough committed blocks for the
    comparison to mean anything.
    """
    window = max(duration, 2.5)
    spec = _bench_spec("iniva", "hashsig", window)
    _, off = run_cell(spec, window)
    traced = spec.with_(
        name="bench-live-traced",
        observe={"enabled": True, "sample_rate": 1.0},
    )
    result, on = run_cell(traced, window)
    trace = result.observability["trace"]
    overhead_pct = round(
        100.0 * (1.0 - on["blocks_per_sec"] / max(off["blocks_per_sec"], 1e-9)), 1
    )
    return {
        "label": "iniva/hashsig n=4 tracing off vs on (sample_rate=1.0)",
        "window_s": window,
        "tracing_off": off,
        "tracing_on": on,
        "events_recorded": len(trace["events"]),
        "events_dropped": trace.get("dropped", 0),
        "overhead_pct": overhead_pct,
        "budget_pct": TRACING_OVERHEAD_BUDGET_PCT,
        "within_budget": overhead_pct <= TRACING_OVERHEAD_BUDGET_PCT,
    }


def bench_tracing_smoke(duration: float) -> dict:
    """The tracing-overhead cell CI's ``trace-smoke`` stage gates on."""
    return {"benchmark": "trace-smoke", "cell": bench_tracing(duration)}


def bench_codec(reps: int) -> dict:
    """Raw encode/decode rates, single frames vs one v2 batch frame."""
    from repro.consensus.block import Block, genesis_qc

    codec = WireCodec()
    from repro.aggregation.messages import ProposalMessage, SignatureMessage
    from repro.crypto.multisig import SignatureShare

    block = Block(
        height=3, view=3, proposer=1, parent_id="a" * 32, qc=genesis_qc(),
        payload=tuple(range(100)), payload_bytes=6400, timestamp=1.0,
    )
    message = ProposalMessage(block)
    frame = codec.encode(message)

    def timed(fn) -> float:
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(reps):
                fn()
            samples.append((time.perf_counter() - start) / reps)
        return statistics.median(samples)

    encode_s = timed(lambda: codec.encode(message))
    decode_s = timed(lambda: codec.decode(frame))

    # Batched vs unbatched framing: 16 vote messages flushed as sixteen
    # individual frames vs one multi-message batch frame (what a peer
    # writer does when a backlog forms behind a shaped link).
    votes = [
        SignatureMessage(
            block_id=block.block_id, view=3,
            signature=SignatureShare(signer=pid, value=10**30 + pid),
        )
        for pid in range(16)
    ]
    unbatched_bytes = sum(len(codec.frame(vote)) for vote in votes)
    batch_frame = codec.frame_batch(votes)
    unbatched_s = timed(lambda: [codec.frame(vote) for vote in votes])
    batched_s = timed(lambda: codec.frame_batch(votes))
    return {
        "frame_bytes": len(frame),
        "encode_us": round(encode_s * 1e6, 2),
        "decode_us": round(decode_s * 1e6, 2),
        "encode_per_sec": round(1.0 / encode_s, 1),
        "decode_per_sec": round(1.0 / decode_s, 1),
        "batch_of_16_votes": {
            "unbatched_bytes": unbatched_bytes,
            "batched_bytes": len(batch_frame),
            "bytes_saved_pct": round(
                100.0 * (1 - len(batch_frame) / unbatched_bytes), 1
            ),
            "unbatched_encode_us": round(unbatched_s * 1e6, 2),
            "batched_encode_us": round(batched_s * 1e6, 2),
        },
    }


def main(argv) -> int:
    out_path = Path("benchmarks/BENCH_LIVE.json")
    quick = "--quick" in argv
    smoke = "--smoke" in argv
    scaling_smoke = "--scaling-smoke" in argv
    tracing_smoke = "--tracing-smoke" in argv
    procs = 1
    positional = []
    skip_next = False
    for index, arg in enumerate(argv):
        if skip_next:
            skip_next = False
            continue
        if arg in ("--quick", "--smoke", "--scaling-smoke", "--tracing-smoke"):
            continue
        if arg == "--procs":
            if index + 1 >= len(argv):
                print(
                    "usage: bench_live.py [output.json] [--quick] [--smoke]"
                    " [--scaling-smoke] [--procs N]"
                )
                return 2
            procs = int(argv[index + 1])
            skip_next = True
            continue
        positional.append(arg)
    if positional:
        out_path = Path(positional[0])

    duration = 1.0 if quick else 5.0
    reps = 200 if quick else 2000

    if smoke or scaling_smoke or tracing_smoke:
        if smoke:
            report = bench_smoke(duration)
        elif scaling_smoke:
            report = bench_scaling_smoke(duration)
        else:
            report = bench_tracing_smoke(duration)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(report, indent=2))
        print(f"\nwrote {out_path}")
        if tracing_smoke and not report["cell"]["within_budget"]:
            print(
                f"FAIL: tracing overhead {report['cell']['overhead_pct']}% exceeds "
                f"the {TRACING_OVERHEAD_BUDGET_PCT}% budget"
            )
            return 1
        return 0

    cells = [("star", "hashsig"), ("iniva", "hashsig"), ("iniva", "bls")]
    clusters = [
        bench_cluster(aggregation, backend, duration, procs)
        for aggregation, backend in cells
    ]
    # The shaped-link cell: same protocol, but the chaos pipeline emulates
    # the five-region WAN matrix with 1% loss on every link.
    wan_window = max(duration, 3.0)
    clusters.append(
        bench_cluster(
            "iniva", "hashsig", wan_window, procs,
            spec=_wan_spec(wan_window),
            label="iniva/hashsig n=4 wan-5-regions loss=1%",
        )
    )
    if procs == 1 and not quick:
        clusters.append(bench_cluster("iniva", "hashsig", duration, procs=2))
    # The recovery cell: crash-restart with catch-up sync (task mode —
    # the scheduled fault driver coordinates in-process).
    clusters.append(bench_recovery(max(duration, 2.5)))

    codec = bench_codec(reps)
    hot_path = bench_hot_path(duration, procs)
    hot_path["zero_copy_codec"] = {
        "before": CODEC_BEFORE,
        "after": {
            "label": "zero-copy memoryview decoder",
            "encode_us": codec["encode_us"],
            "decode_us": codec["decode_us"],
            "decode_per_sec": codec["decode_per_sec"],
        },
    }
    saturation = bench_saturation(duration, procs)
    scaling = bench_scaling(quick)
    tracing = bench_tracing(duration)
    report = {
        "benchmark": "live-runtime",
        "quick": quick,
        "committee_size": 4,
        "clusters": clusters,
        "scaling": scaling,
        "saturation": saturation,
        "hot_path": hot_path,
        "tracing": tracing,
        "codec": codec,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
