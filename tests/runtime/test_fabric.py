"""Scale-out fabric: placement, route headers, fast-path parity, session counts.

The contract under test is the tentpole of the worker-multiplexed
transport: replica traffic rides one session per worker *pair* (wrapped
in ``Routed`` headers), colocated replicas skip the wire entirely, and —
critically — a fixed spec+seed finalizes the same committed prefix
whether delivery is in-process or forced through loopback TCP.
"""

from __future__ import annotations

import pytest

from repro.resilience.messages import Routed, SessionEnvelope, SyncRequest
from repro.runtime.codec import CodecError, PreEncoded, WireCodec
from repro.runtime.fabric import Placement
from repro.runtime.live import LiveCluster
from repro.scenarios.spec import (
    CommitteeSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="fabric-test",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=20,
        duration=2.0,
        warmup=0.0,
        seed=23,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=0.25,
        committee=CommitteeSpec(size=4),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=2000, payload_size=64, preload=True, seed=23),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------
def test_round_robin_matches_interleaved_slicing():
    placement = Placement.round_robin(7, 3)
    # Worker w hosts pids w::workers — the historical --procs assignment.
    assert placement.workers == ((0, 3, 6), (1, 4), (2, 5))
    assert placement.num_workers == 3
    assert placement.num_replicas == 7
    for worker in range(3):
        for pid in placement.pids_of(worker):
            assert placement.worker_of(pid) == worker


def test_round_robin_degenerate_shapes():
    # Task mode: one worker hosts everything.
    assert Placement.round_robin(5, 1).workers == ((0, 1, 2, 3, 4),)
    # More workers than replicas: clamp, never an empty worker.
    placement = Placement.round_robin(2, 8)
    assert placement.workers == ((0,), (1,))
    assert all(placement.pids_of(w) for w in range(placement.num_workers))


def test_placement_payload_round_trips():
    placement = Placement.round_robin(9, 4)
    payload = placement.to_payload()
    assert payload == [[0, 4, 8], [1, 5], [2, 6], [3, 7]]
    assert Placement.from_payload(payload) == placement


def test_placement_rejects_bad_shapes():
    with pytest.raises(ValueError, match="two workers"):
        Placement(((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="at least one worker"):
        Placement(())
    with pytest.raises(ValueError, match="at least one replica"):
        Placement(((), ()))
    with pytest.raises(KeyError):
        Placement.round_robin(4, 2).worker_of(99)


# ---------------------------------------------------------------------------
# Routed wire format
# ---------------------------------------------------------------------------
def test_routed_round_trips_through_the_codec():
    codec = WireCodec()
    routed = Routed(src=3, dst=170, message=SyncRequest(sender=3, from_height=12))
    assert codec.decode(codec.encode(routed)) == routed
    # Route headers ride inside session envelopes on worker-pair links.
    envelope = SessionEnvelope(seq=7, messages=(routed, Routed(0, 1, "plain")))
    assert codec.decode(codec.encode(envelope)) == envelope


def test_routed_is_a_flat_container():
    codec = WireCodec()
    nested = Routed(0, 1, Routed(1, 2, "x"))
    with pytest.raises(CodecError, match="flat"):
        codec.encode(nested)


def test_routed_splices_preencoded_bodies_without_reencoding():
    codec = WireCodec()
    message = SyncRequest(sender=1, from_height=5)
    plain = codec.encode(Routed(src=1, dst=2, message=message))
    spliced = codec.encode(
        Routed(src=1, dst=2, message=PreEncoded(codec.encode_value(message), message))
    )
    # A multicast's encode-once body lands bit-identical in every header.
    assert spliced == plain
    assert codec.decode(spliced).message == message


# ---------------------------------------------------------------------------
# Fast-path parity and session counts
# ---------------------------------------------------------------------------
def _committed_orders(fast_path: bool, **spec_overrides):
    cluster = LiveCluster(
        spec=_spec(**spec_overrides),
        duration=15.0,
        target_blocks=4,
        fast_path=fast_path,
    )
    cluster.run()
    orders = [list(s["committed_order"]) for s in cluster.node_summaries]
    return cluster, orders


@pytest.mark.slow
def test_fast_path_parity_hashsig():
    fast_cluster, fast_orders = _committed_orders(True)
    tcp_cluster, tcp_orders = _committed_orders(False)
    fast, tcp = max(fast_orders, key=len), max(tcp_orders, key=len)
    assert len(fast) >= 4 and len(tcp) >= 4
    # Identical committed prefix at fixed spec+seed: the fast path changes
    # delivery mechanics, never consensus outcomes.
    common = min(len(fast), len(tcp))
    assert fast[:common] == tcp[:common]
    # Transport telemetry shows the paths actually differed.
    fast_fabric = fast_cluster.window_info["fabrics"]["0"]
    tcp_fabric = tcp_cluster.window_info["fabrics"]["0"]
    assert fast_fabric["sessions"] == 0  # one worker, zero TCP links
    assert fast_fabric["fast_path_messages"] > 0
    assert fast_fabric["tcp_messages"] == 0
    assert tcp_fabric["sessions"] == 1  # the forced loopback link to itself
    assert tcp_fabric["tcp_messages"] > 0
    assert tcp_fabric["fast_path_messages"] == 0
    # On a clean cluster no frame is ever misrouted or re-delivered, on
    # either delivery path.
    for fabric in (fast_fabric, tcp_fabric):
        assert fabric["frames_unroutable"] == 0
        assert fabric["frames_duplicate"] == 0


@pytest.mark.slow
def test_fast_path_parity_bls():
    overrides = dict(signature_scheme="bls", batch_size=10)
    _, fast_orders = _committed_orders(True, **overrides)
    _, tcp_orders = _committed_orders(False, **overrides)
    fast, tcp = max(fast_orders, key=len), max(tcp_orders, key=len)
    assert len(fast) >= 4 and len(tcp) >= 4
    common = min(len(fast), len(tcp))
    assert fast[:common] == tcp[:common]


@pytest.mark.slow
def test_session_count_scales_with_workers_not_replicas():
    # n=6 on 2 workers: 2 directed worker-pair sessions, where the old
    # per-replica fabric held n*(n-1) = 30.
    cluster = LiveCluster(
        spec=_spec(committee=CommitteeSpec(size=6)),
        duration=4.0,
        target_blocks=3,
        procs=2,
    )
    result = cluster.run()
    assert result.metrics.committed_blocks >= 1
    fabric = result.resilience["cluster"]["fabric"]
    assert fabric["workers"] == 2
    assert fabric["sessions_total"] == 2
    assert fabric["naive_pairwise_sessions"] == 30
    assert fabric["tcp_messages"] > 0  # cross-worker traffic multiplexed
    assert fabric["fast_path_messages"] > 0  # colocated traffic stayed local
    assert len(fabric["per_worker"]) == 2
    # The frame-routing health counters are exported with the transport
    # roll-up and stay zero across a clean multi-worker run.
    assert result.metrics.message_counters["frames_unroutable"] == 0
    assert result.metrics.message_counters["frames_duplicate"] == 0


@pytest.mark.slow
def test_task_mode_large_committee_commits_without_tcp():
    # A committee far past the old O(n²) practical ceiling boots and
    # commits in task mode with zero inter-replica TCP connections.
    cluster = LiveCluster(
        spec=_spec(committee=CommitteeSpec(size=50), batch_size=50),
        duration=20.0,
        target_blocks=3,
    )
    result = cluster.run()
    assert result.metrics.committed_blocks >= 3
    fabric = result.resilience["cluster"]["fabric"]
    assert fabric["sessions_total"] == 0
    assert fabric["naive_pairwise_sessions"] == 2450
    assert fabric["fast_path_messages"] > 0
