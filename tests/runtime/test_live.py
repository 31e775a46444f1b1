"""Live asyncio runtime: cluster smoke tests and schema checks.

These spin up real localhost TCP clusters (task mode, and a few
subprocess worker checks), so they are small committees with early stop
targets.
"""

from __future__ import annotations

import io
import json
import sys

import pytest

from repro import api
from repro.results import RESULT_SCHEMA, RunResult
from repro.runtime import live_worker
from repro.runtime.live import (
    LiveCluster,
    _fold_worker_documents,
    _salvaged_summary,
    run_live,
)
from repro.scenarios.engine import compile_scenario, compiled_for_epoch
from repro.scenarios.presets import load_preset
from repro.scenarios.spec import (
    CommitteeSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


def _small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="live-test",
        aggregation="iniva",
        signature_scheme="hashsig",
        batch_size=20,
        duration=2.0,
        warmup=0.0,
        seed=11,
        delta=0.0025,
        second_chance_timeout=0.005,
        view_timeout=0.25,
        committee=CommitteeSpec(size=4),
        topology=TopologySpec(kind="constant", intra_delay=0.0005),
        workload=WorkloadSpec(rate=2000, payload_size=64, preload=True, seed=11),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.mark.slow
def test_four_replica_cluster_finalizes_blocks():
    result = run_live(_small_spec(), target_blocks=6, duration=15.0)
    assert isinstance(result, RunResult)
    assert result.runtime == "live"
    assert result.metrics.committed_blocks >= 6
    assert result.metrics.successful_views >= 6
    assert result.metrics.throughput > 0
    assert result.wall_clock_seconds is not None and result.wall_clock_seconds > 0


@pytest.mark.slow
def test_live_result_schema_round_trips():
    result = run_live(_small_spec(), target_blocks=4, duration=15.0)
    document = result.to_dict()
    assert document["schema"] == RESULT_SCHEMA
    assert document["runtime"] == "live"
    restored = RunResult.from_dict(document)
    assert restored.runtime == "live"
    assert restored.metrics.committed_blocks == result.metrics.committed_blocks
    # Per-replica transport counters are present for the whole committee
    # and every replica actually exchanged messages.
    assert sorted(result.transport) == [str(pid) for pid in range(4)]
    for counters in result.transport.values():
        assert counters["messages_sent"] > 0
    # Fabric routing health rides the transport roll-up; a clean cluster
    # never misroutes a frame or re-delivers a session envelope.
    assert result.metrics.message_counters["frames_unroutable"] == 0
    assert result.metrics.message_counters["frames_duplicate"] == 0


@pytest.mark.slow
def test_live_aggregation_schemes_star_and_tree():
    for aggregation in ("star", "tree"):
        result = run_live(
            _small_spec(aggregation=aggregation), target_blocks=4, duration=15.0
        )
        assert result.metrics.committed_blocks >= 4, aggregation


@pytest.mark.slow
def test_live_crash_fault_still_finalizes():
    spec = _small_spec(committee=CommitteeSpec(size=5)).with_(
        faults={"crashes": 1, "crash_at": 0.0, "protect_leader": True}
    )
    result = run_live(spec, target_blocks=4, duration=15.0)
    assert result.metrics.committed_blocks >= 4
    # The crashed replica stops participating: QCs stay below full size.
    assert result.metrics.average_qc_size <= 5


@pytest.mark.slow
def test_procs_mode_spreads_replicas_over_workers():
    cluster = LiveCluster(spec=_small_spec(), duration=2.5, target_blocks=4, procs=2)
    result = cluster.run()
    assert result.metrics.committed_blocks >= 1
    assert len(cluster.node_summaries) == 4


@pytest.mark.slow
def test_api_run_live_and_deploy_live():
    result = api.run(_small_spec(), runtime="live", target_blocks=4, duration=15.0)
    assert result.runtime == "live"
    cluster = api.deploy(load_preset("rack-baseline"), quick=True, runtime="live")
    assert isinstance(cluster, LiveCluster)  # not started yet
    assert cluster.node_summaries == []


def test_api_run_rejects_unknown_runtime():
    with pytest.raises(ValueError, match="unknown runtime"):
        api.run(_small_spec(), runtime="fpga")
    with pytest.raises(TypeError, match="sim runtime"):
        api.run(_small_spec(), target_blocks=3)


def test_every_worker_failing_raises(monkeypatch):
    # A run where no worker reported must fail loudly, never come back as
    # a normal result with 0 blocks: every worker "interpreter" exits 1.
    monkeypatch.setattr("sys.executable", "/bin/false")
    spec = _small_spec().with_(resilience={"worker_restart_attempts": 0})
    cluster = LiveCluster(spec=spec, duration=1.0, target_blocks=4, procs=2)
    failed = r"every live worker failed \(replicas \[0, 1, 2, 3\]\)"
    with pytest.raises(RuntimeError, match=failed):
        cluster.run()


def test_unreadable_worker_output_counts_as_failed():
    document = {
        "nodes": [_salvaged_summary(0, 1.0), _salvaged_summary(2, 1.0)],
        "window": {
            "elapsed": 1.0,
            "quiesced": False,
            "all_ready": True,
            "swarm": None,
            "fabric": {"worker": 0},
        },
    }
    summaries, window, unreadable = _fold_worker_documents(
        [([0, 2], json.dumps(document)), ([1, 3], "Traceback (most recent call last)")]
    )
    assert [s["pid"] for s in summaries] == [0, 2]
    assert window["elapsed"] == 1.0
    assert unreadable == [1, 3]
    # Decodable JSON that is not a worker document is unreadable too.
    assert _fold_worker_documents([([5], "[]")])[2] == [5]


@pytest.mark.slow
def test_procs_worker_serves_its_churn_epoch(tmp_path, monkeypatch):
    # A --procs worker serving churn epoch 1 must run the epoch's shifted
    # config seed (compiled_for_epoch), like task mode does.  The worker
    # interpreter is wrapped to keep a copy of the payload it was sent;
    # each payload is then replayed through the worker entry point with
    # the hosting coroutine stubbed to record the seed it was handed.
    spec = _small_spec().with_(churn={"epochs": 2})
    compiled = compile_scenario(spec)
    expected = compiled_for_epoch(compiled, 1).config.seed
    assert expected != compiled.config.seed
    wrapper = tmp_path / "python"
    wrapper.write_text(
        f'#!/bin/sh\ntee "{tmp_path}/payload-$$.json" | exec "{sys.executable}" "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(wrapper))
    cluster = LiveCluster(
        spec=spec, compiled=compiled, duration=15.0, target_blocks=4, procs=2, epoch=1
    )
    result, _crashed = cluster.run_epoch()
    assert result.committed_blocks >= 1
    assert cluster.worker_report["failed_pids"] == []
    payloads = sorted(tmp_path.glob("payload-*.json"))
    assert len(payloads) == 2

    seeds = []

    async def record(compiled, *args, **kwargs):
        seeds.append(compiled.config.seed)
        return {}

    monkeypatch.setattr(live_worker, "host_worker", record)
    for payload in payloads:
        with payload.open() as stdin:
            assert live_worker.run_worker(stdin=stdin, stdout=io.StringIO()) == 0
    assert seeds == [expected, expected]


@pytest.mark.slow
def test_deploy_then_run_reports_the_orchestrated_committee():
    # A single-epoch pooled spec: the committee is drawn from the stake
    # pool, so LiveCluster.run() must go through the same epoch
    # orchestration as run_live and report the drawn committee and the
    # stake Gini, not a hand-built 0..n-1 committee.
    spec = load_preset("stake-skew").quick().with_(churn={"epochs": 1})
    assert spec.committee.pool_size > spec.committee.size
    deployed = LiveCluster(spec=spec, target_blocks=4, duration=15.0).run()
    direct = run_live(spec, target_blocks=4, duration=15.0)
    assert deployed.epochs[0].committee == direct.epochs[0].committee
    assert deployed.epochs[0].stake_gini is not None
    assert direct.epochs[0].stake_gini is not None


@pytest.mark.slow
def test_transport_schema_comparable_across_runtimes():
    # The satellite guarantee behind RunResult.transport: both substrates
    # count messages/bytes once at the framing layer and emit the same
    # per-replica keys, so sim and live runs can be diffed directly.
    spec = _small_spec()
    live = run_live(spec, target_blocks=4, duration=15.0)
    sim = api.run(spec)
    expected = {
        "messages_sent",
        "messages_received",
        "bytes_sent",
        "messages_dropped",
        "messages_delayed",
        "restarts",
    }
    for result in (live, sim):
        assert sorted(result.transport) == [str(pid) for pid in range(4)]
        for counters in result.transport.values():
            assert set(counters) == expected
    assert set(live.metrics.message_counters) == set(sim.metrics.message_counters)
    assert "messages_blocked" in live.metrics.message_counters


def test_cli_live_verb(capsys):
    from repro.cli import main

    exit_code = main(
        ["live", "rack-baseline", "--quick", "--target-blocks", "4", "--format", "json"]
    )
    assert exit_code == 0
    import json

    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == RESULT_SCHEMA
    assert document["runtime"] == "live"
    assert document["epochs"][0]["metrics"]["committed_blocks"] >= 1
