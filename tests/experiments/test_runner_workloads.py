"""Tests for the experiment runner, workload generation and reporting."""

import pytest

from repro.consensus.config import ConsensusConfig
from repro.consensus.mempool import Mempool
from repro.experiments.report import format_rows, series
from repro.experiments.runner import build_deployment, run_experiment
from repro.experiments.workloads import ClientWorkload
from repro.simnet.events import Simulator
from repro.simnet.failures import FailurePlan


class TestClientWorkload:
    def test_schedules_expected_number_of_requests(self):
        simulator = Simulator()
        mempool = Mempool()
        workload = ClientWorkload(rate=1000, payload_size=64, arrival="uniform")
        scheduled = workload.attach(simulator, mempool, duration=1.0)
        assert scheduled == pytest.approx(1000, abs=2)
        simulator.run(until=1.0)
        assert mempool.submitted_count == scheduled

    def test_poisson_arrivals_close_to_rate(self):
        simulator = Simulator()
        mempool = Mempool()
        scheduled = ClientWorkload(rate=2000, seed=1).attach(simulator, mempool, duration=1.0)
        assert 1700 < scheduled < 2300

    def test_zero_rate_schedules_nothing(self):
        assert ClientWorkload(rate=0).attach(Simulator(), Mempool(), 1.0) == 0

    def test_requests_attributed_to_clients(self):
        simulator = Simulator()
        mempool = Mempool()
        ClientWorkload(rate=100, num_clients=4, arrival="uniform").attach(simulator, mempool, 0.5)
        simulator.run(until=0.5)
        batch = mempool.next_batch(100)
        assert {request.client_id for request in batch} == {0, 1, 2, 3}
        assert all(request.size_bytes == 64 for request in batch)


class TestRunner:
    def test_build_deployment_wires_everything(self):
        config = ConsensusConfig(committee_size=5, aggregation="star")
        deployment = build_deployment(config)
        assert len(deployment.replicas) == 5
        assert deployment.network.process_ids == (0, 1, 2, 3, 4)
        assert deployment.mempool.metrics is deployment.metrics

    def test_bls_backend_selectable(self):
        config = ConsensusConfig(committee_size=4, aggregation="star", signature_scheme="bls")
        deployment = build_deployment(config)
        assert type(deployment.committee.scheme).__name__ == "BlsMultiSig"

    def test_run_experiment_returns_consistent_result(self):
        config = ConsensusConfig(committee_size=5, batch_size=10, aggregation="star", seed=1)
        result = run_experiment(
            config, duration=1.0, warmup=0.2, workload=ClientWorkload(rate=500, payload_size=64)
        )
        assert result.committed_operations > 0
        assert result.throughput > 0
        assert result.successful_views <= result.total_views
        assert 0 <= result.cpu_utilisation_mean <= result.cpu_utilisation_max <= 1
        assert result.message_counters["messages_sent"] > 0

    def test_failure_plan_reduces_throughput(self):
        config = ConsensusConfig(
            committee_size=7, batch_size=10, aggregation="iniva", seed=2, view_timeout=0.1
        )
        healthy = run_experiment(config, duration=1.5, warmup=0.2,
                                 workload=ClientWorkload(rate=1000))
        faulty = run_experiment(config, duration=1.5, warmup=0.2,
                                workload=ClientWorkload(rate=1000),
                                failure_plan=FailurePlan.crash_from_start([1, 3]))
        assert faulty.throughput < healthy.throughput
        assert faulty.failed_view_fraction >= healthy.failed_view_fraction

    def test_result_row_is_flat(self):
        config = ConsensusConfig(committee_size=5, batch_size=10, aggregation="star", seed=3)
        result = run_experiment(config, duration=0.8, warmup=0.1,
                                workload=ClientWorkload(rate=500))
        row = result.row()
        assert set(row) == {
            "throughput_ops_per_sec",
            "latency_mean_ms",
            "latency_p90_ms",
            "failed_views_pct",
            "avg_qc_size",
            "cpu_mean_pct",
            "cpu_max_pct",
        }


class TestReport:
    def test_format_rows_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_rows(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 2 + 2 + 1  # title + header + separator + 2 rows

    def test_format_empty(self):
        assert "(no data)" in format_rows([], title="empty")

    def test_series_grouping(self):
        rows = [
            {"scheme": "a", "x": 2, "y": 20},
            {"scheme": "a", "x": 1, "y": 10},
            {"scheme": "b", "x": 1, "y": 5},
        ]
        grouped = series(rows, key="scheme", x="x", y="y")
        assert grouped["a"] == [(1, 10), (2, 20)]
        assert grouped["b"] == [(1, 5)]


class TestExport:
    def test_rows_to_csv_roundtrip(self, tmp_path):
        from repro.experiments.report import rows_to_csv

        rows = [{"scheme": "Iniva", "x": 1, "y": 2.5}, {"scheme": "HotStuff", "x": 2, "y": 3.0}]
        path = tmp_path / "figure.csv"
        text = rows_to_csv(rows, path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0] == "scheme,x,y"
        assert len(lines) == 3

    def test_rows_to_csv_empty(self):
        from repro.experiments.report import rows_to_csv

        assert rows_to_csv([]) == ""

    def test_rows_to_json(self, tmp_path):
        import json

        from repro.experiments.report import rows_to_json

        rows = [{"scheme": "Iniva", "value": 0.01}]
        path = tmp_path / "figure.json"
        text = rows_to_json(rows, path)
        assert json.loads(text) == rows
        assert json.loads(path.read_text()) == rows
