"""The repo benchmark: one command, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload open-n4 --seed 1 --seconds 33 --trace 0

``BENCHMARK.json`` names the workloads, the same ones ``cells.WORKLOADS``
runs.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` gives the per-layer metrics from traced cells plus the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; each metric carries
its value and unit.  A run whose outputs fail the correctness gate
prints ``"correct": false`` with no metrics and exits 1.  A checkout
without ``src/repro`` exits 2 without a result.

``--sabotage dead|fork`` breaks the run on purpose (replicas that never
start, or one replica's committed chain forked) to show the gate
refusing it.  See ``perfbench/README.md`` for the workloads, the metric
definitions and the layer-to-metric predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: End-to-end metric -> unit (reported by ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "blocks_per_s": "blocks/s",
    "qc_inclusion": "ratio",
    "views_ok_ratio": "ratio",
    "latency_p50_ms.low": "ms",
    "latency_p50_ms.mid": "ms",
    "latency_p50_ms.high": "ms",
    "goodput_ops_s": "ops/s",
    "capacity_ops_s": "ops/s",
    "ops_served_ratio": "ratio",
}

#: Per-layer metric -> unit (reported by ``--trace 1``); per committed
#: block unless the unit says otherwise.
PER_LAYER = {
    "crypto.sign_calls": "calls/block",
    "crypto.verify_calls": "calls/block",
    "crypto.self_ms": "ms/block",
    "aggregation.self_ms": "ms/block",
    "aggregation.second_chance_votes": "votes/block",
    "aggregation.votes_per_qc": "votes",
    "aggregation.noninclusive_qcs": "qcs",
    "consensus.handler_calls": "calls/block",
    "consensus.self_ms": "ms/block",
    "consensus.views": "views/block",
    "mempool.ops_per_block": "ops/block",
    "mempool.self_ms": "ms/block",
    "mempool.preload_s": "s",
    "codec.encode_calls": "calls/block",
    "codec.decode_calls": "calls/block",
    "codec.bytes": "bytes/block",
    "codec.self_ms": "ms/block",
    "fabric.msgs_sent": "msgs/block",
    "fabric.fast_path_msgs": "msgs/block",
    "fabric.self_ms": "ms/block",
    "chaos.self_ms": "ms/block",
    "simnet.events": "events/block",
    "simnet.self_ms": "ms/block",
    "runtime.self_ms": "ms/block",
    "runtime.loop_lag_p99_ms": "ms",
    "runtime.idle_share": "ratio",
    "clients.admission_rejects": "count",
    "clients.generator_late_p99_ms": "ms",
    "resilience.suspicions": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.window_s": "s",
}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sabotage", choices=("none", "dead", "fork"), default="none")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {os.getcwd()}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src  # the generator process imports repro too
    import cells  # noqa: E402  (needs repro on the path)

    if args.workload not in cells.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(cells.WORKLOADS)}")
    if args.sabotage == "dead":
        from repro.consensus.replica import HotStuffReplica

        HotStuffReplica.start = lambda replica: None
    try:
        outcome = cells.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), args.sabotage
        )
    except cells.GateError as exc:
        print(f"perfbench: {args.workload} refused: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
