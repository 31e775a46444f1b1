"""Worker subprocess for the live runtime's ``--procs`` mode.

Reads one JSON config from stdin::

    {
      "spec": {...ScenarioSpec.to_dict()...},
      "churn_epoch": 0,            # churn epoch served (shifts the config seed)
      "worker": 1,                 # this worker's index in the placement
      "placement": [[0, 3], [1, 4], [2, 5]],  # worker -> hosted pids
      "ports": {"0": 51001, ...},  # worker -> port map (one per worker)
      "host": "127.0.0.1",
      "fast_path": true,           # colocated direct delivery on/off
      "epoch": 1722334455.5,       # shared wall-clock zero / start barrier
      "duration": 3.0,
      "target_blocks": null,
      "cold_start": false,         # true for a supervisor-restarted worker
      "incarnation": 0             # restart generation (namespaces request ids)
    }

compiles the spec for ``churn_epoch``, hosts its placement slice of the
committee through :func:`~repro.runtime.live.host_worker` — the exact
code path task mode awaits in-process (only the process boundary
differs), chaos faults, Byzantine cartels and client shard ``worker::w``
included — and writes ``{"nodes": [...], "window": {...}}`` to stdout.
A ``cold_start`` worker — respawned by the
:class:`~repro.resilience.supervisor.WorkerSupervisor` after its
previous incarnation died — marks its replicas for catch-up sync, so
they request the committed blocks they missed the moment they start.
Spawned by :class:`~repro.runtime.live.LiveCluster`; not intended to be
run by hand.
"""

from __future__ import annotations

import asyncio
import json
import logging
import sys
from typing import Any

from repro.observe.logging_setup import configure_logging
from repro.runtime.fabric import Placement
from repro.runtime.live import host_worker
from repro.runtime.net import maybe_install_uvloop
from repro.scenarios.engine import compile_scenario, compiled_for_epoch
from repro.scenarios.spec import ScenarioSpec

__all__ = ["run_worker"]

logger = logging.getLogger("repro.runtime.live_worker")


def run_worker(stdin: Any = None, stdout: Any = None) -> int:
    # Logging goes to stderr only (REPRO_LOG_LEVEL selects the level):
    # stdout is the summary channel the parent parses as JSON, so a
    # single stray print there would corrupt the whole worker report.
    configure_logging()
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    config = json.load(stdin)
    maybe_install_uvloop()
    logger.info(
        "worker %s starting (incarnation %s, cold_start=%s)",
        config.get("worker"),
        config.get("incarnation", 0),
        config.get("cold_start", False),
    )
    compiled = compiled_for_epoch(
        compile_scenario(ScenarioSpec.from_dict(config["spec"])),
        int(config["churn_epoch"]),
    )
    target_blocks = config.get("target_blocks")
    report = asyncio.run(
        host_worker(
            compiled,
            Placement.from_payload(config["placement"]),
            int(config["worker"]),
            {int(w): int(port) for w, port in config["ports"].items()},
            float(config["duration"]),
            None if target_blocks is None else int(target_blocks),
            epoch=float(config["epoch"]),
            host=config.get("host", "127.0.0.1"),
            fast_path=bool(config.get("fast_path", True)),
            cold_start=bool(config.get("cold_start", False)),
            incarnation=int(config.get("incarnation", 0)),
        )
    )
    json.dump(report, stdout)
    stdout.flush()
    logger.info("worker %s finished", config.get("worker"))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(run_worker())
