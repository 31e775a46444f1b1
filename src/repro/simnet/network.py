"""The simulated network connecting processes.

Supports per-link latency sampling, bandwidth-proportional transmission
delay, probabilistic message loss, explicit drop rules (used by Byzantine
scenarios) and partitions.  All randomness is drawn from a seeded RNG so
experiments are reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.simnet.events import Simulator
from repro.simnet.latency import ConstantLatency, LatencyModel, LinkBandwidth
from repro.simnet.process import Process

__all__ = ["Network"]

DropRule = Callable[[int, int, Any], bool]


class Network:
    """Message transport between registered processes."""

    def __init__(
        self,
        simulator: Simulator,
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
        loss_probability: float = 0.0,
        bandwidth_bytes_per_sec: Optional[float] = None,
        link_bandwidth: Optional[LinkBandwidth] = None,
    ) -> None:
        if not 0 <= loss_probability < 1:
            raise ValueError("loss probability must be in [0, 1)")
        self.simulator = simulator
        self.latency_model = latency_model or ConstantLatency()
        self.rng = random.Random(seed)
        self.loss_probability = loss_probability
        self.bandwidth = bandwidth_bytes_per_sec
        self.link_bandwidth = link_bandwidth
        self._processes: Dict[int, Process] = {}
        self._drop_rules: list[DropRule] = []
        self._partitions: list[Set[int]] = []
        # Directed links currently suppressed (network partitions, cuts),
        # reference-counted so overlapping partitions compose: healing one
        # must not restore a link another still blocks.
        self._blocked_links: Dict[Tuple[int, int], int] = {}
        # Counters for the evaluation harness.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_blocked = 0
        self.bytes_sent = 0
        # Per-process counters so sim and live runs report the same
        # per-replica transport schema (RunResult.transport).  Drops and
        # delays are attributed to the *sender* — the live runtime counts
        # them at whichever node observed the event, so the per-replica
        # split is comparable-in-aggregate, not identical.
        self._sent_by: Dict[int, int] = {}
        self._bytes_by: Dict[int, int] = {}
        self._delivered_to: Dict[int, int] = {}
        self._dropped_by: Dict[int, int] = {}
        self._delayed_by: Dict[int, int] = {}

    # -- membership -----------------------------------------------------------
    def register(self, process: Process) -> None:
        if process.process_id in self._processes:
            raise ValueError(f"process id {process.process_id} already registered")
        self._processes[process.process_id] = process

    def process(self, process_id: int) -> Process:
        return self._processes[process_id]

    @property
    def process_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._processes))

    # -- failure / partition configuration --------------------------------------
    def add_drop_rule(self, rule: DropRule) -> None:
        """Drop messages for which ``rule(src, dst, message)`` returns True."""
        self._drop_rules.append(rule)

    def clear_drop_rules(self) -> None:
        self._drop_rules.clear()

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Partition the network; messages only flow within a group."""
        self._partitions = [set(group) for group in groups]

    def heal_partition(self) -> None:
        self._partitions = []

    def block_link(self, src: int, dst: int, bidirectional: bool = True) -> None:
        """Suppress delivery on a directed link until :meth:`unblock_link`.

        Unlike :meth:`add_drop_rule` (permanent, rule-based) this is cheap
        to add *and remove*, which is what timed partitions with heal
        schedules need (see :meth:`FailureInjector.schedule_partition`).
        """
        for link in ((src, dst), (dst, src)) if bidirectional else ((src, dst),):
            self._blocked_links[link] = self._blocked_links.get(link, 0) + 1

    def unblock_link(self, src: int, dst: int, bidirectional: bool = True) -> None:
        for link in ((src, dst), (dst, src)) if bidirectional else ((src, dst),):
            count = self._blocked_links.get(link, 0)
            if count <= 1:
                self._blocked_links.pop(link, None)
            else:
                self._blocked_links[link] = count - 1

    @property
    def blocked_links(self) -> Set[Tuple[int, int]]:
        return set(self._blocked_links)

    def _partitioned(self, src: int, dst: int) -> bool:
        if not self._partitions:
            return False
        for group in self._partitions:
            if src in group and dst in group:
                return False
        return True

    # -- transport ----------------------------------------------------------------
    def send(self, src: int, dst: int, message: Any, size_bytes: int = 0) -> None:
        """Send ``message`` from ``src`` to ``dst`` with simulated delays."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self._sent_by[src] = self._sent_by.get(src, 0) + 1
        if size_bytes:
            self._bytes_by[src] = self._bytes_by.get(src, 0) + size_bytes
        destination = self._processes.get(dst)
        if destination is None or destination.crashed:
            self._count_drop(src, dst, message)
            return
        # A process's message to itself never crosses the network, so
        # partitions, drop rules and loss cannot touch it — mirroring the
        # live runtime, whose self-sends bypass the chaos pipeline.
        # (Delivery still goes through the event queue: never re-entrant.)
        if src != dst:
            if self._partitioned(src, dst) or (src, dst) in self._blocked_links:
                self.messages_blocked += 1
                self._count_drop(src, dst, message)
                return
            if any(rule(src, dst, message) for rule in self._drop_rules):
                self._count_drop(src, dst, message)
                return
            if self.loss_probability and self.rng.random() < self.loss_probability:
                self._count_drop(src, dst, message)
                return
        delay = self.latency_model.sample(self.rng, src, dst)
        if self.bandwidth and size_bytes:
            delay += size_bytes / self.bandwidth
        if self.link_bandwidth is not None and src != dst:
            delay += self.link_bandwidth.transmission_delay(
                src, dst, size_bytes, self.simulator.now
            )
        if src == dst:
            delay = 0.0
        if delay > 0:
            self._delayed_by[src] = self._delayed_by.get(src, 0) + 1
        self.simulator.schedule(delay, self._finalise_delivery, src, dst, message)

    def _count_drop(self, src: int, dst: int, message: Any) -> None:
        self.messages_dropped += 1
        self._dropped_by[src] = self._dropped_by.get(src, 0) + 1

    def _finalise_delivery(self, src: int, dst: int, message: Any) -> None:
        destination = self._processes.get(dst)
        if destination is None or destination.crashed:
            self._count_drop(src, dst, message)
            return
        self.messages_delivered += 1
        self._delivered_to[dst] = self._delivered_to.get(dst, 0) + 1
        destination._deliver(src, message)

    # -- reporting -----------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "messages_blocked": self.messages_blocked,
            "bytes_sent": self.bytes_sent,
            # The sim delivers by direct reference — there is no routing
            # demux to misroute or redeliver a frame — so the fabric's
            # misrouting counters are structurally zero; emitted anyway to
            # keep the sim/live message-counter schema diffable.
            "frames_unroutable": 0,
            "frames_duplicate": 0,
        }

    def per_replica_counters(self) -> Dict[int, Dict[str, int]]:
        """Per-process transport counters (same schema as the live runtime).

        All four counters are maintained once, at this framing/transport
        layer, so sim and live report comparable per-replica stats
        (``restarts`` is merged in by the harness from process state).
        """
        return {
            pid: {
                "messages_sent": self._sent_by.get(pid, 0),
                "messages_received": self._delivered_to.get(pid, 0),
                "bytes_sent": self._bytes_by.get(pid, 0),
                "messages_dropped": self._dropped_by.get(pid, 0),
                "messages_delayed": self._delayed_by.get(pid, 0),
            }
            for pid in self.process_ids
        }
