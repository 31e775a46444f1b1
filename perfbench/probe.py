"""Outside-in instrumentation of the ``repro`` program.

Nothing here edits the program: a :class:`Probe` wraps public entry
points of ``repro`` modules on their classes for the length of a cell
and restores them afterwards.

Two levels:

* **Commit probe** (every run).  Records each replica's block commits
  with the program's own clock argument, each block's proposal
  timestamp, the process CPU time at which the protocol started, and
  how long preloading took.
  That is all the end-to-end metrics need; it costs a few calls per
  committed block.
* **Spans** (traced runs only, ``trace=True``).  Every wrapped call
  becomes a span; a layer's *self time* is its spans' duration minus
  the part covered by child spans of other layers.  Spans are only
  opened inside the measured window: from the first
  ``LiveNode.start_protocol`` to ``WorkerFabric.stop`` on the live
  runtime, the length of ``Simulator.run`` on the simulator.  On the
  live runtime every asyncio callback is a ``runtime`` span and time
  blocked in the selector is ``idle``, so self times plus idle should
  cover the window; what is left is event-loop bookkeeping and probe
  cost, reported as the reconciliation error.
"""

from __future__ import annotations

import asyncio
import asyncio.events
import selectors
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.aggregation.base import Aggregator
from repro.chaos.shaping import LinkShaper
from repro.consensus.mempool import Mempool
from repro.consensus.replica import HotStuffReplica
from repro.core import iniva as _iniva  # noqa: F401  (registers the aggregator class)
from repro.crypto.keys import Committee
from repro.crypto.multisig import MultiSignatureScheme
from repro.runtime.codec import WireCodec
from repro.runtime.fabric import WorkerFabric
from repro.runtime.live import LiveNode
from repro.simnet.events import Simulator
from repro.simnet.network import Network

#: Layers whose self time the traced run reports, in report order.
LAYERS = (
    "crypto",
    "aggregation",
    "consensus",
    "mempool",
    "codec",
    "fabric",
    "chaos",
    "simnet",
    "runtime",
    "idle",
)

#: Period of the event-loop lag probe, seconds.
LAG_PERIOD = 0.001

_ENCODE_CALLS = ("WireCodec.encode", "WireCodec.encode_value", "WireCodec.frame", "WireCodec.frame_batch")


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _span_targets() -> List[Tuple[str, type, str]]:
    """``(layer, class, method)`` for every public entry point traced."""
    targets: List[Tuple[str, type, str]] = [
        ("crypto", Committee, name)
        for name in ("sign", "verify_share", "verify_aggregate", "verify_batch", "verify_contributions")
    ]
    targets += [
        ("crypto", cls, "aggregate")
        for cls in _subclasses(MultiSignatureScheme)
        if "aggregate" in cls.__dict__
    ]
    targets += [
        ("aggregation", cls, "handle") for cls in _subclasses(Aggregator) if "handle" in cls.__dict__
    ]
    targets.append(("consensus", HotStuffReplica, "on_message"))
    targets += [
        ("mempool", Mempool, name)
        for name in ("submit_many", "admit", "next_batch", "mark_committed")
    ]
    targets += [
        ("codec", WireCodec, name)
        for name in ("encode", "encode_value", "decode", "frame", "frame_batch")
    ]
    targets.append(("fabric", WorkerFabric, "dispatch"))
    targets.append(("chaos", LinkShaper, "shape"))
    targets += [("simnet", Simulator, "run"), ("simnet", Network, "send")]
    targets.append(("runtime", asyncio.events.Handle, "_run"))
    targets.append(("idle", selectors.DefaultSelector, "select"))
    return targets


class Probe:
    """Wraps ``repro`` entry points; see the module docstring."""

    def __init__(self) -> None:
        self._patched: List[Tuple[type, str, Any]] = []
        self.trace = False
        # Span wrappers hold these containers; reset() clears them in place.
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[List[Any]] = []
        self.reset()

    # -- state -------------------------------------------------------------------
    def reset(self) -> None:
        #: ``(pool key, program time, block id, ops)`` per replica commit.
        self.commits: List[Tuple[str, float, str, int]] = []
        #: Proposal timestamp (program clock) per block id.
        self.proposals: Dict[str, float] = {}
        #: Process CPU time at the first ``start_protocol``.
        self.started_cpu_s: Optional[float] = None
        self.preload_s = 0.0
        self.self_s.clear()
        self.calls.clear()
        self._stack.clear()
        self.encoded_bytes = 0
        self.lag_s: List[float] = []
        self.window_s = 0.0
        self.simnet_events = 0
        self._armed_at: Optional[float] = None
        self._frozen: Optional[Dict[str, Any]] = None
        self._lag_task: Optional[asyncio.Task] = None

    # -- installation --------------------------------------------------------------
    def install(self, trace: bool = False) -> None:
        """Patch the program; ``trace`` adds the span layer."""
        if self._patched:
            raise RuntimeError("probe already installed")
        self.trace = trace
        probe = self

        def mark_committed(fn):
            def wrapper(pool, block_id, payload, time_):
                probe.commits.append((str(id(pool)), time_, block_id, len(payload)))
                return fn(pool, block_id, payload, time_)
            return wrapper

        def process_proposal(fn):
            def wrapper(replica, block):
                probe.proposals.setdefault(block.block_id, block.timestamp)
                return fn(replica, block)
            return wrapper

        def submit_many(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe.preload_s += time.perf_counter() - t0
            return wrapper

        def start_protocol(fn):
            def wrapper(node, *args, **kwargs):
                if probe.started_cpu_s is None:
                    probe.started_cpu_s = time.process_time()
                    if probe.trace:
                        probe._arm()
                        probe._lag_task = asyncio.get_running_loop().create_task(probe._lag_probe())
                return fn(node, *args, **kwargs)
            return wrapper

        self._patch(Mempool, "mark_committed", mark_committed)
        self._patch(HotStuffReplica, "process_proposal", process_proposal)
        self._patch(Mempool, "submit_many", submit_many)
        self._patch(LiveNode, "start_protocol", start_protocol)
        if not trace:
            return

        def fabric_stop(fn):
            async def wrapper(fabric):
                probe._disarm()
                if probe._lag_task is not None:
                    probe._lag_task.cancel()
                    try:
                        await probe._lag_task
                    except asyncio.CancelledError:
                        pass
                    probe._lag_task = None
                return await fn(fabric)
            return wrapper

        def simulator_run(fn):
            def wrapper(sim, *args, **kwargs):
                before = sim.events_processed
                probe._arm()
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    probe.simnet_events += sim.events_processed - before
                    probe._disarm()
            return wrapper

        self._patch(WorkerFabric, "stop", fabric_stop)
        # Arming wraps outside the span, so Simulator.run is itself a span.
        for layer, cls, name in _span_targets():
            self._patch(cls, name, lambda fn, layer=layer, cls=cls, name=name: self._span(
                layer, f"{cls.__name__}.{name}", fn))
        self._patch(Simulator, "run", simulator_run)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            cls, name, original = self._patched.pop()
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    def _patch(self, cls: type, name: str, make: Callable[[Any], Any]) -> None:
        original = cls.__dict__.get(name)
        setattr(cls, name, make(getattr(cls, name)))
        self._patched.append((cls, name, original))

    # -- spans -----------------------------------------------------------------------
    def _span(self, layer: str, label: str, fn: Any) -> Any:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        probe = self
        perf = time.perf_counter
        encode = label in _ENCODE_CALLS

        def wrapper(*args, **kwargs):
            if probe._armed_at is None:
                return fn(*args, **kwargs)
            if stack and stack[-1][0] == layer:
                # A same-layer call (a super() chain): no span of its own.
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            calls[label] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if encode:
                probe.encoded_bytes += len(result)
            return result

        return wrapper

    def _arm(self) -> None:
        if self._armed_at is None and self._frozen is None:
            self._armed_at = time.perf_counter()

    def _disarm(self) -> None:
        """Close the window and freeze its totals (late spans add nothing)."""
        if self._armed_at is None:
            return
        self.window_s += time.perf_counter() - self._armed_at
        self._armed_at = None
        self._frozen = {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "encoded_bytes": self.encoded_bytes,
        }

    async def _lag_probe(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(LAG_PERIOD)
            self.lag_s.append(loop.time() - before - LAG_PERIOD)

    # -- export ----------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe record of everything measured since :meth:`reset`."""
        frozen = self._frozen or {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "encoded_bytes": self.encoded_bytes,
        }
        return {
            "commits": self.commits,
            "proposals": self.proposals,
            "started_cpu_s": self.started_cpu_s,
            "preload_s": self.preload_s,
            "window_s": self.window_s,
            "lag_s": self.lag_s,
            "simnet_events": self.simnet_events,
            **frozen,
        }
