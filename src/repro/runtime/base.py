"""The narrow runtime interface the sans-I/O protocol core runs against.

The consensus state machines (:class:`~repro.consensus.replica.HotStuffReplica`
and every :class:`~repro.aggregation.base.Aggregator`) perform no I/O of
their own: everything they need from the outside world is five verbs —
*what time is it* (:attr:`Runtime.now`), *send/multicast a message*
(:meth:`Runtime.send` / :meth:`Runtime.multicast`), *call me back later*
(:meth:`Runtime.set_timer` / :meth:`Runtime.call_at`) and *run this soon*
(:meth:`Runtime.spawn`).  A :class:`Runtime` implementation supplies those
verbs for one execution substrate:

* :class:`repro.runtime.sim.SimRuntime` adapts the deterministic
  discrete-event :mod:`repro.simnet` pair (``Simulator`` + ``Network``) —
  the correctness oracle, bit-identical to the pre-refactor behaviour;
* :class:`repro.runtime.live.LiveRuntime` runs each replica as an asyncio
  task (or subprocess) exchanging codec-framed messages over localhost
  TCP — the same protocol objects actually serving traffic.

Keeping the surface this small is what makes the two interchangeable: a
protocol object never imports an event loop, a socket or the simulator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterable, Protocol, runtime_checkable

__all__ = ["Clock", "Runtime", "TimerHandle", "Transport"]


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable handle returned by :meth:`Runtime.set_timer`."""

    def cancel(self) -> None:  # pragma: no cover - protocol
        ...

    @property
    def cancelled(self) -> bool:  # pragma: no cover - protocol
        ...


class Clock(ABC):
    """A source of the current time (virtual or wall-clock seconds)."""

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds since the run started."""


class Transport(ABC):
    """Message delivery between processes addressed by integer id."""

    @abstractmethod
    def send(self, src: int, dst: int, message: Any, size_bytes: int = 0) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` (best effort)."""

    def multicast(
        self, src: int, destinations: Iterable[int], message: Any, size_bytes: int = 0
    ) -> None:
        for destination in destinations:
            self.send(src, destination, message, size_bytes)

    def counters(self) -> Dict[str, int]:
        """Aggregate transport counters (sent / delivered / dropped /
        blocked / bytes), counted once at the framing layer."""
        return {}

    def per_replica_counters(self) -> Dict[int, Dict[str, int]]:
        """Per-process transport counters, keyed by process id.

        Both runtimes emit the same schema so ``RunResult.transport`` is
        comparable across substrates: ``messages_sent``,
        ``messages_received``, ``bytes_sent``, ``messages_dropped`` and
        ``messages_delayed`` (the harness merges in ``restarts`` from
        process state when summarising).
        """
        return {}


class Runtime(Clock, Transport):
    """Everything a protocol process may ask of its execution substrate.

    Subclasses provide the five I/O verbs plus process registration.  The
    :attr:`models_cpu` flag tells :class:`~repro.simnet.process.Process`
    whether CPU costs are *simulated* (message deliveries queue behind
    charged CPU time, as in the discrete-event runtime) or *real* (the
    live runtime, where crypto work takes actual wall-clock time and
    charged model costs are only accumulated for utilisation reporting).
    """

    #: Whether charged CPU time delays subsequent deliveries (sim) or is
    #: only recorded for reporting (live, where the work is real).
    models_cpu: bool = True

    #: Short name used in results ("sim" / "live").
    name: str = "abstract"

    @abstractmethod
    def register(self, process: Any) -> None:
        """Attach ``process`` so it can receive messages."""

    @abstractmethod
    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` seconds; cancellable."""

    @abstractmethod
    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` at absolute time ``time`` (>= now)."""

    def spawn(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` as soon as possible (next tick)."""
        self.set_timer(0.0, callback, *args)
