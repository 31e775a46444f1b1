"""The abstract vote-aggregation strategy attached to each replica.

Definition 1 of the paper gives a vote aggregation scheme three
primitives: ``broadcast(B)`` invoked by the proposer, a ``deliver(B)``
upcall at every process (which emits a vote), and an
``aggregate(B, QC, md)`` upcall at the collector.  The replica supplies
``deliver`` (validation + voting rules) and consumes ``aggregate`` (QC
formation); concrete schemes implement the message flow in between.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, TYPE_CHECKING

from repro.consensus.block import Block
from repro.crypto.multisig import AggregateSignature

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consensus.replica import HotStuffReplica

__all__ = ["Aggregator", "register_aggregator", "make_aggregator"]


class Aggregator(ABC):
    """Per-replica vote aggregation strategy.

    Concrete subclasses implement :meth:`disseminate` (invoked by the
    block's proposer) and :meth:`handle` (invoked for every aggregation
    message the replica receives).  They call back into the replica via

    * ``replica.process_proposal(block)`` — validate + vote, returning a
      signature share or ``None`` (the paper's ``deliver``/``vote``), and
    * ``replica.complete_aggregation(block, aggregate)`` — the paper's
      ``aggregate`` upcall at the collector.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, replica: "HotStuffReplica") -> None:
        self.replica = replica
        #: Per-block collection state, keyed by block id.
        self._state: Dict[str, Any] = {}

    # -- shorthand accessors -------------------------------------------------
    @property
    def config(self):
        return self.replica.config

    @property
    def committee(self):
        return self.replica.committee

    @property
    def scheme(self):
        return self.replica.committee.scheme

    @property
    def process_id(self) -> int:
        return self.replica.process_id

    # -- protocol hooks --------------------------------------------------------
    @abstractmethod
    def disseminate(self, block: Block) -> None:
        """Start dissemination and vote collection for ``block``.

        Called exactly once, at the proposer of ``block``.
        """

    @abstractmethod
    def handle(self, sender: int, message: Any) -> bool:
        """Process an aggregation-related message.

        Returns True if the message type belonged to this scheme (so the
        replica knows it was consumed).
        """

    # -- shared helpers ----------------------------------------------------------
    def _trace(self, etype: str, **fields: Any) -> None:
        """Emit an aggregation trace event (always, when tracing is on)."""
        tracer = self.replica.metrics.tracer
        if tracer is not None:
            tracer.emit(etype, self.process_id, self.replica.now, **fields)  # type: ignore[attr-defined]

    def _trace_hot(self, etype: str, view: int, **fields: Any) -> None:
        """Per-message trace emission, thinned by deterministic view sampling.

        Share arrivals fire once per vote per collection point — the one
        stream dense enough to threaten the overhead budget — so they go
        through ``sample_view``: at ``sample_rate < 1`` only a
        deterministic subset of views is traced, the *same* subset under
        sim and live.
        """
        tracer = self.replica.metrics.tracer
        if tracer is not None and tracer.sample_view(view):  # type: ignore[attr-defined]
            tracer.emit(etype, self.process_id, self.replica.now, view=view, **fields)  # type: ignore[attr-defined]

    def _finalise(self, block: Block, aggregate: AggregateSignature) -> None:
        """Deliver the finished aggregate to the consensus layer once."""
        state = self._state.get(block.block_id)
        if state is not None and state.get("done"):
            return
        if state is not None:
            state["done"] = True
        # Every contribution in the aggregate was verified before being
        # folded in, so the sum is known valid: seed the backend's
        # verified-aggregate cache so the QC's own verification (here and,
        # with a shared scheme, at every co-hosted replica) is a lookup.
        self.committee.trust_aggregate(aggregate, block.signing_payload())
        self.replica.complete_aggregation(block, aggregate)

    def _is_done(self, block_id: str) -> bool:
        state = self._state.get(block_id)
        return bool(state and state.get("done"))

    def _prune(self, keep: int = 64) -> None:
        """Bound per-block state (old views are never revisited)."""
        if len(self._state) <= keep:
            return
        for key in list(self._state)[: len(self._state) - keep]:
            del self._state[key]


_AGGREGATOR_REGISTRY: Dict[str, type] = {}


def register_aggregator(cls: type) -> type:
    """Class decorator adding an aggregation scheme to the registry."""
    _AGGREGATOR_REGISTRY[cls.name] = cls
    return cls


def make_aggregator(name: str, replica: "HotStuffReplica") -> Aggregator:
    """Instantiate the aggregation scheme ``name`` for ``replica``.

    ``"star"``, ``"tree"`` (Iniva-No2C), ``"iniva"``, ``"gosig"``,
    ``"handel"`` and ``"kauri"`` are registered by importing their modules;
    unknown names raise ``KeyError``.
    """
    if name not in _AGGREGATOR_REGISTRY:
        # Aggregators register themselves on import; import lazily to avoid
        # circular imports between this module and the implementations.
        if name == "iniva":
            import repro.core.iniva  # noqa: F401  (side-effect registration)
        elif name == "star":
            import repro.aggregation.star  # noqa: F401
        elif name == "tree":
            import repro.aggregation.tree_agg  # noqa: F401
        elif name == "gosig":
            import repro.aggregation.gossip  # noqa: F401
        elif name == "handel":
            import repro.aggregation.handel  # noqa: F401
        elif name == "kauri":
            import repro.aggregation.kauri  # noqa: F401
    try:
        cls = _AGGREGATOR_REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_AGGREGATOR_REGISTRY))
        raise KeyError(f"unknown aggregation scheme {name!r}; known: {known}") from exc
    return cls(replica)
