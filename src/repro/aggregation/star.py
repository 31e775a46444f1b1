"""Star-topology vote aggregation (the HotStuff baseline).

The proposer broadcasts the block to every replica; each replica validates
it, votes and sends its signature share directly to the collector (the
next leader).  The collector verifies each share and finalises the QC as
soon as it holds a quorum — which is precisely why the baseline's QCs
contain only a quorum of votes (Figure 4d) and why a malicious collector
can omit any vote it likes (0-omission probability ``m``, Table I).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.aggregation.base import Aggregator, register_aggregator
from repro.aggregation.messages import ProposalMessage, SignatureMessage
from repro.consensus.block import Block
from repro.crypto.multisig import SignatureShare

__all__ = ["StarAggregator"]


@register_aggregator
class StarAggregator(Aggregator):
    """HotStuff-style direct vote collection at the next leader."""

    name = "star"

    # -- dissemination ---------------------------------------------------------
    def disseminate(self, block: Block) -> None:
        message = ProposalMessage(block)
        others = [pid for pid in range(self.config.committee_size) if pid != self.process_id]
        self.replica.multicast(others, message, size_bytes=message.size_bytes)
        # The proposer delivers its own proposal immediately.
        self._on_proposal(block)

    # -- message handling -------------------------------------------------------
    def handle(self, sender: int, message: Any) -> bool:
        if isinstance(message, ProposalMessage):
            self._on_proposal(message.block)
            return True
        if isinstance(message, SignatureMessage):
            self._on_vote(sender, message)
            return True
        return False

    def _on_proposal(self, block: Block) -> None:
        share = self.replica.process_proposal(block)
        collector = self.replica.collector_for(block)
        if share is not None:
            vote = SignatureMessage(block_id=block.block_id, view=block.view, signature=share)
            if collector == self.process_id:
                self._record_share(block, share)
            else:
                self.replica.send(collector, vote, size_bytes=vote.size_bytes)
        if collector == self.process_id:
            self._drain_pending(block)

    def _on_vote(self, sender: int, message: SignatureMessage) -> None:
        if self._is_done(message.block_id):
            return
        block = self.replica.known_block(message.block_id)
        if block is None:
            # The vote overtook the proposal; replay it once the block is known.
            state = self._collection(message.block_id)
            state["pending"].append((sender, message))
            return
        if self.replica.collector_for(block) != self.process_id:
            return
        share = message.signature
        if not isinstance(share, SignatureShare):
            return
        self._trace_hot(
            "share_recv", block.view, block=block.block_id[:12], src=sender, role="collector"
        )
        self.replica.consume_cpu(self.config.cpu_model.verify_share)
        if not self.committee.verify_share(share, block.signing_payload()):
            return
        self._record_share(block, share)

    # -- collection state ----------------------------------------------------------
    def _collection(self, block_id: str) -> Dict[str, Any]:
        state = self._state.get(block_id)
        if state is None:
            state = {
                "shares": {},
                "pending": [],
                "done": False,
                "deadline_set": False,
            }
            self._state[block_id] = state
            self._prune()
        return state

    def _drain_pending(self, block: Block) -> None:
        state = self._collection(block.block_id)
        pending, state["pending"] = state["pending"], []
        for sender, message in pending:
            self._on_vote(sender, message)

    def _record_share(self, block: Block, share: SignatureShare) -> None:
        state = self._collection(block.block_id)
        if state["done"]:
            return
        state["shares"][share.signer] = share
        self._trace_hot(
            "share_verified",
            block.view,
            block=block.block_id[:12],
            src=share.signer,
            signers=1,
            included=len(state["shares"]),
        )
        quorum = self.config.quorum_size
        if not state["deadline_set"] and self.config.wait_for_all_votes:
            state["deadline_set"] = True
            self.replica.set_timer(
                self.config.aggregation_timer(height=1), self._finalise_now, block
            )
        if len(state["shares"]) >= self.config.committee_size:
            self._finalise_now(block)
        elif len(state["shares"]) >= quorum and not self.config.wait_for_all_votes:
            self._finalise_now(block)

    def _finalise_now(self, block: Block) -> None:
        state = self._collection(block.block_id)
        if state["done"]:
            return
        if len(state["shares"]) < self.config.quorum_size:
            return
        shares = list(state["shares"].values())
        self.replica.consume_cpu(self.config.cpu_model.aggregate_per_share * len(shares))
        aggregate = self.scheme.aggregate([(share, 1) for share in shares])
        self._finalise(block, aggregate)
