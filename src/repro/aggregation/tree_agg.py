"""Two-level tree vote aggregation without fallback paths (Iniva-No2C).

This is the Kauri/ByzCoin-style baseline: the proposer pushes the block to
the tree root (the next leader) and the root's children; internal nodes
forward it to their leaves, aggregate their children's signatures and send
the aggregate up; the root finalises once it holds a quorum or its
aggregation timer fires.  There is no ACK and no 2ND-CHANCE, so the
failure of an internal node silently loses its whole subtree — exactly the
weakness Iniva's fallback paths remove (the Iniva aggregator in
:mod:`repro.core.iniva` subclasses this one).

The multiplicity encoding of Iniva's reward scheme is already applied here
(each aggregated child is included twice, plus one extra copy of the
parent's own signature per child) so that the reward layer can be used
with either variant.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.aggregation.base import Aggregator, register_aggregator
from repro.aggregation.messages import ProposalMessage, SignatureMessage
from repro.consensus.block import Block
from repro.crypto.multisig import AggregateSignature, SignatureShare
from repro.tree.overlay import AggregationTree

__all__ = ["TreeAggregator"]


@register_aggregator
class TreeAggregator(Aggregator):
    """Kauri-style tree aggregation; also the paper's Iniva-No2C variant."""

    name = "tree"

    #: Subclasses (Iniva) flip this to enable ACK / 2ND-CHANCE handling.
    uses_fallback_paths = False

    # -- dissemination ---------------------------------------------------------
    def disseminate(self, block: Block) -> None:
        state = self._collection(block)
        tree: AggregationTree = state["tree"]
        message = ProposalMessage(block)
        # The proposer sends the block to the root (the next leader) and the
        # root's children (Figure 1-A of the paper).
        targets = {tree.root, *tree.children(tree.root)}
        targets.discard(self.process_id)
        self.replica.multicast(sorted(targets), message, size_bytes=message.size_bytes)
        # The proposer also participates in its own tree role.
        self._on_proposal(block)

    # -- message handling --------------------------------------------------------
    def handle(self, sender: int, message: Any) -> bool:
        if isinstance(message, ProposalMessage):
            self._on_proposal(message.block)
            return True
        if isinstance(message, SignatureMessage):
            self._on_signature(sender, message)
            return True
        return False

    # -- proposal path --------------------------------------------------------------
    def _on_proposal(self, block: Block) -> None:
        state = self._collection(block)
        if state["proposal_handled"]:
            return
        share = self.replica.process_proposal(block)
        if share is None:
            return
        state["proposal_handled"] = True
        state["own_share"] = share
        tree: AggregationTree = state["tree"]
        pid = self.process_id
        if tree.is_root(pid):
            self._root_add_contribution(block, share, weight=1, source=pid)
            self._start_root_timer(block)
        elif tree.is_internal(pid):
            children = tree.children(pid)
            proposal = ProposalMessage(block)
            self.replica.multicast(children, proposal, size_bytes=proposal.size_bytes)
            self.replica.set_timer(
                self.config.aggregation_timer(height=1), self._internal_send_up, block
            )
            self._internal_check_complete(block)
        else:
            # Leaf (either under an internal node or directly under the root).
            parent = tree.parent(pid)
            vote = SignatureMessage(block_id=block.block_id, view=block.view, signature=share)
            self.replica.send(parent, vote, size_bytes=vote.size_bytes)
        self._drain_pending(block)

    # -- signatures travelling up the tree ----------------------------------------------
    def _on_signature(self, sender: int, message: SignatureMessage) -> None:
        if self._is_done(message.block_id):
            return
        block = self.replica.known_block(message.block_id)
        state = self._state.get(message.block_id)
        if block is None or state is None or not state["proposal_handled"]:
            state = self._collection_by_id(message.block_id)
            state["pending"].append((sender, message))
            return
        tree: AggregationTree = state["tree"]
        pid = self.process_id
        if tree.is_root(pid):
            self._root_on_signature(block, sender, message.signature)
        elif tree.is_internal(pid) and sender in tree.children(pid):
            self._internal_on_child_share(block, sender, message.signature)

    # -- internal-node behaviour -----------------------------------------------------------
    def _internal_on_child_share(self, block: Block, sender: int, signature: Any) -> None:
        if not isinstance(signature, SignatureShare) or signature.signer != sender:
            return
        state = self._collection(block)
        if state["sent_up"]:
            return
        self._trace_hot(
            "share_recv", block.view, block=block.block_id[:12], src=sender, role="internal"
        )
        self.replica.consume_cpu(self.config.cpu_model.verify_share)
        if not self.committee.verify_share(signature, block.signing_payload()):
            return
        state["children_shares"][sender] = signature
        self._internal_check_complete(block)

    def _internal_check_complete(self, block: Block) -> None:
        state = self._collection(block)
        tree: AggregationTree = state["tree"]
        children = tree.children(self.process_id)
        if len(state["children_shares"]) >= len(children):
            self._internal_send_up(block)

    def _internal_send_up(self, block: Block) -> None:
        state = self._collection(block)
        if state["sent_up"] or state["own_share"] is None:
            return
        state["sent_up"] = True
        tree: AggregationTree = state["tree"]
        children_shares = dict(state["children_shares"])
        # Iniva's multiplicity encoding: each aggregated child twice, plus one
        # extra copy of the parent's own signature per aggregated child.
        contributions = [(state["own_share"], 1 + len(children_shares))]
        contributions.extend((share, 2) for share in children_shares.values())
        self.replica.consume_cpu(
            self.config.cpu_model.aggregate_per_share * (len(children_shares) + 1)
        )
        aggregate = self.scheme.aggregate(contributions)
        state["internal_aggregate"] = aggregate
        vote = SignatureMessage(block_id=block.block_id, view=block.view, signature=aggregate)
        self.replica.send(tree.root, vote, size_bytes=vote.size_bytes)
        self._after_internal_send(block, aggregate, sorted(children_shares))

    def _after_internal_send(
        self, block: Block, aggregate: AggregateSignature, aggregated_children: list
    ) -> None:
        """Hook for Iniva: send ACKs to the aggregated children."""

    # -- root behaviour ------------------------------------------------------------------------
    def _start_root_timer(self, block: Block) -> None:
        state = self._collection(block)
        if state["root_timer_started"]:
            return
        state["root_timer_started"] = True
        self.replica.set_timer(
            self.config.aggregation_timer(height=2), self._root_timeout, block
        )

    def _root_on_signature(self, block: Block, sender: int, signature: Any) -> None:
        state = self._collection(block)
        if state["done"]:
            return
        self._trace_hot(
            "share_recv",
            block.view,
            block=block.block_id[:12],
            src=sender,
            role="root",
            kind="aggregate" if isinstance(signature, AggregateSignature) else "share",
        )
        tree: AggregationTree = state["tree"]
        if isinstance(signature, AggregateSignature):
            if sender not in tree.internal_nodes:
                return
            self.replica.consume_cpu(
                self.config.cpu_model.aggregate_verify_cost(len(signature.signers))
            )
            if not self.committee.verify_aggregate(signature, block.signing_payload()):
                return
            self._root_add_contribution(block, signature, weight=1, source=sender)
        elif isinstance(signature, SignatureShare):
            if signature.signer != sender or sender not in tree.children(tree.root):
                return
            self.replica.consume_cpu(self.config.cpu_model.verify_share)
            if not self.committee.verify_share(signature, block.signing_payload()):
                return
            self._root_add_contribution(block, signature, weight=1, source=sender)

    def _root_add_contribution(self, block: Block, contribution: Any, weight: int, source: int) -> None:
        state = self._collection(block)
        if state["done"]:
            return
        signers = (
            contribution.signers
            if isinstance(contribution, AggregateSignature)
            else frozenset({contribution.signer})
        )
        if signers & state["included"]:
            # Indivisible aggregates cannot be decomposed, so overlapping
            # contributions are skipped rather than double-counted.
            return
        state["contributions"].append((contribution, weight))
        state["included"] |= signers
        state["sources"].add(source)
        self._trace_hot(
            "share_verified",
            block.view,
            block=block.block_id[:12],
            src=source,
            signers=len(signers),
            included=len(state["included"]),
        )
        self._root_check_progress(block)

    def _root_check_progress(self, block: Block) -> None:
        state = self._collection(block)
        if state["done"]:
            return
        included = len(state["included"])
        if included >= self.config.committee_size:
            self._root_finalise(block)
        elif included >= self.config.quorum_size:
            self._root_on_quorum(block)

    def _root_on_quorum(self, block: Block) -> None:
        """Quorum reached at the root.  The plain tree finalises immediately."""
        self._root_finalise(block)

    def _root_timeout(self, block: Block) -> None:
        state = self._collection(block)
        if state["done"]:
            return
        if len(state["included"]) >= self.config.quorum_size:
            self._root_on_quorum(block)
        # Below quorum there is nothing the aggregation layer can do; the
        # pacemaker's view timeout will eventually fail the view.

    def _root_finalise(self, block: Block) -> None:
        state = self._collection(block)
        if state["done"] or len(state["included"]) < self.config.quorum_size:
            return
        contributions = state["contributions"]
        self.replica.consume_cpu(self.config.cpu_model.aggregate_per_share * len(contributions))
        aggregate = self.scheme.aggregate(contributions)
        self._finalise(block, aggregate)

    # -- shared state helpers --------------------------------------------------------------------
    def _build_tree(self, block: Block) -> AggregationTree:
        """The aggregation tree used for ``block``.

        The default is the replica's per-view reshuffled tree; subclasses
        (e.g. the Kauri baseline) override this to use a stable tree with
        explicit reconfiguration.
        """
        return self.replica.build_tree(block)

    def _collection(self, block: Block) -> Dict[str, Any]:
        state = self._collection_by_id(block.block_id)
        if state["tree"] is None:
            state["tree"] = self._build_tree(block)
            state["block"] = block
        return state

    def _collection_by_id(self, block_id: str) -> Dict[str, Any]:
        state = self._state.get(block_id)
        if state is None:
            state = {
                "tree": None,
                "block": None,
                "own_share": None,
                "proposal_handled": False,
                "children_shares": {},
                "internal_aggregate": None,
                "sent_up": False,
                "contributions": [],
                "included": set(),
                "sources": set(),
                "pending": [],
                "root_timer_started": False,
                "done": False,
                "parent_ack": None,
                "second_chance_sent": False,
                "second_chance_expired": False,
            }
            self._state[block_id] = state
            self._prune()
        return state

    def _drain_pending(self, block: Block) -> None:
        state = self._collection(block)
        pending, state["pending"] = state["pending"], []
        for sender, message in pending:
            self.handle(sender, message)
