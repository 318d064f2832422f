"""Adam2 on the asynchronous engine.

The adapter reuses :class:`repro.core.node.Adam2Node` state and merge
semantics, but the exchange is genuinely asynchronous: the request carries
a snapshot of the sender's instance states; the responder replies with its
own *pre-merge* snapshots and then merges the received ones; the initiator
merges the response whenever it arrives.  When both states are unchanged
in flight this is exactly the symmetric (mass-conserving) exchange; under
concurrency small conservation violations occur and average out — the
realistic behaviour the round-based model idealises away.

Instance TTLs count the node's *own* timer fires, so an instance lasts
``rounds_per_instance`` local gossip periods, matching the paper's
round-based TTL in expectation.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.rngs import spawn
from repro.core.cdf import EstimatedCDF
from repro.core.config import Adam2Config, bootstrap_sample_size
from repro.core.instance import InstanceState
from repro.core.node import Adam2Node
from repro.core.protocol import bootstrap_pool
from repro.asyncsim.engine import AsyncEngine, AsyncProtocol
from repro.simulation.node_base import SimNode

__all__ = ["AsyncAdam2"]


class AsyncAdam2(AsyncProtocol):
    """Adam2 as an asynchronous gossip protocol.

    Args:
        config: protocol parameters shared by all nodes.
        scheduler: ``"manual"`` (instances via :meth:`trigger_instance`)
            or ``"probabilistic"`` (the paper's self-selection).
        neighbour_sample: attribute values collected for the
            neighbour-based bootstrap.
    """

    name = "adam2-async"

    def __init__(self, config: Adam2Config, scheduler: str = "manual", neighbour_sample: int | None = None):
        self.config = config
        self.scheduler = scheduler
        self.neighbour_sample = bootstrap_sample_size(config, neighbour_sample)

    # ------------------------------------------------------------------
    # AsyncProtocol interface
    # ------------------------------------------------------------------

    def on_node_added(self, node: SimNode, engine: AsyncEngine) -> None:
        node.state[self.name] = Adam2Node(node.node_id, node.values, self.config, spawn(node.rng))

    def on_timer(self, node: SimNode, engine: AsyncEngine) -> Any | None:
        adam2: Adam2Node = node.state[self.name]
        adam2.end_of_round()
        if self.scheduler == "probabilistic" and adam2.should_start_instance():
            self._start_at(node, engine)
        if not adam2.instances:
            return None
        return {iid: state.snapshot() for iid, state in adam2.instances.items()}

    def on_request(self, node: SimNode, payload: Any, engine: AsyncEngine) -> Any | None:
        adam2: Adam2Node = node.state[self.name]
        response: dict = {}

        def keep(iid: Hashable, local: InstanceState) -> None:
            response[iid] = local.snapshot()

        adam2.receive(payload, before_merge=keep)
        # Also piggyback instances the sender has not seen yet, so
        # instances spread on responses as well as requests.
        for iid, state in adam2.instances.items():
            if iid not in response and iid not in payload:
                response[iid] = state.snapshot()
        return response or None

    def on_response(self, node: SimNode, payload: Any, engine: AsyncEngine) -> None:
        node.state[self.name].receive(payload)

    def payload_bytes(self, payload: Any) -> int:
        return max(len(payload), 1) * self.config.message_bytes()

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------

    def trigger_instance(self, engine: AsyncEngine, node: SimNode | None = None) -> Hashable:
        if node is None:
            ids = list(engine.nodes)
            node = engine.nodes[ids[int(engine.rng.integers(0, len(ids)))]]
        return self._start_at(node, engine)

    def _start_at(self, node: SimNode, engine: AsyncEngine) -> Hashable:
        adam2: Adam2Node = node.state[self.name]
        return adam2.start_instance(
            neighbour_values=bootstrap_pool(node, engine, self.neighbour_sample)
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def estimates(self, engine: AsyncEngine) -> list[EstimatedCDF]:
        out = []
        for node in engine.nodes.values():
            estimate = node.state[self.name].current_estimate
            if estimate is not None:
                out.append(estimate)
        return out

    def adam2_nodes(self, engine: AsyncEngine) -> list[Adam2Node]:
        return [node.state[self.name] for node in engine.nodes.values()]
