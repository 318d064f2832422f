"""Engine adapter: running Adam2 on the simulation substrate.

:class:`Adam2Protocol` wires :class:`repro.core.node.Adam2Node` into the
round-based engine: it creates per-node protocol state, performs the
push–pull exchanges, delivers TTL ticks, handles churn bootstrap, and
schedules new aggregation instances either probabilistically (the paper's
``P_s = 1/(N_p · R)`` self-selection) or manually from experiment code.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.core.config import Adam2Config, bootstrap_sample_size
from repro.core.node import Adam2Node, gossip_exchange
from repro.rngs import spawn
from repro.simulation.engine import Engine, Protocol
from repro.simulation.node_base import SimNode

__all__ = ["Adam2Protocol", "bootstrap_pool"]

_SCHEDULERS = ("probabilistic", "manual")


def bootstrap_pool(node: SimNode, engine: Any, sample: int) -> np.ndarray:
    """Attribute values an initiator sees for the neighbour-based bootstrap.

    The values of up to ``sample`` live overlay neighbours (a uniform
    draw from the node's own generator when it has more), or the node's
    own values when it has none.  ``engine`` is either simulated engine:
    both expose ``overlay`` and the ``nodes`` table.
    """
    neighbour_ids = [i for i in engine.overlay.neighbours(node.node_id) if i in engine.nodes]
    if not neighbour_ids:
        return node.values
    if len(neighbour_ids) > sample:
        picks = node.rng.choice(len(neighbour_ids), size=sample, replace=False)
        neighbour_ids = [neighbour_ids[int(i)] for i in picks]
    return np.concatenate([engine.nodes[i].values for i in neighbour_ids])


class Adam2Protocol(Protocol):
    """Adam2 as an engine protocol.

    Args:
        config: protocol parameters shared by all nodes.
        scheduler: ``"probabilistic"`` lets every node self-select as
            initiator each round with probability ``1/(N_p · R)``;
            ``"manual"`` starts instances only via
            :meth:`trigger_instance` (deterministic experiments).
        neighbour_sample: how many neighbour attribute values the
            initiator collects for the neighbour-based bootstrap.
    """

    name = "adam2"

    def __init__(self, config: Adam2Config, scheduler: str = "manual", neighbour_sample: int | None = None):
        if scheduler not in _SCHEDULERS:
            raise SimulationError(f"unknown scheduler {scheduler!r}; expected one of {_SCHEDULERS}")
        self.config = config
        self.scheduler = scheduler
        self.neighbour_sample = bootstrap_sample_size(config, neighbour_sample)
        #: instance ids started so far (for experiments/tests)
        self.started_instances: list = []

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------

    def on_node_added(self, node: SimNode, engine: Engine) -> None:
        adam2 = Adam2Node(node.node_id, node.values, self.config, spawn(node.rng))
        node.state[self.name] = adam2
        # Churned-in nodes are bootstrapped by an initial neighbour
        # (paper §IV): copy its current estimate and size estimate.
        if engine.round > 0 and engine.node_count > 1:
            for peer_id in engine.overlay.neighbours(node.node_id)[:5]:
                peer = engine.nodes.get(peer_id)
                if peer is None or peer is node:
                    continue
                peer_adam2 = peer.state.get(self.name)
                if peer_adam2 is not None and peer_adam2.current_estimate is not None:
                    adam2.bootstrap_from(peer_adam2)
                    break

    def exchange(self, initiator: SimNode, responder: SimNode, engine: Engine) -> tuple[int, int]:
        a: Adam2Node = initiator.state[self.name]
        b: Adam2Node = responder.state[self.name]
        # A node evaluates its attribute only when it creates or joins an
        # instance (§VII-F) — refresh so joins see the current value.
        a.values = initiator.values
        b.values = responder.values
        active = len(set(a.instances) | set(b.instances))
        if active == 0:
            return 0, 0
        gossip_exchange(a, b, round_=engine.round)
        payload = active * self.config.message_bytes()
        return payload, payload

    def after_node_round(self, node: SimNode, engine: Engine) -> None:
        adam2: Adam2Node = node.state[self.name]
        adam2.end_of_round(engine.round)
        if self.scheduler == "probabilistic" and adam2.should_start_instance():
            self._start_at(node, engine)

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------

    def trigger_instance(self, engine: Engine, node: SimNode | None = None):
        """Start an instance at ``node`` (or a random node) immediately."""
        node = node or engine.random_node()
        return self._start_at(node, engine)

    def _start_at(self, node: SimNode, engine: Engine):
        adam2: Adam2Node = node.state[self.name]
        adam2.values = node.values
        neighbour_values = bootstrap_pool(node, engine, self.neighbour_sample)
        instance_id = adam2.start_instance(neighbour_values=neighbour_values, round_=engine.round)
        self.started_instances.append(instance_id)
        return instance_id

    # ------------------------------------------------------------------
    # Inspection helpers for experiments/tests
    # ------------------------------------------------------------------

    def adam2_nodes(self, engine: Engine) -> list[Adam2Node]:
        return [node.state[self.name] for node in engine.nodes.values()]

    def estimates(self, engine: Engine, include_undefined: bool = False) -> list:
        """Current estimates of all live nodes (skipping nodes without one)."""
        out = []
        for adam2 in self.adam2_nodes(engine):
            if adam2.current_estimate is not None:
                out.append(adam2.current_estimate)
            elif include_undefined:
                out.append(None)
        return out

    def active_instance_count(self, engine: Engine) -> int:
        return sum(len(adam2.instances) for adam2 in self.adam2_nodes(engine))
