"""The synchronous round-based simulation engine.

Each round the engine:

1. applies churn (nodes leave, replacements join and are bootstrapped);
2. lets a dynamic overlay refresh its views;
3. visits every live node in a fresh random order; each node selects one
   overlay neighbour and performs one push–pull exchange per registered
   protocol (exchanges are sequential within the round, as in PeerSim's
   cycle-driven mode — a node's later exchange sees the effects of its
   earlier ones);
4. delivers a per-node timer tick to every protocol (TTL countdowns).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
import numpy as np

from repro.errors import SimulationError
from repro.obs.observer import NULL_HUB, ObserverHub
from repro.rngs import spawn
from repro.overlay.base import Overlay
from repro.simulation.network import NetworkAccounting
from repro.simulation.node_base import SimNode

__all__ = ["Engine", "Protocol"]


class Protocol(ABC):
    """A gossip protocol running on the engine.

    Protocols keep their per-node state in ``node.state[self.name]``.
    """

    #: unique registry name; also the key into ``SimNode.state``
    name: str = "protocol"

    @abstractmethod
    def on_node_added(self, node: SimNode, engine: "Engine") -> None:
        """Initialise per-node state (called for initial and churned-in nodes)."""

    def on_node_removed(self, node: SimNode, engine: "Engine") -> None:
        """Clean up when a node leaves (default: nothing)."""

    def before_round(self, engine: "Engine") -> None:
        """Hook at the start of each round (default: nothing)."""

    @abstractmethod
    def exchange(self, initiator: SimNode, responder: SimNode, engine: "Engine") -> tuple[int, int]:
        """One push–pull exchange; returns (request_bytes, response_bytes)."""

    def after_node_round(self, node: SimNode, engine: "Engine") -> None:
        """Per-node timer tick at the end of each round (default: nothing)."""

    def after_round(self, engine: "Engine") -> None:
        """Hook at the end of each round (default: nothing)."""


class Engine:
    """Synchronous gossip simulator."""

    def __init__(
        self,
        overlay: Overlay,
        protocols: list[Protocol],
        rng: np.random.Generator,
        churn=None,
        network: NetworkAccounting | None = None,
        loss_rate: float = 0.0,
        sanitize: bool | None = None,
        obs: ObserverHub | None = None,
    ):
        names = [p.name for p in protocols]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate protocol names: {names}")
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.overlay = overlay
        self.protocols = list(protocols)
        # Opt-in invariant sanitizer (ADAM2_SANITIZE=1 or sanitize=True):
        # wrap every protocol so each exchange is mass-checked.
        from repro.lint.sanitizer import SanitizedProtocol, sanitize_enabled

        if sanitize_enabled(sanitize):
            self.protocols = [SanitizedProtocol(p) for p in self.protocols]
        self.rng = rng
        self.churn = churn
        self.network = network or NetworkAccounting()
        #: observability hub (:mod:`repro.obs`); default hub is disabled,
        #: so instrumentation costs one no-op context per round.
        self.obs = obs if obs is not None else NULL_HUB
        #: probability that a whole push–pull exchange is lost (models a
        #: dropped UDP request or response; gossip protocols tolerate
        #: loss by design — a lost exchange merely delays convergence).
        self.loss_rate = loss_rate
        #: exchanges dropped so far (observability for tests/experiments)
        self.exchanges_lost = 0
        self.round: int = 0
        self.nodes: dict[int, SimNode] = {}
        self._next_node_id = 0

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------

    def allocate_node_id(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def add_node(self, values: float | np.ndarray, bootstrap: list[int] | None = None) -> SimNode:
        """Create a node, wire it into the overlay, init protocol state."""
        node_id = self.allocate_node_id()
        node = SimNode(node_id, values, spawn(self.rng), joined_round=self.round)
        self.nodes[node_id] = node
        self.overlay.add_node(node_id, bootstrap)
        for protocol in self.protocols:
            protocol.on_node_added(node, self)
        return node

    def populate(self, values: np.ndarray) -> list[SimNode]:
        """Create the initial population (overlay must already know ids).

        Used by :func:`repro.simulation.runner.build_engine`, which wires
        the overlay over pre-allocated ids; prefer that helper.
        """
        nodes = []
        for value in np.asarray(values, dtype=float):
            node_id = self.allocate_node_id()
            node = SimNode(node_id, value, spawn(self.rng), joined_round=0)
            self.nodes[node_id] = node
            nodes.append(node)
        for node in nodes:
            for protocol in self.protocols:
                protocol.on_node_added(node, self)
        return nodes

    def remove_node(self, node_id: int) -> None:
        node = self.nodes.pop(node_id, None)
        if node is None:
            raise SimulationError(f"cannot remove unknown node {node_id}")
        self.overlay.remove_node(node_id)
        for protocol in self.protocols:
            protocol.on_node_removed(node, self)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def live_nodes(self) -> list[SimNode]:
        return list(self.nodes.values())

    def random_node(self) -> SimNode:
        ids = list(self.nodes)
        if not ids:
            raise SimulationError("system is empty")
        return self.nodes[ids[int(self.rng.integers(0, len(ids)))]]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_round(self) -> None:
        """Execute one full gossip round."""
        with self.obs.span("round"):
            self._run_round()

    def _run_round(self) -> None:
        if self.churn is not None:
            self.churn.apply(self)
        self.overlay.step(self.rng)
        for protocol in self.protocols:
            protocol.before_round(self)

        ids = list(self.nodes)
        order = self.rng.permutation(len(ids))
        for idx in order:
            node_id = ids[int(idx)]
            node = self.nodes.get(node_id)
            if node is None:  # removed mid-round by a protocol hook
                continue
            peer_id = self.overlay.select_neighbour(node_id, self.rng)
            if peer_id is None:
                continue
            peer = self.nodes.get(peer_id)
            if peer is None or peer is node:
                continue
            if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
                self.exchanges_lost += 1
                continue
            for protocol in self.protocols:
                req_bytes, resp_bytes = protocol.exchange(node, peer, self)
                self.network.record_exchange(node_id, peer_id, req_bytes, resp_bytes)

        for node in list(self.nodes.values()):
            for protocol in self.protocols:
                protocol.after_node_round(node, self)
        for protocol in self.protocols:
            protocol.after_round(self)
        self.network.end_round()
        self.round += 1

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` consecutive rounds."""
        if rounds < 0:
            raise SimulationError(f"cannot run {rounds} rounds")
        for _ in range(rounds):
            self.run_round()

    def attribute_values(self) -> np.ndarray:
        """All attribute values of live nodes (the ground-truth population)."""
        if not self.nodes:
            raise SimulationError("system is empty")
        return np.concatenate([node.values for node in self.nodes.values()])
