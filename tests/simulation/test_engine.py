"""Tests for the round-based engine."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.rngs import make_rng
from repro.overlay.random_graph import FullMeshOverlay
from repro.simulation.engine import Engine, Protocol
from repro.simulation.node_base import SimNode
from repro.simulation.runner import build_engine, run_until
from repro.workloads.synthetic import uniform_workload


class CountingProtocol(Protocol):
    """Test protocol: counts exchanges and per-node ticks."""

    name = "counter"

    def __init__(self):
        self.added = 0
        self.removed = 0
        self.exchanges = 0
        self.ticks = 0

    def on_node_added(self, node, engine):
        node.state[self.name] = 0
        self.added += 1

    def on_node_removed(self, node, engine):
        self.removed += 1

    def exchange(self, initiator, responder, engine):
        self.exchanges += 1
        initiator.state[self.name] += 1
        responder.state[self.name] += 1
        return 10, 10

    def after_node_round(self, node, engine):
        self.ticks += 1


def make_engine(n=10, seed=0, protocol=None):
    protocol = protocol or CountingProtocol()
    rng = make_rng(seed)
    engine = build_engine(uniform_workload(0, 100), n, [protocol], rng, overlay="mesh")
    return engine, protocol


class TestPopulation:
    def test_populate(self):
        engine, protocol = make_engine(10)
        assert engine.node_count == 10
        assert protocol.added == 10

    def test_node_ids_unique_and_stable(self):
        engine, _ = make_engine(5)
        ids = list(engine.nodes)
        engine.remove_node(ids[0])
        node = engine.add_node(50.0)
        assert node.node_id not in ids  # never reused

    def test_remove_unknown_raises(self):
        engine, _ = make_engine(3)
        with pytest.raises(SimulationError):
            engine.remove_node(999)

    def test_attribute_values(self):
        engine, _ = make_engine(6)
        assert engine.attribute_values().size == 6

    def test_random_node(self):
        engine, _ = make_engine(4)
        assert engine.random_node().node_id in engine.nodes


class TestRounds:
    def test_each_node_initiates_once_per_round(self):
        engine, protocol = make_engine(10)
        engine.run_round()
        assert protocol.exchanges == 10
        assert protocol.ticks == 10

    def test_messages_accounted(self):
        engine, _ = make_engine(10)
        engine.run_round()
        summary = engine.network.summary(engine.node_count)
        assert summary.messages_total == 20  # request + response per exchange
        assert summary.bytes_total == 200

    def test_round_counter(self):
        engine, _ = make_engine(4)
        engine.run(3)
        assert engine.round == 3

    def test_negative_rounds_rejected(self):
        engine, _ = make_engine(4)
        with pytest.raises(SimulationError):
            engine.run(-1)

    def test_duplicate_protocol_names_rejected(self):
        rng = make_rng(0)
        with pytest.raises(SimulationError):
            Engine(FullMeshOverlay([0, 1]), [CountingProtocol(), CountingProtocol()], rng)

    def test_determinism(self):
        engine_a, protocol_a = make_engine(8, seed=5)
        engine_b, protocol_b = make_engine(8, seed=5)
        engine_a.run(5)
        engine_b.run(5)
        state_a = [node.state["counter"] for node in engine_a.nodes.values()]
        state_b = [node.state["counter"] for node in engine_b.nodes.values()]
        assert state_a == state_b


class TestRunUntil:
    def test_stops_on_predicate(self):
        engine, _ = make_engine(4)
        executed = run_until(engine, lambda e: e.round >= 3, max_rounds=10)
        assert executed == 3
        assert engine.round == 3

    def test_raises_when_never_satisfied(self):
        engine, _ = make_engine(4)
        with pytest.raises(SimulationError):
            run_until(engine, lambda e: False, max_rounds=3)


class TestSimNode:
    def test_values_1d(self):
        node = SimNode(1, 5.0, make_rng(0))
        assert node.values.shape == (1,)
        assert node.value == 5.0

    def test_empty_values_rejected(self):
        with pytest.raises(SimulationError):
            SimNode(1, np.asarray([]), make_rng(0))


class TestBuildEngine:
    @pytest.mark.parametrize("overlay", ["mesh", "random", "sampling"])
    def test_overlay_kinds(self, overlay):
        rng = make_rng(1)
        engine = build_engine(uniform_workload(0, 10), 12, [CountingProtocol()], rng, overlay=overlay)
        engine.run(2)
        assert engine.round == 2

    def test_unknown_overlay(self):
        with pytest.raises(SimulationError):
            build_engine(uniform_workload(0, 10), 5, [CountingProtocol()], make_rng(1), overlay="torus")

    def test_too_small(self):
        with pytest.raises(SimulationError):
            build_engine(uniform_workload(0, 10), 1, [CountingProtocol()], make_rng(1))
