"""Tests for churn models and network accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rngs import make_rng
from repro.simulation.churn import NoChurn, ReplacementChurn
from repro.simulation.engine import Protocol
from repro.simulation.network import NetworkAccounting
from repro.simulation.runner import build_engine
from repro.workloads.synthetic import uniform_workload


class NullProtocol(Protocol):
    name = "null"

    def on_node_added(self, node, engine):
        node.state[self.name] = None

    def exchange(self, initiator, responder, engine):
        return 0, 0


def make_engine(n=50, churn=None, seed=0):
    return build_engine(
        uniform_workload(0, 100), n, [NullProtocol()], make_rng(seed), overlay="mesh", churn=churn
    )


class TestReplacementChurn:
    def test_population_constant(self):
        rng = make_rng(1)
        churn = ReplacementChurn(0.2, uniform_workload(0, 100), rng)
        engine = make_engine(50, churn)
        engine.run(10)
        assert engine.node_count == 50
        assert churn.replaced > 0

    def test_zero_rate_no_replacement(self):
        churn = ReplacementChurn(0.0, uniform_workload(0, 100), make_rng(1))
        engine = make_engine(20, churn)
        ids_before = set(engine.nodes)
        engine.run(5)
        assert set(engine.nodes) == ids_before

    def test_replaced_nodes_get_fresh_values(self):
        rng = make_rng(2)
        churn = ReplacementChurn(0.5, uniform_workload(1000, 2000), rng)
        engine = make_engine(20, churn)
        engine.run(3)
        values = engine.attribute_values()
        assert (values >= 1000).any()  # replacements drawn from new range

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            ReplacementChurn(1.5, uniform_workload(0, 1), make_rng(0))

    def test_invalid_bootstrap_contacts(self):
        with pytest.raises(ConfigurationError):
            ReplacementChurn(0.1, uniform_workload(0, 1), make_rng(0), bootstrap_contacts=0)

    def test_never_empties_system(self):
        churn = ReplacementChurn(1.0, uniform_workload(0, 100), make_rng(3))
        engine = make_engine(10, churn)
        engine.run(5)
        assert engine.node_count == 10

    def test_no_churn_noop(self):
        engine = make_engine(10, NoChurn())
        ids = set(engine.nodes)
        engine.run(3)
        assert set(engine.nodes) == ids


class TestNetworkAccounting:
    def test_record_exchange(self):
        net = NetworkAccounting()
        net.record_exchange(1, 2, 100, 80)
        assert net.messages_sent[1] == 1
        assert net.messages_sent[2] == 1
        assert net.bytes_sent[1] == 100
        assert net.bytes_sent[2] == 80

    def test_summary(self):
        net = NetworkAccounting()
        net.record_exchange(1, 2, 100, 100)
        net.end_round()
        summary = net.summary(2)
        assert summary.messages_total == 2
        assert summary.bytes_per_node == 100.0
        assert summary.bytes_per_node_per_round == 100.0

    def test_reset(self):
        net = NetworkAccounting()
        net.record_exchange(1, 2, 10, 10)
        net.reset()
        assert net.summary(2).bytes_total == 0

    def test_empty_summary(self):
        summary = NetworkAccounting().summary(0)
        assert summary.messages_per_node == 0.0
        assert summary.bytes_per_node_per_round == 0.0

