"""Tests for the Adam2Protocol engine adapter."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.rngs import make_rng
from repro.core.config import Adam2Config
from repro.core.protocol import Adam2Protocol, bootstrap_pool
from repro.simulation.runner import build_engine
from repro.workloads.synthetic import uniform_workload


def make_engine(n=60, scheduler="manual", config=None, seed=0, **engine_kwargs):
    config = config or Adam2Config(points=8, rounds_per_instance=10)
    protocol = Adam2Protocol(config, scheduler=scheduler)
    engine = build_engine(
        uniform_workload(0, 1000), n, [protocol], make_rng(seed), **engine_kwargs
    )
    return engine, protocol


class TestLifecycle:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SimulationError):
            Adam2Protocol(Adam2Config(), scheduler="astrology")

    def test_trigger_and_complete(self):
        engine, protocol = make_engine()
        iid = protocol.trigger_instance(engine)
        assert iid in protocol.started_instances
        assert protocol.active_instance_count(engine) >= 1
        engine.run(11)
        assert protocol.active_instance_count(engine) == 0
        assert len(protocol.estimates(engine)) == 60

    def test_estimates_include_undefined(self):
        engine, protocol = make_engine()
        out = protocol.estimates(engine, include_undefined=True)
        assert len(out) == 60
        assert all(e is None for e in out)

    def test_exchange_empty_is_free(self):
        engine, protocol = make_engine()
        engine.run(3)  # no instance running
        assert engine.network.summary(60).bytes_total == 0

    def test_bytes_proportional_to_active_instances(self):
        engine, protocol = make_engine()
        protocol.trigger_instance(engine)
        engine.run(2)
        protocol.trigger_instance(engine)
        engine.run(4)  # let the second instance spread epidemically
        before = engine.network.summary(60).bytes_total
        engine.run(1)
        per_round = engine.network.summary(60).bytes_total - before
        # Two concurrent instances cost roughly twice one instance.
        single = 2 * 60 * protocol.config.message_bytes()
        assert per_round > 1.5 * single

    def test_values_refreshed_at_instance_start(self):
        engine, protocol = make_engine()
        node = engine.random_node()
        node.values = np.asarray([123456.0])
        protocol.trigger_instance(engine, node=node)
        engine.run(11)
        adam2 = node.state[protocol.name]
        # The refreshed value ends up as the tracked global maximum.
        assert adam2.current_estimate.maximum == 123456.0


class TestNeighbourValues:
    def test_sample_bounded(self):
        config = Adam2Config(points=8, rounds_per_instance=10)
        protocol = Adam2Protocol(config, scheduler="manual", neighbour_sample=5)
        engine = build_engine(uniform_workload(0, 10), 40, [protocol], make_rng(1))
        node = engine.random_node()
        values = bootstrap_pool(node, engine, protocol.neighbour_sample)
        assert values.size <= 5

    def test_isolated_node_uses_own_values(self):
        engine, protocol = make_engine(n=3, overlay="random", degree=1)
        node = engine.random_node()
        engine.overlay._links[node.node_id] = []  # cut all links
        values = bootstrap_pool(node, engine, protocol.neighbour_sample)
        assert values.size >= 1


class TestLossyEngine:
    def test_loss_slows_but_does_not_break(self):
        engine, protocol = make_engine(n=80, loss_rate=0.3)
        protocol.trigger_instance(engine)
        engine.run(12)
        assert engine.exchanges_lost > 0
        assert len(protocol.estimates(engine)) >= 70

    def test_invalid_loss_rate(self):
        with pytest.raises(SimulationError):
            make_engine(loss_rate=1.0)


def make_engine_with_loss_kwarg(**kwargs):
    # helper used above via build_engine passthrough
    return make_engine(**kwargs)
