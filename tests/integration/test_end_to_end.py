"""End-to-end integration tests across substrates.

These run the full stack — workload → engine → Adam2 → metrics — and
assert the paper's core functional claims at small scale.  The engine of
:class:`TestAdam2OnEngine` is the cycle-driven loop the node daemons
run, without a transport: one :class:`~repro.core.node.Adam2Node` per
peer, one :func:`~repro.core.node.gossip_exchange` per uniformly drawn
pair (the paper's PeerSim setting), then every peer ends the round.
"""

import numpy as np
import pytest

from repro.api import run
from repro.core import Adam2Config, EmpiricalCDF
from repro.core.node import Adam2Node, gossip_exchange
from repro.fastsim.adam2 import Adam2Simulation
from repro.fastsim.equidepth import EquiDepthSimulation
from repro.fastsim.exchange import random_partners
from repro.metrics import aggregate_errors
from repro.rngs import make_rng, spawn
from repro.workloads import boinc_ram_mb
from repro.workloads.synthetic import lognormal_workload

#: peers whose values an initiator sees when it bootstraps its thresholds
NEIGHBOURS = 10


class NodeEngine:
    """Cycle-driven Adam2 over per-peer objects, with replacement churn."""

    def __init__(self, workload, n_nodes, config, seed, churn_rate=0.0, probabilistic=False):
        rng = make_rng(seed)
        self.workload = workload
        self.config = config
        self.churn_rate = churn_rate
        self.probabilistic = probabilistic
        self._value_rng = spawn(rng)
        self._node_rng = spawn(rng)
        self._gossip_rng = spawn(rng)
        self._churn_rng = spawn(rng)
        self._next_id = 0
        self.nodes = [self._fresh(v) for v in workload.sample(n_nodes, self._value_rng)]
        self.round = 0
        self.replaced = 0
        self.started_instances = []

    def _fresh(self, value):
        node = Adam2Node(self._next_id, value, self.config, spawn(self._node_rng))
        self._next_id += 1
        return node

    def _start(self, node):
        picks = self._gossip_rng.choice(len(self.nodes), size=NEIGHBOURS, replace=False)
        pool = np.concatenate([self.nodes[int(i)].values for i in picks])
        iid = node.start_instance(neighbour_values=pool, round_=self.round)
        self.started_instances.append(iid)
        return iid

    def trigger_instance(self):
        return self._start(self.nodes[int(self._gossip_rng.integers(len(self.nodes)))])

    def run(self, rounds):
        for _ in range(rounds):
            if self.churn_rate > 0:
                victims = np.flatnonzero(self._churn_rng.random(len(self.nodes)) < self.churn_rate)
                for i, value in zip(victims, self.workload.sample(victims.size, self._value_rng)):
                    self.nodes[int(i)] = self._fresh(value)
                self.replaced += int(victims.size)
            if self.probabilistic:
                for node in self.nodes:
                    if node.should_start_instance():
                        self._start(node)
            order, partners = random_partners(len(self.nodes), self._gossip_rng)
            for p, q in zip(order, partners):
                gossip_exchange(self.nodes[int(p)], self.nodes[int(q)], self.round)
            for node in self.nodes:
                node.end_of_round(self.round)
            self.round += 1

    def attribute_values(self):
        return np.concatenate([node.values for node in self.nodes])

    def estimates(self):
        return [node.current_estimate for node in self.nodes if node.current_estimate is not None]


class TestAdam2OnEngine:
    def test_refinement_improves_over_instances(self):
        config = Adam2Config(points=25, rounds_per_instance=25, selection="minmax")
        engine = NodeEngine(boinc_ram_mb(), 200, config, seed=43)
        truth = EmpiricalCDF(engine.attribute_values())
        errors = []
        for _ in range(3):
            engine.trigger_instance()
            engine.run(26)
            errors.append(aggregate_errors(truth, engine.estimates()[:20]).maximum)
        assert errors[-1] < errors[0]

    def test_probabilistic_scheduler_starts_instances(self):
        config = Adam2Config(
            points=10, rounds_per_instance=10, instance_frequency=2, initial_size_estimate=10.0
        )
        engine = NodeEngine(lognormal_workload(), 60, config, seed=44, probabilistic=True)
        engine.run(20)
        assert len(engine.started_instances) >= 1
        # Eventually everyone holds an estimate.
        engine.run(30)
        assert len(engine.estimates()) == 60

    def test_concurrent_instances_are_isolated(self):
        """Two instances from two initiators each keep Σweight = 1, and
        every peer completes both."""
        config = Adam2Config(points=12, rounds_per_instance=40, verification_points=5)
        engine = NodeEngine(lognormal_workload(), 120, config, seed=45)
        first = engine.trigger_instance()
        ids = [first]
        for round_ in range(config.rounds_per_instance + 6):
            if round_ == 5:
                ids.append(engine.trigger_instance())
            engine.run(1)
            for iid in ids:
                states = [node.instances[iid] for node in engine.nodes if iid in node.instances]
                if states:
                    assert sum(s.weight for s in states) == pytest.approx(1.0, abs=1e-12)
                    thresholds = {s.h.thresholds.tobytes() for s in states}
                    assert thresholds == {states[0].h.thresholds.tobytes()}
        assert ids[0] != ids[1]
        for node in engine.nodes:
            completed = {record.instance_id: record for record in node.completed}
            assert set(completed) == set(ids)
            for record in completed.values():
                assert record.system_size == pytest.approx(len(engine.nodes), rel=1e-6)

    def test_churned_nodes_bootstrap(self):
        """A peer churned in mid-run holds no estimate until it joins the
        next instance through gossip; after that nearly all peers do."""
        config = Adam2Config(points=10, rounds_per_instance=20)
        engine = NodeEngine(lognormal_workload(), 150, config, seed=46, churn_rate=0.01)
        engine.trigger_instance()
        engine.run(21)
        engine.trigger_instance()
        engine.run(21)
        assert engine.replaced > 0
        churned_in = [node for node in engine.nodes if node.node_id >= 150]
        assert any(node.current_estimate is not None for node in churned_in)
        assert len(engine.estimates()) > 140  # nearly all, including churned-in peers


class TestSideBySideProtocols:
    def test_adam2_and_equidepth_share_engine(self):
        """At matched budget, over the same seeded population, EquiDepth
        does not beat one Adam2 instance's average error by much."""
        adam2 = Adam2Simulation(
            boinc_ram_mb(), 120, Adam2Config(points=15, rounds_per_instance=20), seed=47
        )
        equidepth = EquiDepthSimulation(boinc_ram_mb(), 120, synopsis_size=15, seed=47)
        np.testing.assert_array_equal(adam2.values, equidepth.values)
        adam2_errors = adam2.run_instance().errors_entire
        equidepth_errors = equidepth.run_phase(rounds=20).errors_entire
        assert adam2_errors.average < max(2 * equidepth_errors.average, 0.05)


class TestCostIntegration:
    def test_traffic_matches_model_during_instance(self):
        config = Adam2Config(points=50, rounds_per_instance=25)
        result = run(config, lognormal_workload(), backend="fast", n_nodes=100, seed=48)
        expected = 2 * 25 * config.message_bytes()  # 2 msgs/round x 25 rounds
        assert result.final.bytes / 100 == pytest.approx(expected, rel=0.25)
