"""Tests for Adam2Node and the pairwise gossip exchange."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.rngs import make_rng, spawn
from repro.core.config import Adam2Config
from repro.core.node import Adam2Node, gossip_exchange


def make_node(node_id, value, config=None, seed=0):
    config = config or Adam2Config(points=4, rounds_per_instance=5)
    return Adam2Node(node_id, value, config, make_rng(seed + node_id))


def wire_population(values, config=None, seed=0):
    return [make_node(i, v, config, seed) for i, v in enumerate(values)]


class TestLifecycle:
    def test_start_instance_creates_state(self):
        node = make_node(0, 10.0)
        iid = node.start_instance(neighbour_values=np.asarray([5.0, 20.0, 30.0, 40.0]))
        assert iid in node.instances
        state = node.instances[iid]
        assert state.initiator
        assert state.weight == 1.0
        assert state.ttl == node.config.rounds_per_instance

    def test_duplicate_instance_rejected(self):
        node = make_node(0, 10.0)
        node.start_instance(neighbour_values=np.asarray([5.0, 20.0]), instance_id="x")
        with pytest.raises(ProtocolError):
            node.start_instance(neighbour_values=np.asarray([5.0, 20.0]), instance_id="x")

    def test_end_of_round_ttl_and_finalise(self):
        config = Adam2Config(points=4, rounds_per_instance=2)
        node = make_node(0, 10.0, config)
        node.start_instance(neighbour_values=np.asarray([5.0, 20.0]))
        assert node.end_of_round() == []
        finished = node.end_of_round()
        assert len(finished) == 1
        assert node.instances == {}
        assert node.current_estimate is not None

    def test_double_join_rejected(self):
        a = make_node(0, 10.0)
        b = make_node(1, 20.0)
        a.start_instance(neighbour_values=np.asarray([5.0, 20.0]), instance_id="x")
        b.join_instance(a.instances["x"])
        with pytest.raises(ProtocolError):
            b.join_instance(a.instances["x"])

    def test_self_exchange_rejected(self):
        node = make_node(0, 10.0)
        with pytest.raises(ProtocolError):
            gossip_exchange(node, node)

    def test_empty_values_rejected(self):
        with pytest.raises(ProtocolError):
            make_node(0, np.asarray([]))


class TestReceive:
    """The message-level receive step: join guard, hook, MERGE."""

    POOL = np.asarray([5.0, 20.0, 30.0, 40.0])

    def pair(self):
        a, b = make_node(0, 10.0), make_node(1, [25.0, 35.0])
        iid = a.start_instance(neighbour_values=self.POOL)
        return a, b, iid

    @staticmethod
    def masses(nodes, iid):
        states = [n.instances[iid] for n in nodes]
        return np.concatenate((
            sum(s.h.fractions for s in states),
            [sum(s.weight for s in states), sum(s.count_average for s in states)],
        ))

    def test_unknown_instance_is_joined_then_merged(self):
        a, b, iid = self.pair()
        b.receive(a.instances, round_=7)
        joined = b.instances[iid]
        assert not joined.initiator and joined.started_round == 7
        assert joined.ttl == a.instances[iid].ttl
        assert joined.weight == 0.5 and joined.count_average == 1.5
        assert (joined.h.minimum, joined.h.maximum) == (10.0, 35.0)

    def test_about_to_expire_instance_is_not_joined(self):
        a, b, iid = self.pair()
        a.instances[iid].ttl = 1
        b.receive(a.instances)
        assert iid not in b.instances
        a.instances[iid].ttl = 2
        b.receive(a.instances)
        assert iid in b.instances

    def test_tombstoned_instance_is_not_rejoined(self):
        a, b, iid = self.pair()
        b.receive(a.instances)
        while b.instances:
            b.end_of_round()
        assert iid in b.finished_ids
        seen = []
        b.receive(a.instances, before_merge=lambda i, s: seen.append(i))
        assert iid not in b.instances and seen == []

    def test_known_instance_merges_whatever_the_remote_ttl(self):
        a, b, iid = self.pair()
        b.receive(a.instances)
        a.instances[iid].ttl = 1
        before = b.instances[iid].weight
        b.receive(a.instances)
        assert b.instances[iid].weight == (before + a.instances[iid].weight) / 2

    def test_hook_sees_post_join_pre_merge_state(self):
        a, b, iid = self.pair()
        seen = {}
        b.receive(a.instances, before_merge=lambda i, s: seen.update({i: s.snapshot()}))
        fresh = seen[iid]  # joined, not yet averaged
        assert fresh.weight == 0.0 and fresh.count_average == 2.0
        assert (fresh.h.minimum, fresh.h.maximum) == (25.0, 35.0)
        thresholds = a.instances[iid].h.thresholds
        expected = (np.asarray([25.0, 35.0])[None, :] <= thresholds[:, None]).sum(axis=1)
        assert np.array_equal(fresh.h.fractions, expected)
        # second delivery: the hook sees the state the first one left
        left = b.instances[iid].snapshot()
        b.receive(a.instances, before_merge=lambda i, s: seen.update({i: s.snapshot()}))
        assert np.array_equal(seen[iid].h.fractions, left.h.fractions)
        assert seen[iid].weight == left.weight

    def test_push_receive_pull_receive_conserves_mass(self):
        """Replying with the hook's pre-merge states makes the pair symmetric."""
        a, b, iid = self.pair()
        other = b.start_instance(neighbour_values=self.POOL * 2)
        for _ in range(4):
            known = [i for i in (iid, other) if i in a.instances and i in b.instances]
            before = {i: self.masses((a, b), i) for i in known}
            push = {i: s.snapshot() for i, s in a.instances.items()}
            pull = {}
            b.receive(push, before_merge=lambda i, s: pull.update({i: s.snapshot()}))
            pull.update({i: s.snapshot() for i, s in b.instances.items() if i not in push})
            a.receive(pull)
            for i, mass in before.items():
                assert self.masses((a, b), i) == pytest.approx(mass, abs=1e-12)
        # A pushed instance conserves from the join on: the totals are
        # still those of the two initial states.  (A piggybacked one is
        # adopted one-sidedly — its holder never saw the adopter's state —
        # so only the exchanges after the adoption, checked above, are.)
        assert self.masses((a, b), iid)[-2:] == pytest.approx([1.0, 3.0])
        assert a.instances[iid].weight == b.instances[iid].weight == 0.5
        assert other in a.instances


class TestGossipConvergence:
    def _run_rounds(self, nodes, rounds, rng):
        for _ in range(rounds):
            order = rng.permutation(len(nodes))
            for i in order:
                j = int(rng.integers(0, len(nodes) - 1))
                j = j + (j >= i)
                gossip_exchange(nodes[int(i)], nodes[int(j)])
            for node in nodes:
                node.end_of_round()

    def test_all_nodes_converge_to_true_fractions(self):
        rng = make_rng(5)
        values = np.asarray([10.0, 20.0, 30.0, 40.0] * 5)
        config = Adam2Config(points=3, rounds_per_instance=30)
        nodes = wire_population(values, config)
        nodes[0].start_instance(neighbour_values=values, instance_id="x")
        self._run_rounds(nodes, 31, rng)
        for node in nodes:
            assert node.current_estimate is not None
            # F(20) over the population is exactly 0.5.
            assert node.current_estimate.evaluate(np.asarray([20.0]))[0] == pytest.approx(0.5, abs=1e-6)

    def test_size_estimation_converges(self):
        rng = make_rng(6)
        values = np.linspace(1, 100, 24)
        config = Adam2Config(points=3, rounds_per_instance=30)
        nodes = wire_population(values, config)
        nodes[0].start_instance(neighbour_values=values, instance_id="x")
        self._run_rounds(nodes, 31, rng)
        for node in nodes:
            assert node.size_estimate == pytest.approx(24.0, rel=1e-6)

    def test_extremes_discovered(self):
        rng = make_rng(7)
        values = np.asarray([7.0, 3.0, 99.0, 50.0, 20.0, 12.0, 64.0, 31.0])
        config = Adam2Config(points=3, rounds_per_instance=20)
        nodes = wire_population(values, config)
        nodes[0].start_instance(neighbour_values=values, instance_id="x")
        self._run_rounds(nodes, 21, rng)
        for node in nodes:
            assert node.current_estimate.minimum == 3.0
            assert node.current_estimate.maximum == 99.0

    def test_literal_join_does_not_conserve_mass(self):
        config = Adam2Config(points=2, rounds_per_instance=10, join_mode="literal")
        a = make_node(0, 10.0, config)
        b = make_node(1, 99.0, config)
        a.start_instance(neighbour_values=np.asarray([10.0, 99.0]), instance_id="x")
        before = a.instances["x"].h.fractions.copy()
        gossip_exchange(a, b)
        # Literal mode: the informed peer keeps its state unchanged.
        assert np.array_equal(a.instances["x"].h.fractions, before)
        assert "x" in b.instances

    def test_symmetric_join_conserves_mass(self):
        config = Adam2Config(points=2, rounds_per_instance=10, join_mode="symmetric")
        a = make_node(0, 10.0, config)
        b = make_node(1, 99.0, config)
        a.start_instance(neighbour_values=np.asarray([10.0, 99.0]), instance_id="x")
        indicator_a = a.instances["x"].h.fractions.copy()
        gossip_exchange(a, b)
        state_a = a.instances["x"].h.fractions
        state_b = b.instances["x"].h.fractions
        indicator_b = (99.0 <= a.instances["x"].h.thresholds).astype(float)
        assert np.allclose(state_a + state_b, indicator_a + indicator_b)


class TestConfidence:
    def test_confidence_report_produced(self):
        rng = make_rng(9)
        config = Adam2Config(points=5, rounds_per_instance=25, verification_points=5)
        values = np.linspace(1, 100, 16)
        nodes = wire_population(values, config)
        nodes[0].start_instance(neighbour_values=values, instance_id="x")
        for _ in range(26):
            order = rng.permutation(len(nodes))
            for i in order:
                j = int(rng.integers(0, len(nodes) - 1))
                j = j + (j >= i)
                gossip_exchange(nodes[int(i)], nodes[int(j)])
            for node in nodes:
                node.end_of_round()
        for node in nodes:
            assert node.last_confidence is not None
            assert node.last_confidence.points == 5
            assert node.last_confidence.est_maximum >= node.last_confidence.est_average


class TestSchedulingAndBootstrap:
    def test_should_start_probability(self):
        config = Adam2Config(points=4, instance_frequency=1, initial_size_estimate=1.0)
        node = make_node(0, 10.0, config)
        # P_s = 1/(1*1) = 1 -> always starts.
        assert node.should_start_instance()

    def test_refinement_uses_previous_estimate(self):
        rng = make_rng(10)
        values = np.asarray([10.0] * 8 + [100.0] * 8)
        config = Adam2Config(points=4, rounds_per_instance=20, selection="minmax")
        nodes = wire_population(values, config)
        nodes[0].start_instance(neighbour_values=values, instance_id="a")
        for _ in range(21):
            order = rng.permutation(len(nodes))
            for i in order:
                j = int(rng.integers(0, len(nodes) - 1))
                j = j + (j >= i)
                gossip_exchange(nodes[int(i)], nodes[int(j)])
            for node in nodes:
                node.end_of_round()
        # Second instance: thresholds must now anchor at the discovered
        # global extremes.
        iid = nodes[3].start_instance(neighbour_values=values)
        thresholds = nodes[3].instances[iid].h.thresholds
        assert thresholds[0] == 10.0
        assert thresholds[-1] == 100.0
