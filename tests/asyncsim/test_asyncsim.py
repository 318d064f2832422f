"""The asynchronous substrate: the net node daemons on virtual time.

``backend="async"`` runs :class:`~repro.net.cluster.LocalCluster` on a
:class:`~repro.net.virtual.VirtualLoop`: per-node jittered gossip
clocks, a push that carries live states and a pull that carries the
responder's pre-merge states, seeded delay and loss from the fault
injector — the production daemon, transport and codec, with no global
rounds and no real sockets.
"""

import asyncio

import numpy as np
import pytest

from repro.api import run
from repro.core import Adam2Config, EmpiricalCDF
from repro.errors import ConfigurationError, NetworkError
from repro.net.cluster import LocalCluster
from repro.net.faults import FaultInjector
from repro.net.node import NodeDaemon, run_timers
from repro.net.virtual import run_virtual
from repro.rngs import make_rng, spawn
from repro.workloads import boinc_ram_mb
from repro.workloads.synthetic import uniform_workload

CONFIG = Adam2Config(points=15, rounds_per_instance=30)


def virtual(scenario):
    """Run ``scenario(cluster)`` against ``cluster`` on virtual time."""

    def decorate(cluster: LocalCluster):
        async def main():
            async with cluster:
                await scenario(cluster)
            return cluster

        return run_virtual(main())

    return decorate


def estimates(cluster: LocalCluster):
    return [
        adam2.current_estimate
        for adam2 in cluster.adam2_nodes()
        if adam2.current_estimate is not None
    ]


class TestEventQueue:
    """The event queue is the virtual loop's timer heap."""

    @staticmethod
    def fired(schedule, until=10.0):
        log = []

        async def main():
            loop = asyncio.get_running_loop()
            schedule(loop, lambda tag: log.append((tag, loop.time())))
            await asyncio.sleep(until)
            return loop.time()

        return log, run_virtual(main())

    def test_fires_in_time_order(self):
        def schedule(loop, record):
            for at, tag in ((2.0, "b"), (1.0, "a"), (3.0, "c")):
                loop.call_at(at, record, tag)

        log, now = self.fired(schedule)
        assert log == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert now == 10.0

    def test_ties_fire_in_insertion_order(self):
        def schedule(loop, record):
            loop.call_at(1.0, record, 1)
            loop.call_at(1.0, record, 2)

        log, _ = self.fired(schedule, until=1.0)
        assert log == [(1, 1.0), (2, 1.0)]

    def test_deadline_respected(self):
        def schedule(loop, record):
            loop.call_at(1.0, record, 1)
            loop.call_at(5.0, record, 5)

        log, now = self.fired(schedule, until=2.0)
        assert log == [(1, 1.0)]
        assert now == 2.0
        assert self.fired(schedule, until=5.0)[0] == [(1, 1.0), (5, 5.0)]


class TestLatencyModel:
    """Latency is the fault injector's ``delay_range``, timed by the loop."""

    @staticmethod
    def delays(delay_range, count=100):
        async def main():
            loop = asyncio.get_running_loop()
            fault = FaultInjector(make_rng(1), delay_range=delay_range)
            delays = []
            for _ in range(count):
                sent = loop.time()
                fault.send(lambda d, a, sent=sent: delays.append(loop.time() - sent), b"x", ("h", 1))
                await asyncio.sleep(0.013)
            await asyncio.sleep(1.0)
            return delays

        return run_virtual(main())

    def test_samples_in_range(self):
        delays = self.delays((0.01, 0.05))
        assert len(delays) == 100
        assert all(0.01 - 1e-12 <= d <= 0.05 + 1e-12 for d in delays)
        assert max(delays) - min(delays) > 0.02  # spread over the range

    def test_degenerate(self):
        assert self.delays((0.1, 0.1), count=5) == pytest.approx([0.1] * 5, abs=1e-12)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            run(CONFIG, uniform_workload(0, 100), backend="async", n_nodes=8,
                delay_range=(0.5, 0.1))


class TestAsyncEngine:
    """The daemons' clocks, exchanges, loss and accounting on virtual time."""

    @staticmethod
    def cluster(n=10, **options):
        values = uniform_workload(0, 100).sample(n, make_rng(4))
        return LocalCluster(values, CONFIG, make_rng(3), gossip_period=1.0, **options)

    def test_timers_fire_per_period(self):
        @virtual
        async def scenario(cluster):
            await cluster.run_rounds(5)
            # no jitter: every clock fires at 1, 2, ..., 5 exactly
            assert asyncio.get_running_loop().time() == 5.0

        cluster = scenario(self.cluster(10, period_jitter=0.0))
        assert [d.rounds for d in cluster.daemons] == [5] * 10

    def test_request_response_roundtrip(self):
        @virtual
        async def scenario(cluster):
            await cluster.trigger_instance()
            await cluster.run_rounds(5)
            await cluster.drain()

        counters = scenario(self.cluster(10)).counters()
        assert counters["messages_sent"] > 0
        # No loss configured: every datagram lands and every push is answered.
        assert counters["messages_received"] == counters["messages_sent"]
        assert counters["retries"] == counters["timeouts"] == 0
        assert counters["push_failures"] == 0

    def test_message_loss(self):
        @virtual
        async def scenario(cluster):
            await cluster.trigger_instance()
            await cluster.run_rounds(10)
            await cluster.drain()

        counters = scenario(self.cluster(20, drop_rate=0.5)).counters()
        assert counters["dropped"] > 0 and counters["retries"] > 0
        assert counters["messages_received"] == counters["messages_sent"] - counters["dropped"]

    def test_remove_node_kills_timer(self):
        @virtual
        async def scenario(cluster):
            cluster.crash(2)
            await cluster.run_rounds(3)

        cluster = scenario(self.cluster(5))
        assert [d.rounds for d in cluster.daemons] == [3, 3, 0, 3, 3]
        assert 2 not in {d.node_id for d in cluster.live_daemons()}

    def test_invalid_params(self):
        def attempt(**options):
            run(CONFIG, uniform_workload(0, 100), backend="async", n_nodes=8, **options)

        with pytest.raises(NetworkError):
            attempt(gossip_period=0.0)
        with pytest.raises(NetworkError):
            attempt(period_jitter=1.0)
        with pytest.raises(ConfigurationError):
            attempt(drop_rate=1.0)
        # latency and loss are spelled delay_range and drop_rate here
        with pytest.raises(ConfigurationError, match="latency"):
            attempt(latency=(0.02, 0.2))
        with pytest.raises(ConfigurationError, match="loss_rate"):
            attempt(loss_rate=0.1)

    def test_accounting(self):
        @virtual
        async def scenario(cluster):
            await cluster.trigger_instance()
            await cluster.run_rounds(3)
            await cluster.drain()

        messages, bytes_ = scenario(self.cluster(10)).traffic()
        assert messages > 0
        assert bytes_ >= messages * 16  # every datagram carries a header


class TestAsyncAdam2:
    @staticmethod
    def _run(drop_rate=0.0, n=200, rounds=40):
        cluster = LocalCluster(
            boinc_ram_mb().sample(n, make_rng(6)), CONFIG, make_rng(5),
            gossip_period=1.0, delay_range=(0.02, 0.2), drop_rate=drop_rate,
            transport_options={"request_timeout": 0.5},
        )

        @virtual
        async def scenario(cluster):
            await cluster.run_rounds(2)
            await cluster.trigger_instance()
            await cluster.run_rounds(rounds)
            await cluster.drain()

        return scenario(cluster)

    @pytest.fixture(scope="class")
    def cluster(self):
        return self._run()

    def test_all_nodes_estimate(self, cluster):
        assert len(estimates(cluster)) == 200

    def test_accuracy_at_points(self, cluster):
        truth = EmpiricalCDF(cluster.attribute_values())
        worst = max(
            np.abs(truth.evaluate(e.thresholds) - e.fractions).max()
            for e in estimates(cluster)[:40]
        )
        assert worst < 0.01  # far below the interpolation error

    def test_size_estimation(self, cluster):
        sizes = [a.size_estimate for a in cluster.adam2_nodes() if a.current_estimate]
        assert np.median(sizes) == pytest.approx(200.0, rel=0.1)

    def test_survives_message_loss(self):
        cluster = self._run(drop_rate=0.2, rounds=50)
        truth = EmpiricalCDF(cluster.attribute_values())
        found = estimates(cluster)
        assert len(found) >= 195
        worst = max(np.abs(truth.evaluate(e.thresholds) - e.fractions).max() for e in found[:30])
        assert worst < 0.05

    def test_no_rejoin_after_termination(self):
        cluster = self._run(rounds=60)
        for adam2 in cluster.adam2_nodes():
            assert not adam2.instances  # everything cleanly terminated
            assert len(adam2.completed) == 1

    def test_probabilistic_scheduler(self):
        config = Adam2Config(
            points=8, rounds_per_instance=15, instance_frequency=2, initial_size_estimate=20.0
        )
        rng = make_rng(7)
        daemons = [
            NodeDaemon(node_id, value, config, spawn(rng),
                       gossip_period=1.0, scheduler="probabilistic")
            for node_id, value in enumerate(uniform_workload(0, 100).sample(60, make_rng(8)))
        ]

        async def main():
            for daemon in daemons:
                await daemon.open()
            for daemon in daemons:
                for peer in daemons:
                    if peer is not daemon:
                        daemon.add_peer(peer.node_id, peer.address)
            await run_timers(daemons, 60)
            for daemon in daemons:
                await daemon.drain()
                daemon.close()

        run_virtual(main())
        assert all(d.adam2.current_estimate is not None for d in daemons)
