"""Node daemon and localhost cluster harness (in-process and subprocess)."""

from __future__ import annotations

import asyncio
import gc
import weakref

import numpy as np
import pytest

from repro.core.config import Adam2Config
from repro.errors import NetworkError
from repro.net.cluster import (
    LocalCluster,
    completed_from_summaries,
    run_process_cluster,
)
from repro.net.codec import MSG_PULL, MSG_PUSH
from repro.net.node import NodeDaemon
from repro.net.peers import PeerDirectory
from repro.net.virtual import run_virtual
from repro.rngs import make_rng, spawn

FAST = {"request_timeout": 0.05, "max_retries": 2}


def run(coro):
    """On kernel sockets and the wall clock (``run_virtual``: neither)."""
    return asyncio.run(coro)


class TestPeerDirectory:
    def test_suspicion_and_recovery(self):
        directory = PeerDirectory(suspicion_threshold=2)
        directory.add(1, ("127.0.0.1", 1000))
        directory.add(2, ("127.0.0.1", 1001))
        assert directory.mark_failure(1) is False
        assert directory.mark_failure(1) is True
        assert directory.healthy_ids() == [2]
        assert directory.suspected_ids() == [1]
        directory.mark_alive(1)
        assert directory.healthy_ids() == [1, 2]

    def test_select_prefers_healthy(self):
        rng = make_rng(0)
        directory = PeerDirectory(suspicion_threshold=1, probe_rate=0.0)
        directory.add(1, ("127.0.0.1", 1000))
        directory.add(2, ("127.0.0.1", 1001))
        directory.mark_failure(2)
        assert all(directory.select(rng) == 1 for _ in range(20))

    def test_select_probes_suspected(self):
        rng = make_rng(0)
        directory = PeerDirectory(suspicion_threshold=1, probe_rate=0.5)
        directory.add(1, ("127.0.0.1", 1000))
        directory.add(2, ("127.0.0.1", 1001))
        directory.mark_failure(2)
        picked = {directory.select(rng) for _ in range(50)}
        assert picked == {1, 2}

    def test_all_suspected_still_selectable(self):
        rng = make_rng(0)
        directory = PeerDirectory(suspicion_threshold=1)
        directory.add(1, ("127.0.0.1", 1000))
        directory.mark_failure(1)
        assert directory.select(rng) == 1


class TestNodeDaemon:
    def test_two_daemons_converge_on_one_instance(self):
        async def scenario():
            rng = make_rng(11)
            config = Adam2Config(points=6, rounds_per_instance=10)
            daemons = [
                NodeDaemon(i, float(v), config, spawn(rng),
                           gossip_period=0.01, transport_options=FAST,
                           sanitize=True)
                for i, v in enumerate([100.0, 900.0])
            ]
            for daemon in daemons:
                await daemon.open()
            daemons[0].add_peer(1, daemons[1].address)
            daemons[1].add_peer(0, daemons[0].address)
            try:
                await daemons[0].trigger_instance()
                await asyncio.gather(*(d.run(14) for d in daemons))
                await asyncio.gather(*(d.drain() for d in daemons))
            finally:
                for daemon in daemons:
                    daemon.close()
            for daemon in daemons:
                assert len(daemon.adam2.completed) == 1
                estimate = daemon.adam2.completed[0].estimate
                assert estimate.minimum == 100.0
                assert estimate.maximum == 900.0

        run(scenario())

    def test_rejects_bad_parameters(self):
        config = Adam2Config(points=6)
        rng = make_rng(0)
        with pytest.raises(NetworkError):
            NodeDaemon(-1, 1.0, config, rng)
        with pytest.raises(NetworkError):
            NodeDaemon(0, 1.0, config, rng, gossip_period=0.0)
        daemon = NodeDaemon(0, 1.0, config, rng)
        with pytest.raises(NetworkError):
            daemon.add_peer(0, ("127.0.0.1", 1))

    def test_crashed_daemon_stops_responding(self):
        async def scenario():
            rng = make_rng(12)
            config = Adam2Config(points=6, rounds_per_instance=8)
            a = NodeDaemon(0, 1.0, config, spawn(rng),
                           gossip_period=0.01, transport_options=FAST)
            b = NodeDaemon(1, 2.0, config, spawn(rng),
                           gossip_period=0.01, transport_options=FAST)
            await a.open()
            await b.open()
            a.add_peer(1, b.address)
            b.add_peer(0, a.address)
            try:
                b.crash()
                assert b.crashed
                await a.trigger_instance()
                await a.run(10)
                await a.drain()
                assert a.push_failures > 0
                assert a.directory.suspected_ids() == [1]
                # The instance still terminates locally.
                assert len(a.adam2.completed) == 1
            finally:
                a.close()
                b.close()

        run_virtual(scenario())


class TestExchange:
    """The push/pull exchange, socket-free: datagrams handed over by hand."""

    @staticmethod
    def pair(sanitize: bool) -> tuple[NodeDaemon, NodeDaemon]:
        rng = make_rng(21)
        config = Adam2Config(points=6, verification_points=3, rounds_per_instance=20)
        return (
            NodeDaemon(0, np.array([10.0, 40.0]), config, spawn(rng), sanitize=sanitize),
            NodeDaemon(1, 70.0, config, spawn(rng), sanitize=sanitize),
        )

    @staticmethod
    def exchange(initiator: NodeDaemon, responder: NodeDaemon, msg_id: int):
        """One full push -> handle_request -> pull -> merge, over bytes."""
        codec = initiator.codec
        push = codec.encode_states(
            MSG_PUSH, initiator.node_id, msg_id, initiator.adam2.instances
        )
        reply = responder.handle_request(codec.decode(push), codec)
        pull = codec.decode(reply)
        assert pull.kind == MSG_PULL and pull.msg_id == msg_id
        initiator._merge(pull.states)
        return pull

    @staticmethod
    def mass(daemons, iid) -> tuple[np.ndarray, float, float]:
        states = [d.adam2.instances[iid] for d in daemons]
        return (
            sum(s.h.fractions for s in states),
            sum(s.weight for s in states),
            sum(s.count_average for s in states),
        )

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_pull_carries_pre_merge_state_and_mass_is_conserved(self, sanitize):
        a, b = self.pair(sanitize)
        iid = a.adam2.start_instance(
            neighbour_values=np.array([5.0, 20.0, 45.0, 60.0, 80.0, 95.0]), round_=0
        )
        # First exchange: b joins.  Its reply is its state as joined —
        # before the push was averaged in.
        joined = self.exchange(a, b, 1).states[iid]
        assert joined.weight == 0.0 and not joined.initiator
        assert joined.h.minimum == joined.h.maximum == 70.0
        np.testing.assert_array_equal(
            joined.h.fractions, (70.0 <= joined.h.thresholds).astype(float)
        )
        for msg_id in range(2, 6):
            before_b = b.adam2.instances[iid].snapshot()
            before = self.mass((a, b), iid)
            pull = self.exchange(a, b, msg_id).states[iid]
            # the reply is b as it was when the push arrived ...
            np.testing.assert_array_equal(pull.h.fractions, before_b.h.fractions)
            np.testing.assert_array_equal(pull.v_fractions, before_b.v_fractions)
            assert pull.weight == before_b.weight
            assert pull.count_average == before_b.count_average
            assert (pull.h.minimum, pull.h.maximum) == (before_b.h.minimum, before_b.h.maximum)
            assert pull.ttl == before_b.ttl
            # ... so the two merges together are one symmetric average.
            after = self.mass((a, b), iid)
            np.testing.assert_allclose(after[0], before[0], rtol=0, atol=1e-12)
            assert after[1] == pytest.approx(before[1], abs=1e-15)
            assert after[2] == pytest.approx(before[2], abs=1e-12)
            # perturb a so the next round has something to average
            a.adam2.instances[iid].ttl -= 1
        final_a, final_b = (d.adam2.instances[iid] for d in (a, b))
        np.testing.assert_allclose(final_a.h.fractions, final_b.h.fractions)
        assert final_a.weight == final_b.weight == 0.5
        assert (final_b.h.minimum, final_b.h.maximum) == (10.0, 70.0)

    def test_reply_piggybacks_unseen_instances_within_the_budget(self):
        a, b = self.pair(False)
        seen = a.adam2.start_instance(neighbour_values=np.arange(6.0), round_=0)
        self.exchange(a, b, 1)
        unseen = b.adam2.start_instance(neighbour_values=np.arange(6.0) * 3, round_=0)
        pull = self.exchange(a, b, 2)
        assert list(pull.states) == [seen, unseen]  # exchanged first, then piggyback
        assert unseen in a.adam2.instances
        # a budget with room for one record only keeps the exchanged one
        one = a.codec.state_size(a.adam2.instances[seen])
        tight = type(a.codec)(max_datagram=16 + 2 + one + one // 2)
        push = tight.encode_states(MSG_PUSH, 0, 3, {seen: a.adam2.instances[seen]})
        reply = tight.decode(b.handle_request(tight.decode(push), tight))
        assert list(reply.states) == [seen]


class TestLocalCluster:
    @pytest.mark.loop_errors
    def test_push_path_exceptions_reach_the_cluster_counters(self, loop_errors):
        """A push whose merge raises is counted where operators look."""

        async def scenario():
            cluster = LocalCluster(
                np.arange(3, dtype=float), Adam2Config(points=4, rounds_per_instance=6),
                make_rng(31), gossip_period=0.01, transport_options=FAST,
            )

            merge = cluster.daemons[0]._merge

            def broken(states, reply=None):
                if reply is None:  # merging a pull, i.e. the push path
                    raise RuntimeError("merge blew up")
                merge(states, reply)

            async with cluster:
                cluster.daemons[0]._merge = broken
                await cluster.trigger_instance(0)
                await cluster.run_rounds(8)
                await cluster.drain()
                counters = cluster.counters()
                assert cluster.daemons[0].rounds == 8  # the timer survived
            assert counters["push_errors"] == cluster.daemons[0].push_errors > 0
            # ... and each one, traceback and all, at the loop's handler.
            assert len(loop_errors) == counters["push_errors"]
            assert all(c["message"] == "node 0: push failed" for c in loop_errors)
            assert counters["push_failures"] == 0
            assert counters["pushes_skipped"] == 0

        run_virtual(scenario())

    def test_skipped_pushes_are_aggregated(self):
        async def scenario():
            cluster = LocalCluster(
                np.arange(2, dtype=float), Adam2Config(points=4, rounds_per_instance=12),
                make_rng(32), gossip_period=0.005, max_inflight=1,
                transport_options={"request_timeout": 0.05, "max_retries": 1},
            )
            async with cluster:
                await cluster.trigger_instance(0)
                cluster.crash(1)  # node 0's one push slot now waits out its retries
                await cluster.daemons[0].run(10)
                skipped = cluster.daemons[0].pushes_skipped
                assert skipped > 0
                assert cluster.counters()["pushes_skipped"] == skipped

        run_virtual(scenario())

    def test_cluster_runs_instance_to_completion(self):
        async def scenario():
            rng = make_rng(13)
            values = make_rng(14).uniform(0.0, 100.0, size=8)
            config = Adam2Config(points=8, rounds_per_instance=12)
            cluster = LocalCluster(
                values, config, rng,
                gossip_period=0.01, sanitize=True, transport_options=FAST,
            )
            async with cluster:
                instance_id = await cluster.trigger_instance()
                assert isinstance(instance_id, tuple)
                await cluster.run_rounds(16)
                await cluster.drain()
                completed = [d.adam2.completed for d in cluster.daemons]
            assert all(len(records) == 1 for records in completed)
            counters = cluster.counters()
            assert counters["messages_sent"] > 0
            assert counters["decode_errors"] == 0

        run_virtual(scenario())

    def test_crash_excludes_node_from_liveness(self):
        async def scenario():
            rng = make_rng(15)
            cluster = LocalCluster(
                np.arange(4, dtype=float), Adam2Config(points=4), rng,
                gossip_period=0.01, transport_options=FAST,
            )
            async with cluster:
                cluster.crash(3)
                assert len(cluster.live_daemons()) == 3
                assert cluster.attribute_values().size == 3
                with pytest.raises(NetworkError, match="crashed"):
                    await cluster.trigger_instance(3)

        run_virtual(scenario())

    def test_needs_two_nodes(self):
        with pytest.raises(NetworkError):
            LocalCluster([1.0], Adam2Config(points=4), make_rng(0))


class TestGossipClock:
    """``run_timers``: one free-running, jittered clock per daemon."""

    @staticmethod
    def cluster(n: int, seed: int, **options) -> LocalCluster:
        return LocalCluster(
            np.arange(n, dtype=float), Adam2Config(points=4, rounds_per_instance=6),
            make_rng(seed), transport_options=FAST, **options,
        )

    def test_each_live_daemon_fires_rounds_times_on_its_own_clock(self):
        period, jitter = 0.005, 0.5

        async def scenario():
            cluster = self.cluster(5, 41, gossip_period=period, period_jitter=jitter)
            fires: list[list[float]] = [[] for _ in cluster.daemons]
            async with cluster:
                cluster.crash(4)
                # A clock 20x faster than the rest: nothing may hold it back.
                cluster.daemons[0].gossip_period = period / 20
                loop = asyncio.get_running_loop()
                for daemon in cluster.daemons:
                    def recorded(tick=daemon._tick, times=fires[daemon.node_id]):
                        times.append(loop.time())
                        tick()

                    daemon._tick = recorded
                await cluster.run_rounds(10)
            return cluster, fires

        cluster, fires = run_virtual(scenario())
        assert fires[4] == [] and cluster.daemons[4].rounds == 0
        for daemon in cluster.daemons[:4]:
            times = fires[daemon.node_id]
            assert len(times) == daemon.rounds == 10
            # Re-armed once its tick returned: on virtual time a gap is a
            # jittered period exactly, so never below the shortest one.
            gaps = np.diff(times)
            assert gaps.min() >= daemon.gossip_period * (1 - jitter)
            assert gaps.max() <= daemon.gossip_period * (1 + jitter)
        # No round barrier: the fast daemon's 10 fires all come before
        # any other daemon's 5th (a barrier would hold it to their 9th).
        assert fires[0][-1] < min(fires[i][4] for i in (1, 2, 3))

    def test_a_tick_that_raises_fails_the_call_and_disarms_every_clock(self):
        period = 0.01

        async def scenario():
            cluster = self.cluster(3, 42, gossip_period=period)
            async with cluster:
                def broken():
                    raise RuntimeError("tick blew up")

                cluster.daemons[1]._tick = broken
                with pytest.raises(RuntimeError, match="tick blew up"):
                    await asyncio.wait_for(cluster.run_rounds(1000), timeout=50 * period)
                rounds = [d.rounds for d in cluster.daemons]
                # The failure ended the call at node 1's first fire ...
                assert max(rounds) <= 1
                # ... and left no handle armed to tick anyone again.
                await asyncio.sleep(5 * period)
                assert [d.rounds for d in cluster.daemons] == rounds
                assert not any(d._running for d in cluster.daemons)

        run_virtual(scenario())

    def test_a_running_daemon_refuses_a_second_run(self):
        async def scenario():
            cluster = self.cluster(3, 43, gossip_period=0.005)
            async with cluster:
                first = asyncio.ensure_future(cluster.daemons[2].run(3))
                await asyncio.sleep(0)
                with pytest.raises(NetworkError, match="already running"):
                    await cluster.daemons[2].run(1)
                # Nodes 0 and 1 pass the guard before node 2 fails it:
                # they are released again, and nothing was armed.
                with pytest.raises(NetworkError, match="already running"):
                    await cluster.run_rounds(1)
                await first
                assert [d.rounds for d in cluster.daemons] == [0, 0, 3]
                assert not any(d._running for d in cluster.daemons)

        run_virtual(scenario())

    def test_a_crash_stops_the_timer_at_once(self):
        async def scenario():
            cluster = self.cluster(3, 44, gossip_period=0.005)
            victim = cluster.daemons[1]
            tick = victim._tick
            at_crash: list[int] = []

            def crash() -> None:
                at_crash.append(victim.rounds)
                cluster.crash(1)

            def tick_then_crash():
                tick()
                # Crash after the first fire, while the next one is armed.
                if not at_crash:
                    asyncio.get_running_loop().call_soon(crash)

            victim._tick = tick_then_crash
            async with cluster:
                await cluster.trigger_instance(0)
                await cluster.run_rounds(3)
                await cluster.drain()
            return at_crash, [d.rounds for d in cluster.daemons]

        at_crash, rounds = run_virtual(scenario())
        assert at_crash == [1]
        assert rounds == [3, 1, 3]

    def test_a_closed_cluster_is_freed_without_the_cycle_collector(self):
        async def scenario():
            cluster = self.cluster(4, 45, gossip_period=0.005)
            async with cluster:
                await cluster.trigger_instance()
                await cluster.run_rounds(3)
                await cluster.drain()
            daemon = weakref.ref(cluster.daemons[0])
            del cluster
            await asyncio.sleep(0)  # the closed sockets let go of their protocols
            return daemon

        gc.disable()
        try:
            daemon = run(scenario())
            assert daemon() is None
        finally:
            gc.enable()


class TestProcessCluster:
    def test_subprocess_nodes_run_an_instance(self):
        values = make_rng(16).uniform(0.0, 100.0, size=4)
        config = Adam2Config(points=6, rounds_per_instance=10)
        summaries = run_process_cluster(
            values, config, rounds=14, seed=77, trigger_at={0: 1},
            gossip_period=0.02, transport_options=FAST, timeout=60.0,
        )
        assert len(summaries) == 4
        assert {s["node_id"] for s in summaries} == {0, 1, 2, 3}
        completed = completed_from_summaries(summaries)
        reached = [records for records in completed.values() if records]
        assert len(reached) >= 3  # gossip redundancy: most nodes terminate
        record = reached[0][0]
        assert record.estimate.fractions.size == 6
        assert 0.0 <= record.estimate.fractions.min()
        total_sent = sum(s["messages_sent"] for s in summaries)
        assert total_sent > 0

    def test_start_barrier_fails_at_the_deadline(self):
        """No child reports ready within 10 ms: the run fails loudly, and
        the teardown kills the children still waiting for their go."""
        config = Adam2Config(points=4, rounds_per_instance=5)
        with pytest.raises(NetworkError, match="deadline"):
            run_process_cluster(
                np.arange(3.0), config, rounds=5, seed=1, timeout=0.01,
            )
