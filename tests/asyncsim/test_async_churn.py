"""The asynchronous substrate under membership change.

The round-based churn experiments (Figs. 12–13) have an asynchronous
analogue on virtual time: daemons fail-stop with datagrams addressed to
them still in flight (``LocalCluster.crash``, the paper's failure
model), and joiners enter mid-instance (``LocalCluster.join``).  These
tests exercise the fabric's closed-address drops, the transport's
timeouts and Adam2's tombstone handling under that regime.
"""

import numpy as np
import pytest

from repro.core import Adam2Config, EmpiricalCDF
from repro.net.cluster import LocalCluster
from repro.net.virtual import run_virtual
from repro.rngs import make_rng
from repro.workloads import boinc_ram_mb
from repro.workloads.synthetic import uniform_workload


def build(n=200, seed=5):
    return LocalCluster(
        boinc_ram_mb().sample(n, make_rng(seed + 1)),
        Adam2Config(points=15, rounds_per_instance=30),
        make_rng(seed),
        gossip_period=1.0, delay_range=(0.05, 0.3),
        transport_options={"request_timeout": 0.7},
    )


def play(cluster, scenario):
    async def main():
        async with cluster:
            await scenario(cluster)
            await cluster.drain()
        return cluster

    return run_virtual(main())


def estimates(cluster):
    return [
        adam2.current_estimate
        for adam2 in cluster.adam2_nodes()
        if adam2.current_estimate is not None
    ]


class TestDepartures:
    def test_instance_survives_departures(self):
        async def scenario(cluster):
            await cluster.run_rounds(2)
            await cluster.trigger_instance()
            await cluster.run_rounds(5)
            # 10 % of nodes leave mid-instance, with datagrams in flight.
            for daemon in cluster.live_daemons()[:20]:
                cluster.crash(daemon.node_id)
            await cluster.run_rounds(40)

        cluster = play(build(), scenario)
        found = estimates(cluster)
        assert len(found) == 180
        truth = EmpiricalCDF(cluster.attribute_values())
        worst = max(
            np.abs(truth.evaluate(e.thresholds) - e.fractions).max()
            for e in found[:40]
        )
        # Departed mass leaves a residue (paper Fig. 12) but stays far
        # below the interpolation error.
        assert worst < 0.1

    def test_initiator_departure_stalls_gracefully(self):
        async def scenario(cluster):
            await cluster.trigger_instance(0)
            cluster.crash(0)  # before its first gossip fire
            await cluster.run_rounds(40)  # nobody ever learns of the instance

        assert estimates(play(build(n=50), scenario)) == []


class TestJoins:
    def test_midflight_joiner_participates_in_next_instance(self):
        joiner = []

        async def scenario(cluster):
            await cluster.run_rounds(2)
            await cluster.trigger_instance()
            await cluster.run_rounds(10)
            joiner.append(await cluster.join(512.0))
            await cluster.run_rounds(30)
            # The first instance may or may not have reached the joiner
            # before its TTL; a second instance definitely includes it.
            await cluster.trigger_instance()
            await cluster.run_rounds(40)

        play(build(n=100), scenario)
        assert joiner[0].adam2.current_estimate is not None

    def test_population_grows_and_size_tracks(self):
        async def scenario(cluster):
            await cluster.run_rounds(2)
            for value in uniform_workload(0, 1000).sample(50, make_rng(9)):
                await cluster.join(float(value))
            await cluster.trigger_instance()
            await cluster.run_rounds(40)

        cluster = play(build(n=100), scenario)
        assert len(cluster.live_daemons()) == 150
        sizes = [a.size_estimate for a in cluster.adam2_nodes() if a.current_estimate]
        assert np.median(sizes) == pytest.approx(150.0, rel=0.1)
