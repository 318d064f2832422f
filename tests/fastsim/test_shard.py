"""Tests for the multiprocessing shard driver."""

import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.core.config import Adam2Config
from repro.fastsim.adam2 import Adam2Simulation
from repro.fastsim.shard import (
    DEFAULT_SHARD_MIX,
    ShardedAdam2,
    partition_population,
)
from repro.workloads.synthetic import uniform_workload


def make_sharded(n=2000, shards=4, seed=0, **kwargs):
    config = kwargs.pop(
        "config", Adam2Config(points=10, rounds_per_instance=30)
    )
    return ShardedAdam2(
        uniform_workload(0, 1000), n, config, seed=seed, shards=shards, **kwargs
    )


class TestPartition:
    def test_covers_population_without_overlap(self):
        bounds = partition_population(1003, 7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 1003
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_sizes_differ_by_at_most_one(self):
        sizes = {stop - start for start, stop in partition_population(1000, 7)}
        assert max(sizes) - min(sizes) <= 1

    def test_every_shard_holds_a_pair(self):
        assert all(stop - start >= 2 for start, stop in partition_population(8, 4))
        with pytest.raises(ConfigurationError):
            partition_population(7, 4)

    def test_at_least_one_shard(self):
        with pytest.raises(ConfigurationError):
            partition_population(100, 0)


class TestConstruction:
    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sharded(shard_mix=0.0)
        with pytest.raises(ConfigurationError):
            make_sharded(shard_mix=1.5)

    def test_too_many_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sharded(n=6, shards=4)

    def test_default_mix(self):
        with make_sharded() as sim:
            assert sim.shard_mix == DEFAULT_SHARD_MIX


class TestParity:
    """The sharded run must agree with the unsharded fast backend."""

    def test_final_error_matches_unsharded(self):
        config = Adam2Config(points=10, rounds_per_instance=30)
        with make_sharded(n=2000, shards=4, seed=11, config=config) as sim:
            sharded = sim.run_instances(3)
        reference = Adam2Simulation(
            uniform_workload(0, 1000), 2000, config, seed=11, exchange="matching"
        ).run_instances(3)
        # Same protocol, different gossip pairings: both must converge to
        # the truth, so the final errors agree within the protocol's own
        # accuracy scale (~1-2 % average error at this size).
        assert sharded.final.errors_entire.average == pytest.approx(
            reference.final.errors_entire.average, abs=0.02
        )
        assert sharded.final.errors_points.average < 0.02
        assert sharded.final.reached == 2000

    def test_system_size_exact(self):
        with make_sharded(n=2000, shards=4) as sim:
            result = sim.run_instance()
        # Weight mass is conserved across shards, so the size estimate
        # from the consensus weight is exact.
        assert result.estimate.system_size == pytest.approx(2000.0, rel=1e-9)

    def test_deterministic_given_seed(self):
        outcomes = []
        for _ in range(2):
            with make_sharded(n=1000, shards=4, seed=5) as sim:
                outcomes.append(sim.run_instance())
        a, b = outcomes
        assert np.array_equal(a.thresholds, b.thresholds)
        assert np.array_equal(a.estimate.fractions, b.estimate.fractions)
        assert a.errors_entire == b.errors_entire


class TestSanitized:
    def test_mass_conserved_under_sanitizer(self):
        # The sanitizer asserts global mass conservation at the
        # coordinator every round and local row invariants inside every
        # worker; a partitioning bug fails the run loudly.
        with make_sharded(n=1000, shards=4, sanitize=True) as sim:
            result = sim.run_instance()
        assert result.reached == 1000

    def test_float32_passes_scaled_tolerance(self):
        with make_sharded(n=1000, shards=4, sanitize=True, dtype="float32") as sim:
            result = sim.run_instance()
        assert result.errors_points.average < 0.05

    @pytest.mark.parametrize("n,shards", [(500, 2), (1000, 3), (2048, 8)])
    def test_partitioning_property(self, n, shards):
        # Property over shapes: any partitioning must conserve mass
        # (checked by the sanitizer per round) and reach every node.
        config = Adam2Config(points=6, rounds_per_instance=25)
        with make_sharded(n=n, shards=shards, config=config, sanitize=True) as sim:
            result = sim.run_instance()
        assert result.reached == n


class TestResultShape:
    def test_instance_result_fields(self):
        with make_sharded(n=1000, shards=4) as sim:
            result = sim.run_instance()
        assert result.n_nodes == 1000
        assert result.shards == 4
        assert result.cross_rows_total > 0
        assert result.messages_total > 0
        assert result.bytes_total == result.messages_total * sim.config.message_bytes()
        assert result.mean_estimate() is result.estimate

    def test_run_result_accessors(self):
        with make_sharded(n=1000, shards=4) as sim:
            run = sim.run_instances(2)
        assert len(run.instances) == 2
        assert run.final is run.instances[-1]
        assert run.final_errors == run.final.errors_entire
        maxs, avgs = run.errors_by_instance()
        assert len(maxs) == len(avgs) == 2

    def test_workers_reused_across_instances(self):
        with make_sharded(n=1000, shards=4) as sim:
            sim.run_instance()
            processes = list(sim._processes)
            sim.run_instance()
            assert sim._processes == processes
            assert all(p.is_alive() for p in processes)
        assert not any(p.is_alive() for p in processes)


class TestDeadWorker:
    def test_killed_worker_fails_the_next_instance_promptly(self):
        with make_sharded(n=1000, shards=2) as sim:
            sim.run_instance()
            processes = list(sim._processes)
            os.kill(processes[1].pid, signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(SimulationError, match=r"shard 1 .*exit code -9"):
                sim.run_instance()
            assert time.monotonic() - started < 5.0
            # The surviving workers were stopped with the dead one.
            assert not any(p.is_alive() for p in processes)
            assert sim._processes == []
