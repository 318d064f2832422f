"""Tests for the baseline estimators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rngs import make_rng
from repro.baselines.sampling import RandomSamplingEstimator
from repro.fastsim.equidepth import EquiDepthSimulation
from repro.workloads.synthetic import step_workload, uniform_workload


@pytest.fixture()
def rng():
    return make_rng(55)


class TestRandomSampling:
    def test_error_shrinks_with_samples(self, rng):
        population = uniform_workload(0, 1000).sample(10_000, rng)
        estimator = RandomSamplingEstimator(population)
        small = estimator.estimate(20, rng)
        large = estimator.estimate(5_000, rng)
        assert large.errors.maximum < small.errors.maximum

    def test_dkw_scale(self, rng):
        """KS error of s samples is near the DKW envelope ~1.36/sqrt(s)."""
        population = uniform_workload(0, 1000).sample(50_000, rng)
        estimator = RandomSamplingEstimator(population)
        results = estimator.sweep([400], rng, repeats=10)
        assert results[0].errors.maximum < 3 * 1.36 / np.sqrt(400)
        assert results[0].errors.maximum > 0.3 / np.sqrt(400)

    def test_message_cost_model(self, rng):
        population = uniform_workload(0, 100).sample(100, rng)
        estimator = RandomSamplingEstimator(population, messages_per_sample=3)
        result = estimator.estimate(50, rng)
        assert result.messages == 150
        assert result.bytes_sent == 150 * 64

    def test_step_cdf_handled(self, rng):
        population = step_workload([10.0, 20.0], weights=[0.7, 0.3]).sample(5_000, rng)
        estimator = RandomSamplingEstimator(population)
        result = estimator.estimate(2_000, rng)
        assert result.errors.maximum < 0.05

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            RandomSamplingEstimator(np.asarray([]))
        estimator = RandomSamplingEstimator(np.asarray([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            estimator.estimate(0, rng)
        with pytest.raises(ConfigurationError):
            RandomSamplingEstimator(np.asarray([1.0]), messages_per_sample=0)

    def test_sweep_repeats_average(self, rng):
        population = uniform_workload(0, 100).sample(2_000, rng)
        estimator = RandomSamplingEstimator(population)
        out = estimator.sweep([10, 100], rng, repeats=4)
        assert [r.samples for r in out] == [10, 100]
        assert out[0].errors.maximum > out[1].errors.maximum


class TestEquiDepthProtocol:
    """The EquiDepth baseline Fig. 8 compares against."""

    def test_runs_on_engine(self):
        sim = EquiDepthSimulation(uniform_workload(0, 1000), 150, synopsis_size=20, seed=55)
        sim.run_phase(rounds=20)
        estimates = [sim.node_estimate(node) for node in range(150)]
        truth_mid = 0.5
        mid = np.mean([est.evaluate(np.asarray([500.0]))[0] for est in estimates[:20]])
        assert abs(mid - truth_mid) < 0.15

    def test_phase_reset(self):
        # Every phase starts from the peers' own values: a one-round phase
        # after a converged one is as coarse as a one-round first phase.
        sim = EquiDepthSimulation(uniform_workload(0, 100), 50, synopsis_size=10, seed=55)
        converged = sim.run_phase(rounds=10).errors_entire.average
        restarted = sim.run_phase(rounds=1).errors_entire.average
        assert restarted > converged
        for node in range(50):
            assert sim._weights[node].sum() == pytest.approx(1.0)

    def test_synopsis_bounded(self):
        sim = EquiDepthSimulation(uniform_workload(0, 100), 60, synopsis_size=10, seed=55)
        sim.run_phase(rounds=15)
        for node in range(60):
            assert sim._synopses[node].size <= 10
            assert sim._weights[node].sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EquiDepthSimulation(uniform_workload(0, 100), 10, synopsis_size=1)
