"""The backend registry and the ``repro.api.run`` facade."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.api import get_backend, list_backends, run
from repro.api.result import summarise_completed
from repro.core.config import Adam2Config
from repro.errors import ConfigurationError, SimulationError
from repro.fastsim.adam2 import Adam2Simulation
from repro.net.cluster import LocalCluster
from repro.rngs import make_rng
from repro.workloads import lognormal_workload

WORKLOAD = lognormal_workload()
CONFIG = Adam2Config(points=5, rounds_per_instance=15)


class TestRegistry:
    def test_all_backends_registered(self):
        assert list_backends() == ["async", "fast", "net"]

    def test_get_backend_returns_named_engine(self):
        for name in ("fast", "async", "net"):
            assert get_backend(name).name == name

    def test_retired_round_backend_is_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown backend 'round'"):
            run(CONFIG, WORKLOAD, backend="round", n_nodes=48)

    def test_unknown_backend_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="fast"):
            get_backend("warp")

    def test_supported_options_disjoint_from_core_args(self):
        for name in list_backends():
            engine = get_backend(name)
            assert not {"backend", "seed", "observers"} & set(engine.supported_options)


class TestRunFacade:
    def test_result_shape(self):
        result = run(CONFIG, WORKLOAD, backend="fast", n_nodes=64, instances=2, seed=3)
        assert result.backend == "fast"
        assert result.n_nodes == 64
        assert len(result) == 2
        assert result.final is result.instances[-1]
        assert result.estimate is not None
        assert len(result.estimate.thresholds) == CONFIG.points
        for instance in result.instances:
            assert instance.reached == 64
            assert np.isfinite(instance.errors_entire.maximum)
            assert instance.messages > 0 and instance.bytes > 0

    @pytest.mark.parametrize("backend", ["fast", "async"])
    def test_same_seed_reproduces(self, backend):
        results = [
            run(CONFIG, WORKLOAD, backend=backend, n_nodes=48, seed=11)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            results[0].estimate.fractions, results[1].estimate.fractions
        )
        assert results[0].final.errors_entire == results[1].final.errors_entire
        assert results[0].final.messages == results[1].final.messages

    def test_rounds_override_applies(self):
        result = run(CONFIG, WORKLOAD, backend="fast", n_nodes=48, seed=3, rounds=7)
        assert result.config.rounds_per_instance == 7

    def test_rounds_override_validated(self):
        with pytest.raises(ConfigurationError):
            run(CONFIG, WORKLOAD, backend="fast", n_nodes=48, rounds=0)

    def test_unknown_option_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="turbo"):
            run(CONFIG, WORKLOAD, backend="async", n_nodes=48, turbo=True)

    def test_option_valid_elsewhere_still_fails(self):
        # churn_rate is a fast-only option; the daemons must reject it.
        with pytest.raises(ConfigurationError, match="churn_rate"):
            run(CONFIG, WORKLOAD, backend="async", n_nodes=48, churn_rate=0.01)

    def test_rng_seeds_the_run(self):
        results = [
            run(CONFIG, WORKLOAD, backend="fast", n_nodes=48, rng=make_rng(5))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            results[0].estimate.fractions, results[1].estimate.fractions
        )

    def test_seed_and_rng_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            run(CONFIG, WORKLOAD, backend="fast", n_nodes=48, seed=3, rng=make_rng(5))

    def test_tiny_population_rejected(self):
        with pytest.raises(ConfigurationError):
            run(CONFIG, WORKLOAD, backend="fast", n_nodes=1)


class TestDefaultsDeclaredOnce:
    """Leaving an option out is passing the default its constructor declares."""

    @pytest.mark.parametrize("backend, owners, numeric", [
        ("fast", (Adam2Simulation,), {"churn_rate", "node_sample"}),
        ("async", (LocalCluster, summarise_completed),
         {"gossip_period", "period_jitter", "drop_rate", "node_sample"}),
    ])
    def test_spelling_out_the_declared_defaults_changes_nothing(
        self, backend, owners, numeric
    ):
        explicit = {
            name: parameter.default
            for owner in owners
            for name, parameter in inspect.signature(owner).parameters.items()
            if name in numeric
        }
        assert set(explicit) == numeric <= get_backend(backend).supported_options
        assert all(isinstance(value, (int, float)) for value in explicit.values())
        plain, spelled = (
            run(CONFIG, WORKLOAD, backend=backend, n_nodes=48, instances=2,
                seed=11, **options)
            for options in ({}, explicit)
        )
        for ours, theirs in zip(plain.instances, spelled.instances, strict=True):
            np.testing.assert_array_equal(ours.thresholds, theirs.thresholds)
            np.testing.assert_array_equal(ours.fractions, theirs.fractions)
            assert ours.errors_entire == theirs.errors_entire
            assert ours.errors_points == theirs.errors_points
            assert (ours.messages, ours.bytes) == (theirs.messages, theirs.bytes)


class TestShardedFastBackend:
    def test_shards_option_routes_to_shard_driver(self):
        result = run(
            CONFIG, WORKLOAD, backend="fast", n_nodes=256, instances=2, seed=3,
            shards=4,
        )
        assert result.backend == "fast"
        assert result.extras["shards"] == 4
        assert len(result) == 2
        for instance in result.instances:
            assert instance.reached == 256

    def test_sharded_dtype_option(self):
        result = run(
            CONFIG, WORKLOAD, backend="fast", n_nodes=256, seed=3,
            shards=4, dtype="float32",
        )
        assert result.final.reached == 256

    def test_shards_one_stays_single_process(self):
        result = run(CONFIG, WORKLOAD, backend="fast", n_nodes=64, seed=3, shards=1)
        assert "shards" not in result.extras

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="shards"):
            run(CONFIG, WORKLOAD, backend="fast", n_nodes=64, seed=3, shards=0)

    def test_incompatible_option_rejected_loudly(self):
        with pytest.raises(ConfigurationError, match="churn_rate"):
            run(
                CONFIG, WORKLOAD, backend="fast", n_nodes=256, seed=3,
                shards=4, churn_rate=0.01,
            )


class TestRunResult:
    def test_errors_by_instance(self):
        result = run(CONFIG, WORKLOAD, backend="fast", n_nodes=48, instances=2, seed=3)
        max_series, avg_series = result.errors_by_instance()
        assert len(max_series) == len(avg_series) == 2
        assert max_series[-1] == result.final.errors_entire.maximum
        assert avg_series[-1] == result.final.errors_entire.average

    def test_empty_result_raises(self):
        from repro.api.result import RunResult

        empty = RunResult(backend="fast", n_nodes=48, seed=0, config=CONFIG)
        with pytest.raises(SimulationError):
            _ = empty.final
