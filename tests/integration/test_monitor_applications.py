"""Application-level integration tests over the estimation service.

These mirror the paper's §I motivating applications end-to-end through
the public API: load-balance detection, outlier flagging by global rank,
and ordered slicing — all computed from the queries of a service
(:func:`repro.api.serve` on the fast backend), then audited against the
scheduler's exact ground truth.
"""

import numpy as np
import pytest

from repro.api import serve
from repro.core.config import Adam2Config
from repro.workloads.base import SampledWorkload
from repro.workloads.synthetic import lognormal_workload, normal_workload

N_NODES = 150


def service_over(workload):
    config = Adam2Config(
        points=20, rounds_per_instance=20, verification_points=10, selection="lcut",
    )
    handle = serve(
        config, workload, backend="fast", n_nodes=N_NODES, seed=3,
        options={"confidence_sample": 64},
    )
    handle.refresh()  # one steady cycle on top of the warm-up chain
    return handle


def dispersion(handle):
    return handle.quantile(0.9) / handle.quantile(0.5)


def slice_of(handle, value, slices):
    return min(int(slices * handle.cdf(value)), slices - 1)


class TestLoadBalanceView:
    def test_balanced_system_low_dispersion(self):
        handle = service_over(normal_workload(mean=100.0, std=10.0))
        assert dispersion(handle) < 1.5

    def test_skewed_system_detected(self):
        handle = service_over(lognormal_workload(median=100.0, sigma=1.5))
        assert dispersion(handle) > 2.0


class TestRankAndSlice:
    def test_ranks_audit_against_truth(self):
        handle = service_over(lognormal_workload(median=200.0, sigma=0.8))
        truth = handle.scheduler.current_truth()
        for q in (0.1, 0.5, 0.9):
            value = float(truth.quantile(q)[0])
            assert handle.cdf(value) == pytest.approx(q, abs=0.1)

    def test_slices_partition_population(self):
        handle = service_over(normal_workload(mean=500.0, std=100.0))
        values = handle.scheduler.population()
        slices = np.asarray([slice_of(handle, v, 4) for v in values])
        counts = np.bincount(slices, minlength=4)
        # Roughly equal-population slices (within estimation noise).
        assert counts.size == 4
        assert counts.min() > len(values) / 8

    def test_extreme_value_lands_in_top_slice(self):
        handle = service_over(lognormal_workload(median=100.0, sigma=0.5))
        assert slice_of(handle, 1e9, 10) == 9
        assert slice_of(handle, 0.0, 10) == 0


class TestSizeAndConfidence:
    def test_size_estimate_tracks_population(self):
        handle = service_over(normal_workload())
        assert handle.network_size() == pytest.approx(N_NODES, rel=0.25)

    def test_confidence_published(self):
        handle = service_over(normal_workload())
        confidence = handle.store.latest().confidence
        assert confidence is not None
        est_average, est_maximum = confidence
        assert 0.0 <= est_average <= 1.0
        assert est_maximum >= est_average


class TestTraceWorkload:
    def test_monitor_over_fixed_trace(self):
        """A service over a concrete host census (SampledWorkload)."""
        rng = np.random.default_rng(0)
        census = np.rint(rng.lognormal(np.log(512), 0.7, size=400))
        handle = service_over(SampledWorkload(census, name="census"))
        truth = handle.scheduler.current_truth()
        probe = float(np.median(census))
        assert handle.cdf(probe) == pytest.approx(
            float(truth.evaluate(probe)), abs=0.1
        )
