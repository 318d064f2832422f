"""Tests for distribution monitoring through the estimation service.

A service (:func:`repro.service.build_service`) is the monitor: its
scheduler runs Adam2 cycles and publishes snapshots, and the paper's §I
views are plain functions of its queries — rank ``cdf(x)``, quantiles,
the dispersion ``quantile(0.9) / quantile(0.5)`` and the slice
``min(int(k * cdf(x)), k - 1)``.
"""

import numpy as np
import pytest

from repro.core.cdf import EmpiricalCDF, EstimatedCDF
from repro.core.config import Adam2Config
from repro.errors import ServiceError
from repro.service import EstimateStore, QueryEngine, build_service
from repro.workloads.synthetic import lognormal_workload, uniform_workload


def quick_config(**kwargs):
    defaults = dict(points=12, rounds_per_instance=15, verification_points=8)
    defaults.update(kwargs)
    return Adam2Config(**defaults)


def slice_of(view, value, slices):
    return min(int(slices * view.cdf(value)), slices - 1)


@pytest.fixture()
def monitor():
    """A cold service: no cycle has run, so nothing is published yet."""
    return build_service(
        quick_config(), uniform_workload(0, 1000), n_nodes=100, seed=4,
        warm_cycles=0, options={"confidence_sample": 32},
    )


class TestLifecycle:
    def test_snapshot_before_estimate_raises(self, monitor):
        with pytest.raises(ServiceError):
            monitor.store.latest()
        with pytest.raises(ServiceError):
            monitor.cdf(500.0)

    def test_advance_until_estimate(self, monitor):
        snapshot = monitor.refresh()
        assert snapshot.version == 1
        assert monitor.store.latest() is snapshot
        assert monitor.cdf(500.0) == pytest.approx(0.5, abs=0.1)

    def test_snapshot_contents(self, monitor):
        snapshot = monitor.refresh()
        assert snapshot.n_nodes == 100
        assert snapshot.size_estimate == pytest.approx(100, rel=0.3)
        assert snapshot.confidence is not None
        assert 0 <= monitor.cdf(500.0) <= 1

    def test_churned_monitor_keeps_running(self):
        monitor = build_service(
            quick_config(), lognormal_workload(), n_nodes=100, seed=6,
            options={"churn_rate": 0.005},
        )
        snapshot = monitor.refresh(2)
        assert snapshot.version == 3
        assert monitor.scheduler.population().size == 100


class TestView:
    @pytest.fixture()
    def view(self):
        values = np.arange(1, 101, dtype=float)
        truth = EmpiricalCDF(values)
        estimate = EstimatedCDF(values, truth.evaluate(values), 1.0, 100.0, system_size=100.0)
        store = EstimateStore()
        store.publish(
            estimate, backend="fast", n_nodes=100, instances=1, rounds=1, size_estimate=100.0
        )
        return QueryEngine(store)

    def test_rank_matches_fraction(self, view):
        assert view.cdf(50.0) == view.fraction_between(0.0, 50.0)
        assert view.cdf(50.0) == pytest.approx(0.5, abs=0.02)

    def test_quantile(self, view):
        assert view.quantile(0.25) == pytest.approx(25.0, abs=1.5)

    def test_slices(self, view):
        assert slice_of(view, 5.0, slices=10) == 0
        assert slice_of(view, 95.0, slices=10) == 9
        assert slice_of(view, 55.0, slices=10) == 5

    def test_top_slice_clamped(self, view):
        assert slice_of(view, 1e9, slices=4) == 3

    def test_interquantile_ratio(self, view):
        assert view.quantile(0.9) / view.quantile(0.5) == pytest.approx(90 / 50, rel=0.1)
