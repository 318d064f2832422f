"""Further property-based tests: drift and state arrays.

The event-order properties live with the virtual loop that orders
events, in tests/net/test_virtual.py."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fastsim.exchange import matching_round, sequential_round
from repro.fastsim.state import BatchState
from repro.lint.sanitizer import mass_tolerances
from repro.rngs import make_rng
from repro.workloads.dynamic import DriftModel


class TestDriftProperties:
    @given(
        arrays(np.float64, st.integers(2, 40), elements=st.floats(1, 1e6, allow_nan=False)),
        st.floats(min_value=-0.4, max_value=0.4, allow_nan=False),
    )
    def test_growth_preserves_order(self, values, rate):
        model = DriftModel(growth_per_round=rate)
        out = model.apply(values, make_rng(0))
        # Multiplicative growth is a monotone map: it preserves weak order.
        # (Strict argsort equality is too strong — values a few ulps apart
        # can collapse to the same float after scaling.)
        assert np.all(np.diff(out[np.argsort(values, kind="stable")]) >= 0)

    @given(arrays(np.float64, st.integers(2, 40), elements=st.floats(1, 1e6, allow_nan=False)))
    def test_static_model_is_identity(self, values):
        out = DriftModel().apply(values, make_rng(0))
        assert np.array_equal(out, values)


dtypes = st.sampled_from(["float64", "float32"])


def batch_state(values, thresholds, dtype) -> BatchState:
    state = BatchState(values.size, thresholds.size + 1, dtype)
    state.begin_instance(values, thresholds, initiator=0)
    return state


class TestInstanceArraysProperties:
    """The exchange kernels over the per-instance arrays of a ``BatchState``."""

    @given(
        arrays(np.float64, st.integers(2, 40), elements=st.floats(0, 1e4, allow_nan=False)),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
        dtypes,
    )
    @settings(max_examples=30, deadline=None)
    def test_kernels_preserve_conserved_mass(self, values, k, seed, dtype):
        thresholds = np.linspace(values.min(), values.max() + 1, k)
        state = batch_state(values, thresholds, dtype)
        before = state.averaged.sum(axis=0, dtype=np.float64)
        rng = make_rng(seed)
        kernel = sequential_round if seed % 2 == 0 else matching_round
        for _ in range(5):
            kernel(state.averaged, state.extremes, state.joined, rng)
        # the sanitizer's own tolerance: float32 rounds every average
        rtol, atol = mass_tolerances(dtype)
        after = state.averaged.sum(axis=0, dtype=np.float64)
        assert np.allclose(after, before, rtol=rtol, atol=atol)

    @given(
        arrays(np.float64, st.integers(4, 40), elements=st.floats(0, 1e4, allow_nan=False)),
        st.integers(min_value=0, max_value=10_000),
        dtypes,
    )
    @settings(max_examples=30, deadline=None)
    def test_extremes_never_shrink(self, values, seed, dtype):
        thresholds = np.linspace(values.min(), values.max() + 1, 3)
        state = batch_state(values, thresholds, dtype)
        # the population range as the state dtype stores it
        lo, hi = state.extremes[:, 0].min(), state.extremes[:, 1].max()
        rng = make_rng(seed)
        for _ in range(8):
            sequential_round(state.averaged, state.extremes, state.joined, rng)
        assert (state.extremes[:, 0] >= lo).all()
        assert (state.extremes[:, 1] <= hi).all()
        assert (state.extremes[:, 0] <= state.extremes[:, 1]).all()
