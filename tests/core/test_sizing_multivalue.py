"""Tests for size estimation helpers and the multi-value scheme."""

import numpy as np
import pytest

from repro.errors import EstimationError, ProtocolError
from repro.core.instance import InstanceState
from repro.core.sizing import size_from_weight


def multivalue_state(values, thresholds) -> InstanceState:
    """A peer holding several attribute values joins an instance (§IV)."""
    return InstanceState.initial(
        instance_id="files",
        values=np.asarray(values, dtype=float),
        thresholds=np.asarray(thresholds, dtype=float),
        v_thresholds=np.empty(0),
        ttl=10,
        initiator=False,
    )


class TestSizeFromWeight:
    def test_inverse(self):
        assert size_from_weight(0.01) == pytest.approx(100.0)

    def test_unit_weight(self):
        assert size_from_weight(1.0) == 1.0

    @pytest.mark.parametrize("weight", [0.0, -0.5])
    def test_non_positive_rejected(self, weight):
        with pytest.raises(EstimationError):
            size_from_weight(weight)


class TestMultiValueFractions:
    def test_ratio(self):
        """``f_i = avg_i / avg``: counts [1, 2, 4] over 4 values."""
        state = multivalue_state([1.0, 5.0, 9.0, 9.5], [2.0, 6.0, 10.0])
        assert np.array_equal(state.normalised_fractions(), [0.25, 0.5, 1.0])

    def test_zero_total_rejected(self):
        state = multivalue_state([1.0], [2.0])
        state.count_average = 0.0
        with pytest.raises(ProtocolError):
            state.normalised_fractions()


class TestMultiValueState:
    def test_from_values_counts(self):
        state = multivalue_state([1.0, 5.0, 9.0], [2.0, 6.0, 10.0])
        assert np.array_equal(state.h.fractions, [1.0, 2.0, 3.0])
        assert state.count_average == 3.0
        assert state.weight == 0.0

    def test_merge_averages(self):
        a = multivalue_state([1.0], [2.0, 6.0])
        b = multivalue_state([5.0, 7.0], [2.0, 6.0])
        a.merge_from(b)
        assert np.array_equal(a.h.fractions, [0.5, 1.0])
        assert a.count_average == 1.5

    def test_merge_shape_mismatch(self):
        a = multivalue_state([1.0], [2.0])
        b = multivalue_state([1.0], [2.0, 3.0])
        with pytest.raises(ProtocolError):
            a.merge_from(b)

    def test_empty_values_rejected(self):
        with pytest.raises(ProtocolError):
            multivalue_state([], [1.0])

    def test_fractions_converge_to_population_cdf(self):
        """Pairwise merging many states approaches the file-level CDF."""
        rng = np.random.default_rng(3)
        thresholds = np.asarray([100.0, 500.0])
        value_sets = [rng.uniform(0, 1000, size=rng.integers(1, 6)) for _ in range(32)]
        states = [multivalue_state(v, thresholds) for v in value_sets]
        for _ in range(800):
            i, j = rng.choice(len(states), size=2, replace=False)
            snapshot = states[i].snapshot()
            states[i].merge_from(states[j])
            states[j].merge_from(snapshot)
        all_values = np.concatenate(value_sets)
        expected = [(all_values <= t).mean() for t in thresholds]
        for state in states:
            assert np.allclose(state.normalised_fractions(), expected, atol=1e-3)
