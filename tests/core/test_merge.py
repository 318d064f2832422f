"""MERGE (paper Fig. 1) as every substrate runs it: ``InstanceState.merge_from``."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.core.instance import InstanceState

THRESHOLDS = np.asarray([10.0, 20.0, 30.0])


def state(values, thresholds=THRESHOLDS, v_thresholds=(), initiator=False):
    return InstanceState.initial(
        instance_id="x",
        values=np.atleast_1d(np.asarray(values, dtype=float)),
        thresholds=np.asarray(thresholds, dtype=float),
        v_thresholds=np.asarray(v_thresholds, dtype=float),
        ttl=10,
        initiator=initiator,
    )


def averaged(s: InstanceState) -> np.ndarray:
    """Every averaged quantity of a state, flattened."""
    return np.concatenate((s.h.fractions, s.v_fractions, [s.weight, s.count_average]))


def extremes(s: InstanceState) -> tuple[float, float]:
    return s.h.minimum, s.h.maximum


class TestMergeAverage:
    def test_elementwise_mean(self):
        a = state(5.0, v_thresholds=[15.0], initiator=True)    # [1, 1, 1] [1] w=1
        b = state([25.0, 35.0], v_thresholds=[15.0])           # [0, 0, 1] [0] w=0, 2 values
        a.merge_from(b)
        assert np.array_equal(a.h.fractions, [0.5, 0.5, 1.0])
        assert np.array_equal(a.v_fractions, [0.5])
        assert a.weight == 0.5
        assert a.count_average == 1.5

    def test_mass_conservation(self):
        """Both halves of a symmetric exchange together keep every column sum."""
        a = state([5.0, 12.0, 28.0], v_thresholds=[15.0, 25.0], initiator=True)
        b = state(22.0, v_thresholds=[15.0, 25.0])
        before = averaged(a) + averaged(b)
        snap = a.snapshot()
        a.merge_from(b)
        b.merge_from(snap)
        assert np.array_equal(averaged(a), averaged(b))
        assert averaged(a) + averaged(b) == pytest.approx(before)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            state(5.0, thresholds=[10.0]).merge_from(state(5.0, thresholds=[10.0, 20.0]))


class TestMergeExtremes:
    def test_min_max(self):
        a, b = state([1.0, 5.0]), state([0.5, 4.0])
        a.merge_from(b)
        assert extremes(a) == (0.5, 5.0)

    def test_idempotent(self):
        a = state([1.0, 5.0])
        a.merge_from(state([1.0, 5.0]))
        assert extremes(a) == (1.0, 5.0)

    def test_commutative_and_associative(self):
        """The extremes a peer ends with do not depend on merge order."""
        values = ([3.0, 7.0], [1.0, 4.0], [6.0, 9.0], [2.0, 2.5])
        outcomes = set()
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            states = [state(v) for v in values]
            first = states[order[0]]
            for index in order[1:]:
                first.merge_from(states[index])
            outcomes.add(extremes(first))
        # grouping: fold the tail first, then merge it in one step
        states = [state(v) for v in values]
        states[2].merge_from(states[3])
        states[1].merge_from(states[2])
        states[0].merge_from(states[1])
        outcomes.add(extremes(states[0]))
        assert outcomes == {(1.0, 9.0)}


class TestMergeInterpolationSets:
    def test_full_merge(self):
        a = state(5.0, thresholds=[10.0, 20.0])   # [1, 1]
        b = state(15.0, thresholds=[10.0, 20.0])  # [0, 1]
        a.merge_from(b)
        assert np.array_equal(a.h.fractions, [0.5, 1.0])
        assert np.array_equal(a.h.thresholds, [10.0, 20.0])
        assert extremes(a) == (5.0, 15.0)

    def test_threshold_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            state(5.0, thresholds=[10.0]).merge_from(state(5.0, thresholds=[11.0]))

    def test_inputs_not_mutated(self):
        """MERGE reads the remote state; it neither changes nor aliases it."""
        a = state(5.0, v_thresholds=[15.0], initiator=True)
        b = state(15.0, v_thresholds=[15.0])
        remote = b.snapshot()
        a.merge_from(b)
        assert np.array_equal(averaged(b), averaged(remote))
        assert extremes(b) == extremes(remote)
        a.h.fractions[:] = -1.0
        a.v_fractions[:] = -1.0
        assert np.array_equal(averaged(b), averaged(remote))
