"""A peer's initial state in the vectorised substrate: ``BatchState``."""

import numpy as np
import pytest

from repro.core.config import Adam2Config
from repro.errors import ProtocolError
from repro.rngs import make_rng
from repro.fastsim.adam2 import select_instance_points
from repro.fastsim.exchange import sequential_round
from repro.fastsim.state import BatchState

VALUES = np.asarray([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
#: 2 interpolation thresholds then 1 verification threshold
ALL_T = np.asarray([25.0, 45.0, 35.0])


@pytest.fixture()
def state():
    batch = BatchState(VALUES.size, ALL_T.size + 1)
    batch.begin_instance(VALUES, ALL_T, initiator=2)
    return batch


class TestCreate:
    def test_shapes(self, state):
        assert state.averaged.shape == (6, 4)  # 2 thresholds + 1 verification + weight
        assert state.extremes.shape == (6, 2)
        assert state.joined.shape == (6,)
        assert (state.n, state.width) == (6, 4)

    def test_indicator_initialisation(self, state):
        # Node 0 (value 10) is below both thresholds and the v-threshold.
        assert np.array_equal(state.averaged[0, :3], [1.0, 1.0, 1.0])
        # Node 5 (value 60) is above everything.
        assert np.array_equal(state.averaged[5, :3], [0.0, 0.0, 0.0])
        assert np.array_equal(state.averaged[:, :3], VALUES[:, None] <= ALL_T[None, :])
        assert np.array_equal(state.extremes, np.stack((VALUES, VALUES), axis=1))

    def test_initiator_weight_and_join(self, state):
        weights = state.averaged[:, -1]
        assert weights.sum() == 1.0
        assert weights[2] == 1.0
        assert state.joined.sum() == 1
        assert state.joined[2]
        assert state.participants.all() and not state.excluded.any()

    def test_thresholds_sorted(self):
        """The thresholds a batch is filled with come out of selection sorted."""
        config = Adam2Config(points=8, verification_points=3)
        thresholds, v_thresholds = select_instance_points(
            config, None, make_rng(4).uniform(0, 100, size=50), make_rng(5), neighbour_sample=20
        )
        assert thresholds.size == 8 and v_thresholds.size == 3
        assert np.all(np.diff(thresholds) >= 0) and np.all(np.diff(v_thresholds) >= 0)

    def test_validation(self, state):
        with pytest.raises(ProtocolError):
            BatchState(1, 2)
        with pytest.raises(ProtocolError):
            state.begin_instance(VALUES, ALL_T, initiator=6)
        with pytest.raises(ProtocolError):
            state.begin_instance(VALUES, ALL_T[:2], initiator=0)

    def test_refill_without_initiator_leaves_every_row_unjoined(self, state):
        state.begin_instance(VALUES, ALL_T, initiator=None)
        assert not state.joined.any()
        assert state.averaged[:, -1].sum() == 0.0


class TestInvariants:
    def test_mass_conserved_over_rounds(self, state):
        rng = make_rng(0)
        before = state.averaged.sum(axis=0)
        for _ in range(10):
            sequential_round(state.averaged, state.extremes, state.joined, rng)
        assert np.allclose(state.averaged.sum(axis=0), before)

    def test_converges_to_population_fractions(self, state):
        rng = make_rng(1)
        for _ in range(40):
            sequential_round(state.averaged, state.extremes, state.joined, rng)
        # F(25) = 2/6, F(45) = 4/6, F(35) = 3/6 over the population.
        assert np.allclose(state.averaged[:, :2].mean(axis=0), [2 / 6, 4 / 6], atol=1e-9)
        assert np.allclose(state.averaged[:, 2].mean(), 3 / 6, atol=1e-9)
        assert np.allclose(1.0 / state.averaged[:, -1], 6.0, rtol=1e-9)

    def test_reset_node(self, state):
        """Churn resets one row to a fresh node's state and takes it out."""
        state.joined[:] = True
        untouched = state.averaged[1:].copy()
        state.reset_rows(np.asarray([0]), np.asarray([55.0]), ALL_T)
        assert not state.joined[0] and state.excluded[0] and not state.participants[0]
        assert np.array_equal(state.averaged[0], [0.0, 0.0, 0.0, 0.0])
        assert tuple(state.extremes[0]) == (55.0, 55.0)
        assert state.joined[1:].all() and not state.excluded[1:].any()
        assert np.array_equal(state.averaged[1:], untouched)
