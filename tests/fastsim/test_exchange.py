"""Tests for the vectorised gossip exchange kernels."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.rngs import make_rng
from repro.fastsim.exchange import (
    ExchangeBuffers,
    matching_round,
    random_partners,
    sequential_round,
)


def make_state(n, k=3, seed=0):
    rng = make_rng(seed)
    averaged = rng.random((n, k))
    values = rng.uniform(0, 100, n)
    extremes = np.stack((values, values), axis=1)
    joined = np.zeros(n, dtype=bool)
    joined[0] = True
    return averaged, extremes, joined


class TestRandomPartners:
    def test_partner_never_self(self):
        rng = make_rng(1)
        for _ in range(20):
            order, partners = random_partners(50, rng)
            assert (order != partners).all()

    def test_order_is_permutation(self):
        order, _ = random_partners(10, make_rng(2))
        assert sorted(order) == list(range(10))

    def test_too_small(self):
        with pytest.raises(SimulationError):
            random_partners(1, make_rng(0))


@pytest.mark.parametrize("kernel", [sequential_round, matching_round])
class TestKernels:
    def test_mass_conserved_when_all_joined(self, kernel):
        averaged, extremes, joined = make_state(40)
        joined[:] = True
        before = averaged.sum(axis=0)
        kernel(averaged, extremes, joined, make_rng(3))
        assert np.allclose(averaged.sum(axis=0), before)

    def test_join_spreads_epidemically(self, kernel):
        averaged, extremes, joined = make_state(128)
        rng = make_rng(4)
        for _ in range(12):
            kernel(averaged, extremes, joined, rng)
        assert joined.all()

    def test_extremes_converge(self, kernel):
        averaged, extremes, joined = make_state(64)
        lo, hi = extremes[:, 0].min(), extremes[:, 1].max()
        joined[:] = True
        rng = make_rng(5)
        for _ in range(15):
            kernel(averaged, extremes, joined, rng)
        assert (extremes[:, 0] == lo).all()
        assert (extremes[:, 1] == hi).all()

    def test_excluded_nodes_untouched(self, kernel):
        averaged, extremes, joined = make_state(32)
        joined[:] = True
        excluded = np.zeros(32, dtype=bool)
        excluded[5] = True
        joined[5] = False
        before = averaged[5].copy()
        rng = make_rng(6)
        for _ in range(5):
            kernel(averaged, extremes, joined, rng, excluded=excluded)
        assert np.array_equal(averaged[5], before)
        assert not joined[5]

    def test_variance_contracts(self, kernel):
        averaged, extremes, joined = make_state(128)
        joined[:] = True
        rng = make_rng(7)
        start = averaged.std(axis=0).max()
        for _ in range(20):
            kernel(averaged, extremes, joined, rng)
        assert averaged.std(axis=0).max() < start * 1e-2


def steady_state(n, width=3, seed=0):
    """Every node joined: the matching kernel's pair-order regime."""
    averaged, extremes, joined = make_state(n, width, seed)
    joined[:] = True
    return averaged, extremes, joined


@pytest.mark.parametrize("kernel", [sequential_round, matching_round])
class TestExchangeBuffers:
    def test_buffered_bit_identical_to_unbuffered(self, kernel):
        """Preallocated scratch must not change results or the RNG stream.

        The buffered matching round keeps the state in pair order, so
        the comparison goes through ``settle`` (node order again).  Odd
        populations put one node out of every matching.
        """
        for n, rounds in ((64, 10), (65, 10), (1001, 10), (64, 25)):
            averaged_a, extremes_a, joined_a = make_state(n)
            averaged_b = averaged_a.copy()
            extremes_b = extremes_a.copy()
            joined_b = joined_a.copy()
            rng_a, rng_b = make_rng(12), make_rng(12)
            buffers = ExchangeBuffers(n, averaged_b.shape[1], averaged_b.dtype)
            for _ in range(rounds):
                kernel(averaged_a, extremes_a, joined_a, rng_a)
                kernel(averaged_b, extremes_b, joined_b, rng_b, buffers=buffers)
            buffers.settle(averaged_b, extremes_b)
            assert np.array_equal(averaged_a, averaged_b), (n, rounds)
            assert np.array_equal(extremes_a, extremes_b), (n, rounds)
            assert np.array_equal(joined_a, joined_b), (n, rounds)
            # Both generators consumed identically: the next draw agrees.
            assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_buffered_with_exclusions(self, kernel):
        averaged_a, extremes_a, joined_a = make_state(48)
        joined_a[:] = True
        excluded = np.zeros(48, dtype=bool)
        excluded[[3, 17]] = True
        joined_a[[3, 17]] = False
        averaged_b, extremes_b, joined_b = (
            averaged_a.copy(), extremes_a.copy(), joined_a.copy()
        )
        buffers = ExchangeBuffers(48, averaged_b.shape[1], averaged_b.dtype)
        kernel(averaged_a, extremes_a, joined_a, make_rng(13), excluded=excluded)
        kernel(
            averaged_b, extremes_b, joined_b, make_rng(13),
            excluded=excluded, buffers=buffers,
        )
        assert np.array_equal(averaged_a, averaged_b)
        assert np.array_equal(extremes_a, extremes_b)

    def test_steady_state_round_allocates_nothing_new(self, kernel):
        """A buffered round allocates < 2 % of the state (tracemalloc peak).

        NumPy reports its data allocations to tracemalloc, so this is a
        byte count, not a timing.  ``np.take(..., out=)`` in its default
        ``mode="raise"`` fills a temporary the size of ``out`` and copies
        it over — half the state per steady matching round.
        """
        for n in (4096, 4097):
            for masked in (False, True):
                averaged, extremes, joined = steady_state(n, width=61)
                excluded = None
                if masked:
                    excluded = np.zeros(n, dtype=bool)
                    excluded[[3, 17, n - 1]] = True
                    joined[excluded] = False
                buffers = ExchangeBuffers(n, averaged.shape[1], averaged.dtype)
                rng = make_rng(14)
                for _ in range(2):  # the second round starts in pair order
                    tracemalloc.start()
                    kernel(averaged, extremes, joined, rng, excluded=excluded, buffers=buffers)
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    assert peak < 0.02 * averaged.nbytes, (n, masked, peak)


class TestPairOrder:
    """The steady matching round's node→row index and its one way back."""

    @pytest.mark.parametrize("n", [2, 3, 64, 65])
    def test_index_is_a_permutation_and_settle_restores_node_order(self, n):
        averaged_a, extremes_a, joined_a = steady_state(n)
        averaged_b, extremes_b, joined_b = (
            averaged_a.copy(), extremes_a.copy(), joined_a.copy()
        )
        buffers = ExchangeBuffers(n, averaged_b.shape[1], averaged_b.dtype)
        identity = np.arange(n)
        assert np.array_equal(buffers.row_of, identity)
        rng_a, rng_b = make_rng(21), make_rng(21)
        for _ in range(6):
            matching_round(averaged_a, extremes_a, joined_a, rng_a)
            matching_round(averaged_b, extremes_b, joined_b, rng_b, buffers=buffers)
            assert np.array_equal(np.sort(buffers.row_of), identity)
            # Through the index, every node's row is its unbuffered row.
            assert np.array_equal(averaged_b[buffers.row_of], averaged_a)
            assert np.array_equal(extremes_b[buffers.row_of], extremes_a)
        buffers.settle(averaged_b, extremes_b)
        assert np.array_equal(buffers.row_of, identity)
        assert np.array_equal(averaged_b, averaged_a)
        assert np.array_equal(extremes_b, extremes_a)
        buffers.settle(averaged_b, extremes_b)  # a no-op in node order
        assert np.array_equal(averaged_b, averaged_a)

    @pytest.mark.parametrize("n", [48, 49])
    def test_partial_round_after_steady_rounds_matches_unbuffered(self, n):
        """An exclusion after pair-order rounds: the kernel settles first."""
        averaged_a, extremes_a, joined_a = steady_state(n)
        averaged_b, extremes_b, joined_b = (
            averaged_a.copy(), extremes_a.copy(), joined_a.copy()
        )
        buffers = ExchangeBuffers(n, averaged_b.shape[1], averaged_b.dtype)
        rng_a, rng_b = make_rng(22), make_rng(22)
        for _ in range(3):
            matching_round(averaged_a, extremes_a, joined_a, rng_a)
            matching_round(averaged_b, extremes_b, joined_b, rng_b, buffers=buffers)
        assert not np.array_equal(buffers.row_of, np.arange(n))
        excluded = np.zeros(n, dtype=bool)
        excluded[[4, n - 2]] = True
        for _ in range(2):
            active_a = matching_round(averaged_a, extremes_a, joined_a, rng_a, excluded=excluded)
            active_b = matching_round(
                averaged_b, extremes_b, joined_b, rng_b, excluded=excluded, buffers=buffers
            )
            assert active_a == active_b
            assert np.array_equal(buffers.row_of, np.arange(n))
            assert np.array_equal(averaged_a, averaged_b)
            assert np.array_equal(extremes_a, extremes_b)

    def test_reset_order_forgets_the_index_without_moving_rows(self):
        averaged, extremes, joined = steady_state(16)
        buffers = ExchangeBuffers(16, averaged.shape[1], averaged.dtype)
        matching_round(averaged, extremes, joined, make_rng(23), buffers=buffers)
        before = averaged.copy()
        buffers.reset_order()
        assert np.array_equal(buffers.row_of, np.arange(16))
        assert np.array_equal(averaged, before)


class TestBufferedPartners:
    def test_partner_never_self_with_buffers(self):
        buffers = ExchangeBuffers(50, 3, np.float64)
        rng = make_rng(15)
        for _ in range(20):
            order, partners = random_partners(50, rng, buffers)
            assert (order != partners).all()
            assert (0 <= partners).all() and (partners < 50).all()

    def test_buffered_partners_match_unbuffered_stream(self):
        buffers = ExchangeBuffers(40, 3, np.float64)
        order_a, partners_a = random_partners(40, make_rng(16))
        order_b, partners_b = random_partners(40, make_rng(16), buffers)
        assert np.array_equal(order_a, order_b)
        assert np.array_equal(partners_a, partners_b)


class TestLiteralJoin:
    def test_literal_breaks_mass_conservation(self):
        averaged, extremes, joined = make_state(2)
        expected = averaged.sum(axis=0).copy()
        sequential_round(averaged, extremes, joined, make_rng(8), join_mode="literal")
        assert joined.all()
        # The Fig. 1 join rule averages the joiner but leaves the informer
        # unchanged: the per-column totals shift (see DESIGN.md).
        assert not np.allclose(averaged.sum(axis=0), expected)

    def test_symmetric_preserves_mass(self):
        averaged, extremes, joined = make_state(2)
        expected = averaged.sum(axis=0).copy()
        sequential_round(averaged, extremes, joined, make_rng(8), join_mode="symmetric")
        assert np.allclose(averaged.sum(axis=0), expected)
