"""Property-based tests (hypothesis) on the core data structures.

Invariants covered:

* empirical CDFs are monotone, bounded, right-continuous step functions
  with a Galois connection to their quantile function;
* estimated CDFs are monotone and bounded for arbitrary (noisy) inputs;
* pairwise averaging conserves mass and contracts the spread;
* extreme merging is commutative/associative/idempotent;
* selection heuristics always return the requested number of thresholds
  inside the domain;
* histogram merging conserves mass exactly;
* the error grid covers the domain.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cdf import EmpiricalCDF, EstimatedCDF
from repro.core.instance import InstanceState
from repro.core.interpolation import InterpolationSet
from repro.core.selection import fill_unique, get_selection
from repro.fastsim.equidepth import merge_histograms
from repro.metrics.error import error_grid
from repro.rngs import make_rng

finite_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positive_values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
fractions = st.floats(min_value=-0.5, max_value=1.5, allow_nan=False, allow_infinity=False)


def value_arrays(min_size=1, max_size=60, elements=finite_values):
    return arrays(np.float64, st.integers(min_size, max_size), elements=elements)


class TestEmpiricalCDFProperties:
    @given(value_arrays())
    def test_monotone_and_bounded(self, values):
        cdf = EmpiricalCDF(values)
        grid = np.linspace(values.min() - 1, values.max() + 1, 64)
        out = cdf.evaluate(grid)
        assert np.all(np.diff(out) >= 0)
        assert out[0] >= 0.0 and out[-1] == 1.0

    @given(value_arrays())
    def test_below_min_zero_at_max_one(self, values):
        cdf = EmpiricalCDF(values)
        assert cdf.evaluate(cdf.minimum - 1e-6) == 0.0
        assert cdf.evaluate(cdf.maximum) == 1.0

    @given(value_arrays(), st.floats(min_value=0.001, max_value=1.0))
    def test_quantile_galois(self, values, q):
        """quantile(q) is the smallest v with F(v) >= q."""
        cdf = EmpiricalCDF(values)
        v = cdf.quantile(q)[0]
        assert cdf.evaluate(v) >= q - 1e-12
        below = v - 1e-9 * max(abs(v), 1.0)
        if below >= cdf.minimum:
            assert cdf.evaluate(below) <= cdf.evaluate(v)


class TestEstimatedCDFProperties:
    @given(
        arrays(np.float64, st.integers(1, 30), elements=st.floats(0, 1000, allow_nan=False)),
        st.data(),
    )
    def test_monotone_bounded_for_noisy_fractions(self, thresholds, data):
        fracs = data.draw(
            arrays(np.float64, thresholds.size, elements=fractions)
        )
        lo = float(min(thresholds.min(), 0.0))
        hi = float(max(thresholds.max(), lo) + 1.0)
        est = EstimatedCDF(thresholds, fracs, lo, hi)
        grid = np.linspace(lo - 1, hi + 1, 64)
        out = est.evaluate(grid)
        assert np.all(np.diff(out) >= -1e-12)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert est.evaluate(lo - 0.5) == 0.0
        assert est.evaluate(hi) == 1.0


def instance_state(fractions, extremes=(0.0, 0.0), weight=0.0, count=1.0) -> InstanceState:
    """A mid-instance state with arbitrary averaged quantities."""
    return InstanceState(
        instance_id="p",
        h=InterpolationSet(
            np.arange(fractions.size, dtype=float), fractions.copy(), extremes[0], extremes[1]
        ),
        weight=weight,
        v_thresholds=np.empty(0),
        v_fractions=np.empty(0),
        count_average=count,
        ttl=5,
    )


class TestMergeProperties:
    @given(value_arrays(min_size=2, max_size=20), st.data())
    def test_average_conserves_mass(self, a, data):
        """The two ``merge_from`` calls of a symmetric exchange keep every sum."""
        b = data.draw(arrays(np.float64, a.size, elements=finite_values))
        mine = instance_state(a, weight=1.0, count=3.0)
        theirs = instance_state(b, weight=0.25, count=1.0)
        snapshot = mine.snapshot()
        mine.merge_from(theirs)
        theirs.merge_from(snapshot)
        assert np.array_equal(mine.h.fractions, theirs.h.fractions)
        assert np.allclose(mine.h.fractions + theirs.h.fractions, a + b)
        assert mine.weight + theirs.weight == 1.25
        assert mine.count_average + theirs.count_average == 4.0

    @given(st.lists(st.tuples(finite_values, finite_values), min_size=2, max_size=6))
    def test_extremes_associative_commutative(self, pairs):
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]

        def fold(ordered):
            states = [instance_state(np.zeros(2), extremes=p) for p in ordered]
            for other in states[1:]:
                states[0].merge_from(other)
            return states[0]

        forward = fold(pairs)
        backward = fold(pairs[::-1])
        assert (forward.h.minimum, forward.h.maximum) == (backward.h.minimum, backward.h.maximum)
        assert forward.h.minimum == min(p[0] for p in pairs)
        assert forward.h.maximum == max(p[1] for p in pairs)
        forward.merge_from(backward)
        assert (forward.h.minimum, forward.h.maximum) == (backward.h.minimum, backward.h.maximum)

    @given(value_arrays(min_size=4, max_size=32, elements=st.floats(0, 1, allow_nan=False)))
    def test_gossip_round_contracts_spread(self, values):
        """A full round of random pairwise averaging never widens the range."""
        rng = make_rng(0)
        state = values.copy()
        lo, hi = state.min(), state.max()
        for _ in range(3):
            i, j = rng.choice(state.size, size=2, replace=False)
            mean = (state[i] + state[j]) / 2
            state[i] = state[j] = mean
        assert state.min() >= lo - 1e-12
        assert state.max() <= hi + 1e-12


class TestSelectionProperties:
    @given(
        st.integers(min_value=2, max_value=40),
        arrays(np.float64, st.integers(2, 40), elements=st.floats(0, 10_000, allow_nan=False)),
    )
    def test_fill_unique_contract(self, lam, thresholds):
        lo, hi = 0.0, 10_000.0
        out = fill_unique(thresholds, lam, lo, hi)
        assert out.size == lam
        assert np.all(np.diff(out) >= 0)
        assert out.min() >= lo and out.max() <= hi

    @given(
        st.sampled_from(["hcut", "minmax", "lcut", "lcut_global"]),
        st.integers(min_value=3, max_value=25),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_refinement_contract(self, heuristic, lam, data):
        # Build an arbitrary monotone previous estimate.
        k = data.draw(st.integers(3, 12))
        raw_t = data.draw(arrays(np.float64, k, elements=st.floats(0, 1000, allow_nan=False)))
        raw_f = data.draw(arrays(np.float64, k, elements=st.floats(0, 1, allow_nan=False)))
        thresholds = np.sort(raw_t)
        previous = EstimatedCDF(thresholds, np.sort(raw_f), float(thresholds[0]), float(thresholds[-1]) + 1.0)
        out = get_selection(heuristic).select(lam, previous, make_rng(1))
        assert out.size == lam
        assert np.all(np.diff(out) >= 0)
        assert out.min() >= previous.minimum - 1e-9
        assert out.max() <= previous.maximum + 1e-9


class TestHistogramMergeProperties:
    @given(
        value_arrays(min_size=1, max_size=30, elements=st.floats(0, 1000, allow_nan=False)),
        value_arrays(min_size=1, max_size=30, elements=st.floats(0, 1000, allow_nan=False)),
        st.integers(min_value=2, max_value=20),
    )
    def test_mass_conserved_and_bounded(self, va, vb, bound):
        wa = np.full(va.size, 1.0 / va.size)
        wb = np.full(vb.size, 1.0 / vb.size)
        values, weights = merge_histograms(va, wa, vb, wb, bound)
        assert values.size <= bound
        assert weights.sum() == np.float64(1.0) or abs(weights.sum() - 1.0) < 1e-9
        assert np.all(np.diff(values) >= 0)
        assert values.min() >= min(va.min(), vb.min()) - 1e-9
        assert values.max() <= max(va.max(), vb.max()) + 1e-9


class TestErrorGridProperties:
    @given(finite_values, st.floats(min_value=0, max_value=1e5, allow_nan=False))
    def test_grid_covers_domain(self, lo, span):
        hi = lo + span
        grid = error_grid(lo, hi, max_points=5001)
        assert grid[0] <= lo + 1e-9
        assert grid[-1] >= hi - 1e-9
        assert grid.size <= 5001 + 2
        assert np.all(np.diff(grid) >= 0)
