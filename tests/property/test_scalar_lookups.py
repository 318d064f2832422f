"""The scalar polyline lookups equal the array API bit for bit.

:meth:`EstimatedCDF.evaluate_at` / :meth:`EstimatedCDF.quantile_at` are
what the query engine calls on a cache miss; :meth:`evaluate` /
:meth:`quantile` (``np.interp`` / :func:`invert_polyline`) are the
reference.  "Equal" here means the same eight bytes — no tolerance: a
served answer must not depend on which of the two computed it.

Polylines are drawn small and ugly on purpose: thresholds on a coarse
grid (so duplicates are common), fractions on a coarse grid (so flat
segments and plateau levels are common, and fractions need not be
monotone), extremes that do or do not coincide with a threshold (so the
``(minimum, 0)`` / ``(maximum, 1)`` anchors are present or absent).
Deterministic: hypothesis ``derandomize``.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cdf import EstimatedCDF
from repro.errors import EstimationError

DETERMINISTIC = settings(max_examples=300, deadline=None, derandomize=True)

grid = st.integers(-8, 8).map(lambda i: i * 12.5)
level = st.integers(0, 8).map(lambda i: i / 8.0)
unit = st.floats(0.0, 1.0, allow_nan=False)
finite = st.floats(-150.0, 150.0, allow_nan=False)


@st.composite
def estimates(draw) -> EstimatedCDF:
    points = draw(st.integers(0, 9))
    thresholds = draw(st.lists(grid | finite, min_size=points, max_size=points))
    fractions = draw(st.lists(level | unit, min_size=points, max_size=points))
    if draw(st.booleans()):
        fractions = sorted(fractions)
    # An extreme may sit on a threshold (no anchor added), inside the
    # thresholds' span, or beyond it (anchor added).
    inside = st.sampled_from(thresholds) if thresholds else finite
    low, high = sorted((draw(inside | finite), draw(inside | finite)))
    return EstimatedCDF(
        np.asarray(thresholds, dtype=float), np.asarray(fractions, dtype=float),
        minimum=low, maximum=high,
    )


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def outcome(lookup, argument: float) -> object:
    """The result's eight bytes, or the exception type it refused with."""
    try:
        return bits(float(np.ravel(lookup(argument))[0]))
    except Exception as exc:  # a one-vertex polyline has no inverse
        return type(exc)


@DETERMINISTIC
@given(estimates(), st.lists(grid | finite, max_size=6))
def test_evaluate_at_is_bit_identical(estimate, extra):
    xs, _ = estimate.polyline()
    probes = [
        *xs, *extra, estimate.minimum, estimate.maximum,
        math.nextafter(estimate.minimum, -math.inf),   # just below the minimum
        math.nextafter(estimate.maximum, math.inf),    # just above the maximum
        math.nextafter(estimate.maximum, -math.inf),
        *(0.5 * (a + b) for a, b in zip(xs, xs[1:])),  # inside every segment
        -math.inf, math.inf, -0.0, 0.0,
    ]
    for x in map(float, probes):
        assert outcome(estimate.evaluate_at, x) == outcome(estimate.evaluate, x), x
    # ... and the array API agrees with itself element-wise.
    batch = estimate.evaluate(np.asarray(probes, dtype=float))
    assert [bits(estimate.evaluate_at(float(x))) for x in probes] == [
        bits(float(y)) for y in batch
    ]


@DETERMINISTIC
@given(estimates(), st.lists(level | unit, max_size=6))
def test_quantile_at_is_bit_identical(estimate, extra):
    _, ys = estimate.polyline()
    probes = [
        0.0, 1.0, -0.0, *extra,
        *ys,                                            # vertices and plateau levels
        *(math.nextafter(y, 2.0) for y in ys if y < 1.0),
        *(math.nextafter(y, -1.0) for y in ys if y > 0.0),
        *(0.5 * (a + b) for a, b in zip(ys, ys[1:])),
    ]
    for q in map(float, probes):
        assert outcome(estimate.quantile_at, q) == outcome(estimate.quantile, q), q


def test_nan_and_out_of_range_behave_like_the_array_api():
    estimate = EstimatedCDF(
        np.asarray([10.0, 20.0]), np.asarray([0.25, 0.75]), minimum=0.0, maximum=40.0
    )
    assert math.isnan(estimate.evaluate_at(math.nan))
    assert math.isnan(float(estimate.evaluate(math.nan)))
    assert math.isnan(estimate.quantile_at(math.nan))
    assert math.isnan(float(estimate.quantile(math.nan)[0]))
    for q in (-0.1, 1.1, math.inf):
        with pytest.raises(EstimationError):
            estimate.quantile(q)
        with pytest.raises(EstimationError):
            estimate.quantile_at(q)


def test_an_estimate_of_nothing_takes_np_interps_own_fallbacks():
    # No thresholds: the polyline is the two (unchecked) extremes, and
    # infinite ones make slope * (x - x0) non-finite.
    estimate = EstimatedCDF(
        np.asarray([]), np.asarray([]), minimum=-math.inf, maximum=math.inf
    )
    for x in (-1e300, 0.0, 5.0):
        assert bits(estimate.evaluate_at(x)) == bits(float(estimate.evaluate(x)))


def test_vertex_lists_are_built_on_the_first_scalar_lookup_only():
    estimate = EstimatedCDF(
        np.asarray([10.0, 20.0]), np.asarray([0.25, 0.75]), minimum=0.0, maximum=40.0
    )
    assert estimate._vertices is None
    estimate.evaluate(15.0), estimate.quantile(0.5)   # the array API never builds them
    assert estimate._vertices is None
    estimate.evaluate_at(50.0)                        # answered by the extremes alone
    assert estimate._vertices is None
    estimate.evaluate_at(15.0)
    xs, ys = estimate.polyline()
    assert estimate._vertices == (xs.tolist(), ys.tolist())
