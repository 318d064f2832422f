"""Ground-truth and estimated cumulative distribution functions.

The ground truth ``F`` is always the *empirical* CDF of the attribute
values held by the live node population — exactly the paper's definition
``F(x) = |{p : A(p) <= x}| / N`` — never an analytic form.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.errors import EstimationError
from repro.core.interpolation import InterpolationSet, assemble_polyline, invert_polyline

__all__ = ["EmpiricalCDF", "EstimatedCDF"]


class EmpiricalCDF:
    """The exact CDF of a finite population of attribute values."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise EstimationError("EmpiricalCDF requires a non-empty 1-D value array")
        if not np.all(np.isfinite(values)):
            raise EstimationError("EmpiricalCDF values must be finite")
        self._sorted = np.sort(values)

    @property
    def size(self) -> int:
        """Number of population values ``N``."""
        return int(self._sorted.size)

    @property
    def minimum(self) -> float:
        return float(self._sorted[0])

    @property
    def maximum(self) -> float:
        return float(self._sorted[-1])

    def evaluate(self, xs: np.ndarray | float) -> np.ndarray:
        """``F(x)``: fraction of values at or below each ``x``."""
        xs = np.asarray(xs, dtype=float)
        return np.searchsorted(self._sorted, xs, side="right") / self._sorted.size

    def quantile(self, q: np.ndarray | float) -> np.ndarray:
        """Smallest value ``v`` with ``F(v) >= q`` (generalised inverse)."""
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q < 0) | (q > 1)):
            raise EstimationError("quantile levels must lie in [0, 1]")
        ranks = np.clip(np.ceil(q * self._sorted.size).astype(int) - 1, 0, self._sorted.size - 1)
        return self._sorted[ranks]

    def support(self) -> np.ndarray:
        """The distinct attribute values present in the population."""
        return np.unique(self._sorted)

    def __call__(self, xs):
        return self.evaluate(xs)


class EstimatedCDF:
    """A node's final CDF approximation ``F_p`` (linear interpolation).

    Built from an :class:`InterpolationSet` (or raw threshold/fraction
    arrays plus extremes) at the end of an aggregation instance.  The
    estimate is 0 strictly below the tracked minimum, 1 at and above the
    tracked maximum, and piecewise linear in between.

    :meth:`evaluate` / :meth:`quantile` are the array API;
    :meth:`evaluate_at` / :meth:`quantile_at` are their one-float twins
    for the serving path — same vertex, same arithmetic, bit-identical
    results, found with :mod:`bisect` over plain-float vertex lists that
    are built on the first scalar lookup (construction costs nothing).
    """

    def __init__(
        self,
        thresholds: np.ndarray,
        fractions: np.ndarray,
        minimum: float,
        maximum: float,
        system_size: float | None = None,
    ):
        self._xs, self._ys = assemble_polyline(thresholds, fractions, minimum, maximum)
        self.thresholds = np.sort(np.asarray(thresholds, dtype=float))
        self.fractions = np.asarray(fractions, dtype=float)[np.argsort(np.asarray(thresholds, dtype=float), kind="stable")]
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        #: estimated system size (``1/w``), if the instance aggregated one.
        self.system_size = system_size
        self._vertices: tuple[list[float], list[float]] | None = None

    @classmethod
    def from_interpolation(cls, h: InterpolationSet, system_size: float | None = None) -> "EstimatedCDF":
        return cls(h.thresholds, h.fractions, h.minimum, h.maximum, system_size)

    def evaluate(self, xs: np.ndarray | float) -> np.ndarray:
        """``F_p(x)`` for each ``x``."""
        xs = np.asarray(xs, dtype=float)
        ys = np.interp(xs, self._xs, self._ys)
        ys = np.where(xs < self.minimum, 0.0, ys)
        ys = np.where(xs >= self.maximum, 1.0, ys)
        return ys

    def quantile(self, q: np.ndarray | float) -> np.ndarray:
        """Approximate inverse: smallest ``x`` with ``F_p(x) >= q``.

        Uses the interpolation polyline (binary search via
        :func:`repro.core.interpolation.invert_polyline`); exact on the
        polyline vertices.
        """
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q < 0) | (q > 1)):
            raise EstimationError("quantile levels must lie in [0, 1]")
        return invert_polyline(self._xs, self._ys, q)

    def evaluate_at(self, x: float) -> float:
        """``float(evaluate(x))`` for one float, without the array round trip.

        Inside ``[minimum, maximum)`` the polyline brackets ``x`` (its
        first vertex is at or below the minimum, its last at or above the
        maximum), so only ``np.interp``'s interior branch is left: the
        last vertex at or below ``x``, then ``slope * (x - x0) + y0``.
        """
        if not self.minimum <= x < self.maximum:
            # evaluate()'s two overrides, in its order; NaN passes through.
            return 1.0 if x >= self.maximum else 0.0 if x < self.minimum else x
        xs, ys = self._vertices or self._vertex_lists()
        j = bisect_right(xs, x) - 1
        x0, y0 = xs[j], ys[j]
        if x0 == x:
            return y0
        y = (ys[j + 1] - y0) / (xs[j + 1] - x0) * (x - x0) + y0
        # Non-finite vertices (an estimate of nothing): np.interp's own fallbacks.
        return y if y == y else float(self.evaluate(x))

    def quantile_at(self, q: float) -> float:
        """``float(quantile(q)[0])`` for one float (see :meth:`evaluate_at`)."""
        if not 0.0 <= q <= 1.0:
            if q != q:
                return q
            raise EstimationError("quantile levels must lie in [0, 1]")
        xs, ys = self._vertices or self._vertex_lists()
        if len(xs) < 2:  # one vertex: the array API refuses it, in its own words
            return float(self.quantile(q)[0])
        if q >= ys[-1]:
            return xs[-1]
        if q <= ys[0]:
            return xs[0]
        # ys[0] < q < ys[-1], so 1 <= i <= n-1 and ys[i-1] < q <= ys[i].
        i = bisect_left(ys, q)
        x_lo, y_lo = xs[i - 1], ys[i - 1]
        ratio = (q - y_lo) / (ys[i] - y_lo)
        return x_lo + (xs[i] - x_lo) * min(max(ratio, 0.0), 1.0)

    def _vertex_lists(self) -> tuple[list[float], list[float]]:
        self._vertices = self._xs.tolist(), self._ys.tolist()
        return self._vertices

    def polyline(self) -> tuple[np.ndarray, np.ndarray]:
        """The anchored interpolation polyline ``(xs, ys)``."""
        return self._xs.copy(), self._ys.copy()

    def __call__(self, xs):
        return self.evaluate(xs)
