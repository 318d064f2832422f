"""Runtime mass-conservation sanitizer for every backend.

Opt-in instrumentation (set ``ADAM2_SANITIZE=1`` or pass
``sanitize=True`` to an engine) that asserts, as the simulation runs,
the invariants Adam2's convergence argument rests on:

* **mass conservation** — per-column sums of all averaged quantities
  (interpolation fractions, verification fractions, the size weight)
  are invariant under symmetric push–pull exchanges; joins add exactly
  the joiner's initial indicator contribution.  Exchange modes that
  intentionally break this must be registered in
  :mod:`repro.core.conservation` — the sanitizer whitelists them *by
  declaration*, never silently.
* **weight sanity** — size weights stay in ``[0, 1]`` and the weight
  column keeps total mass 1 (one initiator).
* **fraction range** — per-node (normalised) fractions stay in
  ``[0, 1]``.
* **monotone interpolation points** — each node's fraction vector is
  non-decreasing over its sorted thresholds, so every intermediate CDF
  estimate is a valid CDF.

Violations raise :class:`InvariantViolation` carrying backend, round,
instance and node context.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

import numpy as np

from repro.errors import ReproError
from repro.core.conservation import is_mass_conserving, non_conserving_reason
from repro.core.instance import InstanceState
from repro.core.node import Adam2Node

__all__ = [
    "InvariantViolation",
    "sanitize_enabled",
    "FastsimSanitizer",
    "checked_delivery",
    "check_mass_totals",
    "check_shard_invariants",
    "mass_tolerances",
]

#: env var switching the sanitizer on globally
ENV_FLAG = "ADAM2_SANITIZE"

_TRUTHY = {"1", "true", "yes", "on"}

#: tolerance for column-mass comparisons (rtol scales with population mass)
MASS_RTOL = 1e-9
MASS_ATOL = 1e-7
#: tolerance for per-node range and monotonicity checks
RANGE_TOL = 1e-9


def mass_tolerances(dtype: Any = None) -> tuple[float, float]:
    """Mass-comparison ``(rtol, atol)`` scaled to the state dtype.

    The module defaults suit float64, where per-exchange rounding is far
    below the fixed tolerances.  A float32 state genuinely rounds every
    averaging operation at ``eps ≈ 1.2e-7``, so over many rounds the
    column sums random-walk by multiples of eps — the tolerances scale
    with the dtype's epsilon to stay an invariant check rather than a
    precision check.
    """
    if dtype is None or np.dtype(dtype) == np.dtype(np.float64):
        return MASS_RTOL, MASS_ATOL
    eps = float(np.finfo(np.dtype(dtype)).eps)
    return max(MASS_RTOL, 512.0 * eps), max(MASS_ATOL, 8192.0 * eps)


def sanitize_enabled(flag: bool | None = None) -> bool:
    """Resolve an explicit engine flag against the ``ADAM2_SANITIZE`` env var."""
    if flag is not None:
        return flag
    return os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY


class InvariantViolation(ReproError):
    """A protocol invariant was violated at runtime.

    Attributes:
        invariant: which invariant failed (``mass-conservation``,
            ``weight-sum``, ``fraction-range``, ``monotone-cdf``).
        backend: ``fastsim`` / ``fastsim.shard`` (vectorised
            simulator), or ``net`` (the node daemons behind both
            ``backend="net"`` and ``backend="async"``).
        round_index: round (or event) at which the violation surfaced.
        instance: instance identifier/index, when known.
        node: node identifier/index, when known.
        detail: human-readable numeric context.
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        *,
        backend: str,
        round_index: int | float | None = None,
        instance: Any = None,
        node: Any = None,
    ):
        self.invariant = invariant
        self.backend = backend
        self.round_index = round_index
        self.instance = instance
        self.node = node
        self.detail = detail
        context = [f"backend={backend}"]
        if round_index is not None:
            context.append(f"round={round_index}")
        if instance is not None:
            context.append(f"instance={instance}")
        if node is not None:
            context.append(f"node={node}")
        super().__init__(f"[{invariant}] {detail} ({', '.join(context)})")


# ---------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------


def _check_mass(
    actual: np.ndarray,
    expected: np.ndarray,
    *,
    backend: str,
    round_index: int | float | None,
    instance: Any,
    rtol: float = MASS_RTOL,
    atol: float = MASS_ATOL,
) -> None:
    actual = np.atleast_1d(np.asarray(actual, dtype=float))
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    tolerance = atol + rtol * np.abs(expected)
    deviation = np.abs(actual - expected)
    if np.any(deviation > tolerance):
        column = int(np.argmax(deviation - tolerance))
        raise InvariantViolation(
            "mass-conservation",
            f"column {column} mass drifted from {expected[column]!r} to "
            f"{actual[column]!r} (|Δ|={deviation[column]:.3e})",
            backend=backend,
            round_index=round_index,
            instance=instance,
        )


def _check_fraction_rows(
    fractions: np.ndarray,
    *,
    backend: str,
    round_index: int | float | None,
    instance: Any,
    node: Any = None,
) -> None:
    """Range [0, 1] and row-wise monotonicity of interpolation fractions."""
    fractions = np.atleast_2d(np.asarray(fractions, dtype=float))
    if fractions.size == 0:
        return
    low = fractions.min()
    high = fractions.max()
    if low < -RANGE_TOL or high > 1.0 + RANGE_TOL:
        rows, cols = np.where((fractions < -RANGE_TOL) | (fractions > 1.0 + RANGE_TOL))
        raise InvariantViolation(
            "fraction-range",
            f"fraction {fractions[rows[0], cols[0]]!r} outside [0, 1] "
            f"at point {int(cols[0])}",
            backend=backend,
            round_index=round_index,
            instance=instance,
            node=node if node is not None else int(rows[0]),
        )
    if fractions.shape[1] > 1:
        steps = np.diff(fractions, axis=1)
        if np.any(steps < -RANGE_TOL):
            rows, cols = np.where(steps < -RANGE_TOL)
            raise InvariantViolation(
                "monotone-cdf",
                f"interpolation points decrease by {-float(steps[rows[0], cols[0]]):.3e} "
                f"between points {int(cols[0])} and {int(cols[0]) + 1}",
                backend=backend,
                round_index=round_index,
                instance=instance,
                node=node if node is not None else int(rows[0]),
            )


def _check_weights(
    weights: np.ndarray,
    *,
    backend: str,
    round_index: int | float | None,
    instance: Any,
) -> None:
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(weights < -RANGE_TOL) or np.any(weights > 1.0 + RANGE_TOL):
        bad = int(np.argmax((weights < -RANGE_TOL) | (weights > 1.0 + RANGE_TOL)))
        raise InvariantViolation(
            "weight-sum",
            f"size weight {weights[bad]!r} outside [0, 1]",
            backend=backend,
            round_index=round_index,
            instance=instance,
            node=bad,
        )


# ---------------------------------------------------------------------
# Fastsim backend
# ---------------------------------------------------------------------


class FastsimSanitizer:
    """Per-instance invariant checks over the dense fastsim arrays.

    Usage (see :class:`repro.fastsim.adam2.Adam2Simulation`): call
    :meth:`begin_instance` once the instance arrays are initialised,
    :meth:`rebaseline` after any *legitimate* external mutation of the
    averaged matrix (churn resets, drift re-evaluation), and
    :meth:`after_round` after every gossip round.
    """

    backend = "fastsim"

    def __init__(self) -> None:
        self._expected: np.ndarray | None = None
        self._conserving: bool = True
        self._mode: str = "symmetric"
        self._instance: Any = None
        self._rtol: float = MASS_RTOL
        self._atol: float = MASS_ATOL

    def begin_instance(self, averaged: np.ndarray, join_mode: str, instance: Any = None) -> None:
        self._mode = join_mode
        self._conserving = is_mass_conserving(join_mode)
        self._instance = instance
        self._rtol, self._atol = mass_tolerances(averaged.dtype)
        # Sum in float64 regardless of state dtype so the *check's own*
        # accumulation error never eats into the tolerance budget.
        self._expected = averaged.sum(axis=0, dtype=np.float64)

    def rebaseline(self, averaged: np.ndarray) -> None:
        """Accept the current mass as the new baseline (churn/drift)."""
        self._expected = averaged.sum(axis=0, dtype=np.float64)

    def after_round(self, averaged: np.ndarray, k: int, round_index: int) -> None:
        if self._expected is None:
            raise InvariantViolation(
                "mass-conservation",
                "after_round() called before begin_instance()",
                backend=self.backend,
                round_index=round_index,
            )
        if self._conserving:
            _check_mass(
                averaged.sum(axis=0, dtype=np.float64),
                self._expected,
                backend=self.backend,
                round_index=round_index,
                instance=self._instance,
                rtol=self._rtol,
                atol=self._atol,
            )
        _check_weights(
            averaged[:, -1],
            backend=self.backend,
            round_index=round_index,
            instance=self._instance,
        )
        _check_fraction_rows(
            averaged[:, :k],
            backend=self.backend,
            round_index=round_index,
            instance=self._instance,
        )

    @property
    def whitelisted_reason(self) -> str | None:
        """Why mass checks are off, when the mode is registered non-conserving."""
        return non_conserving_reason(self._mode)


# ---------------------------------------------------------------------
# Per-node state checks (the node daemons)
# ---------------------------------------------------------------------


def _instance_masses(adam2: Adam2Node) -> dict[Any, dict[str, Any]]:
    return {
        iid: {
            "fractions": state.h.fractions.copy(),
            "v_fractions": state.v_fractions.copy(),
            "weight": state.weight,
            "count": state.count_average,
            "thresholds": state.h.thresholds,
            "v_thresholds": state.v_thresholds,
        }
        for iid, state in adam2.instances.items()
    }


def _initial_contribution(values: np.ndarray, snapshot: dict[str, Any]) -> dict[str, Any]:
    """Mass a fresh joiner adds: its indicator counts, weight 0."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    thresholds = snapshot["thresholds"]
    v_thresholds = snapshot["v_thresholds"]
    return {
        "fractions": (values[None, :] <= thresholds[:, None]).sum(axis=1).astype(float),
        "v_fractions": (values[None, :] <= v_thresholds[:, None]).sum(axis=1).astype(float),
        "weight": 0.0,
        "count": float(values.size),
    }


def _pair_mass(parts: list[dict[str, Any]]) -> np.ndarray:
    """Flatten the summed averaged quantities of a set of per-node states."""
    fractions = np.sum([p["fractions"] for p in parts], axis=0)
    v_fractions = np.sum([p["v_fractions"] for p in parts], axis=0)
    weight = float(np.sum([p["weight"] for p in parts]))
    count = float(np.sum([p["count"] for p in parts]))
    return np.concatenate((np.atleast_1d(fractions), np.atleast_1d(v_fractions), [weight, count]))


def _check_node_states(
    adam2: Adam2Node, *, backend: str, round_index: int | float | None, node: Any
) -> None:
    for iid, state in adam2.instances.items():
        if state.count_average > 0:
            _check_fraction_rows(
                state.h.fractions[None, :] / state.count_average,
                backend=backend,
                round_index=round_index,
                instance=iid,
                node=node,
            )
        _check_weights(
            np.asarray([state.weight]),
            backend=backend,
            round_index=round_index,
            instance=iid,
        )


def _masses_of(state: InstanceState) -> dict[str, Any]:
    return {
        "fractions": state.h.fractions,
        "v_fractions": state.v_fractions,
        "weight": state.weight,
        "count": state.count_average,
        "thresholds": state.h.thresholds,
        "v_thresholds": state.v_thresholds,
    }


# ---------------------------------------------------------------------
# The per-delivery bracket (the node daemons, on real or virtual time)
# ---------------------------------------------------------------------


@contextmanager
def checked_delivery(
    adam2: Adam2Node,
    payload: Mapping[Any, InstanceState],
    *,
    backend: str,
    round_index: int | float | None = None,
) -> Iterator[None]:
    """Bracket the handling of one delivered payload at ``adam2``.

    On leaving the block, for every instance the payload carried the
    node's state must equal the mean of (local-or-initial, remote) — the
    locally-executed half of a push–pull exchange — and every live
    instance must pass the per-node range/monotonicity/weight checks.
    The averaging invariant holds per delivery even when the network
    loses the other half, which is what makes it checkable in the
    node-daemon runtime, on real sockets or on virtual time.
    """
    pre = _instance_masses(adam2)
    yield
    post = _instance_masses(adam2)
    for iid, remote in payload.items():
        if not isinstance(remote, InstanceState) or iid not in post:
            continue
        if iid in pre:
            local_before = pre[iid]
        else:
            local_before = _initial_contribution(adam2.values, post[iid])
        expected = 0.5 * (_pair_mass([local_before]) + _pair_mass([_masses_of(remote)]))
        _check_mass(
            _pair_mass([post[iid]]),
            expected,
            backend=backend,
            round_index=round_index,
            instance=iid,
        )
    _check_node_states(adam2, backend=backend, round_index=round_index, node=adam2.node_id)


def check_mass_totals(
    actual: np.ndarray,
    expected: np.ndarray,
    *,
    backend: str,
    round_index: int | float | None = None,
    instance: Any = None,
    dtype: Any = None,
) -> None:
    """Assert two column-mass vectors agree within dtype-scaled tolerance.

    This is the *global* mass-conservation check of the shard driver:
    per-shard mass is legitimately not conserved (cross-shard pairs move
    mass between shards every round), but the sum over all shards must
    be invariant.  Pass the state ``dtype`` so float32 runs get
    eps-scaled tolerances (:func:`mass_tolerances`).
    """
    rtol, atol = mass_tolerances(dtype)
    _check_mass(
        actual,
        expected,
        backend=backend,
        round_index=round_index,
        instance=instance,
        rtol=rtol,
        atol=atol,
    )


def check_shard_invariants(
    averaged: np.ndarray,
    k: int,
    *,
    backend: str = "fastsim.shard",
    round_index: int | float | None = None,
    instance: Any = None,
) -> None:
    """Per-shard range/weight/monotonicity checks (never mass).

    A shard worker can verify every *local* invariant after its round —
    weights in [0, 1], fractions in range, rows monotone — but must not
    check mass conservation: its column sums change whenever a
    cross-shard pair lands on it.  The coordinator owns the global
    mass check via :func:`check_mass_totals`.
    """
    _check_weights(
        averaged[:, -1],
        backend=backend,
        round_index=round_index,
        instance=instance,
    )
    _check_fraction_rows(
        averaged[:, :k],
        backend=backend,
        round_index=round_index,
        instance=instance,
    )
