"""Array state of one vectorised aggregation instance.

The fast simulator keeps a whole instance in three arrays (see
:mod:`repro.fastsim.exchange` for the invariants the kernels rely on):

* ``averaged`` — ``(n, k + v + 1)``: the ``k`` interpolation-fraction
  columns, ``v`` verification-fraction columns, and the size weight;
* ``extremes`` — ``(n, 2)``: per-node (minimum, maximum) estimates;
* ``joined`` — ``(n,)`` bool, with the invariant that an unjoined node's
  rows always hold exactly its initial state.

:class:`BatchState` owns them: one preallocated ``(N, λ)`` state tensor
(``λ = k + v + 1`` columns over all thresholds) plus the
extremes/join/exclusion arrays, *reused* across consecutive instances —
:meth:`BatchState.begin_instance` refills the tensor in place instead of
reallocating ~``N·λ`` floats per instance, and an optional float32 mode
halves the working set for million-node runs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ProtocolError

__all__ = ["BatchState", "resolve_dtype"]

#: accepted spellings of the batch dtypes
_DTYPES = {
    "float64": np.float64,
    "float32": np.float32,
    "f8": np.float64,
    "f4": np.float32,
}


def resolve_dtype(dtype: str | np.dtype | type) -> np.dtype:
    """Resolve a user-facing dtype spelling to float32/float64, loudly."""
    if isinstance(dtype, str):
        try:
            return np.dtype(_DTYPES[dtype])
        except KeyError:
            raise ConfigurationError(
                f"unknown state dtype {dtype!r}; expected one of {sorted(_DTYPES)}"
            ) from None
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigurationError(
            f"state dtype must be float32 or float64, got {resolved}"
        )
    return resolved


class BatchState:
    """The preallocated ``(N, λ)`` state batch of the fast simulator.

    Owns every per-node array an instance needs — the averaged-quantity
    tensor, the extremes matrix, and the joined/excluded/participants
    masks — allocated once and refilled in place for each consecutive
    instance.  Column layout of ``averaged``: ``k`` interpolation
    fractions, ``v`` verification fractions, then the size weight.

    Args:
        n: population size.
        width: total columns ``k + v + 1``.
        dtype: ``float64`` (reference) or ``float32`` (half the memory
            traffic; mass-conservation checks scale their tolerance to
            the dtype's epsilon).
    """

    def __init__(self, n: int, width: int, dtype: str | np.dtype | type = np.float64):
        if n < 2:
            raise ProtocolError("need a population of at least 2 nodes")
        if width < 1:
            raise ProtocolError("state width must be at least 1")
        self.n = int(n)
        self.width = int(width)
        self.dtype = resolve_dtype(dtype)
        self.averaged = np.empty((self.n, self.width), dtype=self.dtype)
        self.extremes = np.empty((self.n, 2), dtype=self.dtype)
        self.joined = np.empty(self.n, dtype=bool)
        self.excluded = np.empty(self.n, dtype=bool)
        self.participants = np.empty(self.n, dtype=bool)

    @classmethod
    def ensure(
        cls,
        current: "BatchState | None",
        n: int,
        width: int,
        dtype: str | np.dtype | type = np.float64,
    ) -> "BatchState":
        """Reuse ``current`` when it matches, else allocate a fresh batch.

        The instance loop calls this once per instance; in the common
        case (fixed config → fixed ``k``/``v``) it returns the same
        object every time and nothing is allocated.
        """
        resolved = resolve_dtype(dtype)
        if (
            current is not None
            and current.n == n
            and current.width == width
            and current.dtype == resolved
        ):
            return current
        return cls(n, width, resolved)

    def begin_instance(
        self, values: np.ndarray, all_t: np.ndarray, initiator: int | None
    ) -> None:
        """Refill the batch in place for a fresh instance.

        Every row becomes the node's initial indicator state over the
        concatenated (interpolation + verification) thresholds with
        weight 0; only the initiator is joined and carries the unit
        size weight.  ``initiator=None`` leaves every row unjoined — the
        shard-driver case where another shard hosts the initiator and
        this partition joins through cross-shard exchanges.
        """
        if all_t.size + 1 != self.width:
            raise ProtocolError(
                f"threshold count {all_t.size} does not match batch width {self.width}"
            )
        if initiator is not None and not 0 <= initiator < self.n:
            raise ProtocolError(f"initiator {initiator} out of range")
        # Indicator fill: the bool comparison result is cast elementwise
        # into the preallocated float tensor — no (n, λ) temporary.
        np.less_equal(
            values[:, None], all_t[None, :], out=self.averaged[:, : self.width - 1]
        )
        self.averaged[:, -1] = 0.0
        self.extremes[:, 0] = values
        self.extremes[:, 1] = values
        self.joined[:] = False
        self.excluded[:] = False
        self.participants[:] = True
        if initiator is not None:
            self.averaged[initiator, -1] = 1.0
            self.joined[initiator] = True

    def reset_rows(self, indices: np.ndarray, values: np.ndarray, all_t: np.ndarray) -> None:
        """Reset a set of rows to fresh-node initial state (churn), vectorised.

        The replacement nodes get their new attribute's indicator state,
        weight 0, own-value extremes, and drop out of the running
        instance (unjoined, excluded from it and its metrics).
        """
        # Fancy indices: scatter-assign (an ``out=`` view would be a copy).
        self.averaged[indices, : self.width - 1] = values[:, None] <= all_t[None, :]
        self.averaged[indices, -1] = 0.0
        self.extremes[indices, 0] = values
        self.extremes[indices, 1] = values
        self.joined[indices] = False
        self.excluded[indices] = True
        self.participants[indices] = False

    def refresh_pending(self, values: np.ndarray, all_t: np.ndarray) -> None:
        """Re-evaluate unjoined rows against drifted attribute values.

        Nodes evaluate their attribute at join time (paper §VII-F);
        under drift the pending rows must track the live values so their
        eventual join contributes the current indicator state.
        """
        pending = ~self.joined
        if not pending.any():
            return
        fresh = values[pending]
        self.averaged[pending, : self.width - 1] = fresh[:, None] <= all_t[None, :]
        self.extremes[pending, 0] = fresh
        self.extremes[pending, 1] = fresh
