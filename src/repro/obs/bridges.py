"""Probe computation bridging engines to observability events.

The vectorised fastsim computes its probes inline from its arrays; the
node-daemon backends (``net`` and ``async``) use the helpers here, which
walk per-node :class:`~repro.core.instance.InstanceState` objects for
one aggregation instance.

:class:`RateTracker` derives the per-round convergence factor from the
spread series — Jelasity et al.'s variance-reduction-rate diagnostic for
epidemic averaging — and is shared by every backend.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from repro.core.node import Adam2Node
from repro.obs.events import RoundSample

__all__ = ["RateTracker", "instance_round_sample"]


class RateTracker:
    """Turns a per-round spread series into per-round decay factors."""

    __slots__ = ("_previous",)

    def __init__(self) -> None:
        self._previous: dict[Hashable, float] = {}

    def rate(self, key: Hashable, spread: float) -> float | None:
        """Decay factor ``spread_t / spread_{t-1}`` (None when undefined)."""
        previous = self._previous.get(key)
        self._previous[key] = spread
        if previous is None or not previous > 0.0:
            return None
        return spread / previous


def instance_round_sample(
    nodes: Iterable[Adam2Node],
    instance_id: Hashable,
    *,
    instance_index: int,
    round_index: int,
    messages: int,
    bytes_: int,
    tracker: RateTracker,
) -> RoundSample:
    """Probe one instance's state across an object-per-node population.

    Mass and weight sums are taken over the raw (count-based) fractions
    and weights, which the symmetric exchange conserves; the spread is
    the mean per-point standard deviation across reached peers.
    """
    mass_sum = 0.0
    weight_sum = 0.0
    rows: list[np.ndarray] = []
    for node in nodes:
        state = node.instances.get(instance_id)
        if state is None:
            continue
        mass_sum += float(state.h.fractions.sum())
        weight_sum += state.weight
        rows.append(state.h.fractions)
    if len(rows) > 1:
        spread = float(np.std(np.stack(rows), axis=0).mean())
    else:
        spread = 0.0
    return RoundSample(
        instance=instance_index,
        round=round_index,
        mass_sum=mass_sum,
        weight_sum=weight_sum,
        reached=len(rows),
        spread=spread,
        convergence_rate=tracker.rate(instance_id, spread),
        messages=messages,
        bytes=bytes_,
    )
