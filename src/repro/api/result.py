"""The backend-agnostic result shape returned by :func:`repro.api.run`.

Every backend — vectorised fastsim, the round-based engine, the
asynchronous event-driven engine, the real-network runtime — reduces a
run to the same structure: one :class:`InstanceSummary` per aggregation
instance plus a consensus :class:`~repro.core.cdf.EstimatedCDF`, so
experiments, observers and benchmarks treat all backends identically.

The reduction *logic* lives here too: :func:`summarise_completed` folds
the per-node terminated records of one instance into an
:class:`InstanceSummary` (shared by the round, async, and net backends),
and :func:`record_from_payload` rebuilds a per-node record from the JSON
summary a node process emits (shared by the process-cluster harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.cdf import EmpiricalCDF, EstimatedCDF
from repro.core.config import Adam2Config
from repro.core.instance import InstanceState
from repro.core.node import Adam2Node, CompletedInstance
from repro.errors import SimulationError
from repro.metrics.convergence import ConvergenceTrace
from repro.metrics.error import matrix_errors
from repro.types import ErrorPair

__all__ = [
    "InstanceSummary",
    "RunResult",
    "completed_for",
    "instance_state_of",
    "record_from_payload",
    "summarise_completed",
]


@dataclass
class InstanceSummary:
    """Uniform per-instance outcome across backends.

    Attributes:
        index: instance index within the run (0-based).
        thresholds: the instance's shared interpolation thresholds.
        fractions: consensus fraction estimates at the thresholds (mean
            over the peers that completed the instance).
        errors_entire: ``(Err_m, Err_a)`` over the whole CDF domain.
        errors_points: the same pair restricted to the thresholds.
        reached: peers the instance reached before terminating.
        messages: messages attributed to this instance.
        bytes: payload bytes attributed to this instance.
        trace: per-round error trace when tracking was requested
            (fast backend only).
        raw: the backend-native instance record (e.g.
            :class:`repro.fastsim.adam2.FastInstanceResult`) for
            backend-specific analysis; ``None`` when not applicable.
    """

    index: int
    thresholds: np.ndarray
    fractions: np.ndarray
    errors_entire: ErrorPair
    errors_points: ErrorPair
    reached: int
    messages: int
    bytes: int
    trace: ConvergenceTrace | None = None
    raw: object = None


@dataclass
class RunResult:
    """Outcome of one :func:`repro.api.run` call, identical across backends."""

    backend: str
    n_nodes: int
    seed: int
    config: Adam2Config
    instances: list[InstanceSummary] = field(default_factory=list)
    estimate: EstimatedCDF | None = None
    metrics: dict[str, object] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def final(self) -> InstanceSummary:
        if not self.instances:
            raise SimulationError("run produced no instances")
        return self.instances[-1]

    @property
    def final_errors(self) -> ErrorPair:
        return self.final.errors_entire

    def errors_by_instance(self) -> tuple[list[float], list[float]]:
        """(max errors, avg errors) per instance — the Fig. 7 series."""
        return (
            [summary.errors_entire.maximum for summary in self.instances],
            [summary.errors_entire.average for summary in self.instances],
        )

    def __len__(self) -> int:
        return len(self.instances)


# ----------------------------------------------------------------------
# Reduction helpers of the node-daemon runtime (net and async)
# ----------------------------------------------------------------------


def completed_for(nodes: Iterable[Adam2Node], instance_id: Hashable) -> list[CompletedInstance]:
    """Each node's terminated record for one instance (reached nodes only)."""
    out: list[CompletedInstance] = []
    for adam2 in nodes:
        for record in adam2.completed:
            if record.instance_id == instance_id:
                out.append(record)
                break
    return out


def instance_state_of(nodes: Iterable[Adam2Node], instance_id: Hashable) -> InstanceState | None:
    """The first live per-node state found for ``instance_id`` (else None)."""
    for adam2 in nodes:
        state = adam2.instances.get(instance_id)
        if state is not None:
            return state
    return None


def summarise_completed(
    completed: Sequence[CompletedInstance],
    n_live: int,
    truth: EmpiricalCDF,
    thresholds: np.ndarray,
    index: int,
    messages: int,
    bytes_: int,
    rng: np.random.Generator,
    node_sample: int = 64,
) -> tuple[InstanceSummary, EstimatedCDF | None]:
    """Reduce per-node terminated estimates to one :class:`InstanceSummary`.

    Mirrors the fastsim aggregation: errors over reached nodes, with every
    live-but-unreached node folded in at error 1 (its approximation is
    undefined), ``Err_m`` aggregated with max and ``Err_a`` with avg.
    """
    reached = len(completed)
    missing = max(n_live - reached, 0)
    if reached == 0:
        summary = InstanceSummary(
            index=index,
            thresholds=np.asarray(thresholds, dtype=float),
            fractions=np.full(np.asarray(thresholds).shape, np.nan),
            errors_entire=ErrorPair(1.0, 1.0),
            errors_points=ErrorPair(1.0, 1.0),
            reached=0,
            messages=messages,
            bytes=bytes_,
        )
        return summary, None

    thresholds = completed[0].estimate.thresholds
    fractions = np.stack([record.estimate.fractions for record in completed])
    minimum = np.asarray([record.estimate.minimum for record in completed])
    maximum = np.asarray([record.estimate.maximum for record in completed])
    entire, points = matrix_errors(
        truth, thresholds, np.clip(fractions, 0.0, 1.0), minimum, maximum,
        node_sample=node_sample, rng=rng,
    )
    if missing:
        total = reached + missing
        entire = ErrorPair(1.0, (entire.average * reached + missing) / total)
        points = ErrorPair(1.0, (points.average * reached + missing) / total)

    consensus_fractions = fractions.mean(axis=0)
    estimate = EstimatedCDF(
        thresholds=thresholds,
        fractions=np.clip(consensus_fractions, 0.0, 1.0),
        minimum=float(minimum.min()),
        maximum=float(maximum.max()),
    )
    sizes = [r.system_size for r in completed if r.system_size is not None]
    if sizes:
        estimate.system_size = float(np.median(np.asarray(sizes)))
    summary = InstanceSummary(
        index=index,
        thresholds=thresholds,
        fractions=consensus_fractions,
        errors_entire=entire,
        errors_points=points,
        reached=reached,
        messages=messages,
        bytes=bytes_,
    )
    return summary, estimate


def record_from_payload(entry: Mapping[str, Any]) -> CompletedInstance:
    """Rebuild one node's terminated-instance record from its JSON form.

    The inverse of the summary a ``python -m repro.net.node`` process
    writes: threshold/fraction arrays plus extremes become the node's
    :class:`~repro.core.cdf.EstimatedCDF`, the optional size estimate is
    re-attached, and the wire instance id is restored to its tuple form.
    """
    estimate = EstimatedCDF(
        thresholds=np.asarray(entry["thresholds"], dtype=float),
        fractions=np.asarray(entry["fractions"], dtype=float),
        minimum=float(entry["minimum"]),
        maximum=float(entry["maximum"]),
    )
    size = entry.get("system_size")
    estimate.system_size = size
    return CompletedInstance(
        tuple(entry["instance_id"]),
        estimate,
        size,
        None,
        int(entry["round"]),
    )
