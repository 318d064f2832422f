"""The simulation backends behind the :func:`repro.api.run` facade.

Each backend builds one engine and runs ``spec.instances`` consecutive
aggregation instances on it.  The node-daemon runtime in
:mod:`repro.net.backend` (behind ``net`` and ``async``) runs them through
:func:`drive_instances`: the backend contributes how an instance starts,
how one round happens and three accessors, and the driver owns
everything an instance *is*: events, probes, the drain rule, the
reduction to a :class:`~repro.api.result.RunResult`.

Backends declare the option names they support (the facade rejects
anything else loudly) and forward only the options the caller gave, so
every default is declared once, by the engine constructor that owns it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Hashable, Sequence

import numpy as np

from repro.api.result import (
    InstanceSummary,
    RunResult,
    completed_for,
    instance_state_of,
    summarise_completed,
)
from repro.core.cdf import EmpiricalCDF, EstimatedCDF
from repro.core.config import Adam2Config
from repro.core.node import Adam2Node
from repro.errors import ConfigurationError
from repro.obs.bridges import RateTracker, instance_round_sample
from repro.obs.events import InstanceCompleted, InstanceStarted
from repro.obs.observer import ObserverHub
from repro.workloads.base import AttributeWorkload

__all__ = [
    "Backend",
    "FastBackend",
    "RunSpec",
    "drive_instances",
]


@dataclass
class RunSpec:
    """Everything a backend needs to execute one run."""

    workload: AttributeWorkload
    n_nodes: int
    config: Adam2Config
    instances: int
    seed: int
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError("need at least 2 nodes")
        if self.instances < 1:
            raise ConfigurationError("need at least one instance")

    def given(self, *keys: str) -> dict[str, Any]:
        """Those of ``keys`` the caller passed, as keyword arguments.

        What a backend forwards to its engine: an option left out keeps
        the default its constructor declares.
        """
        return {key: self.options[key] for key in keys if key in self.options}


class Backend(ABC):
    """One simulation substrate runnable through the facade."""

    #: registry name (the ``backend=`` argument of :func:`repro.api.run`)
    name: str = "backend"
    #: option keys this backend understands; anything else fails loudly
    supported_options: frozenset[str] = frozenset()

    @abstractmethod
    def run(self, spec: RunSpec, hub: ObserverHub) -> RunResult:
        """Execute the run described by ``spec``, reporting through ``hub``."""

    def validate_options(self, options: dict[str, object]) -> None:
        unknown = sorted(set(options) - self.supported_options)
        if unknown:
            supported = ", ".join(sorted(self.supported_options)) or "(none)"
            raise ConfigurationError(
                f"backend {self.name!r} does not support option(s) {unknown}; "
                f"supported: {supported}"
            )


def _result(
    name: str,
    spec: RunSpec,
    summaries: list[InstanceSummary],
    estimate: EstimatedCDF | None,
) -> RunResult:
    return RunResult(
        backend=name,
        n_nodes=spec.n_nodes,
        seed=spec.seed,
        config=spec.config,
        instances=summaries,
        estimate=estimate,
    )


# ----------------------------------------------------------------------
# The instance loop of the node-daemon backends
# ----------------------------------------------------------------------


async def drive_instances(
    name: str,
    spec: RunSpec,
    hub: ObserverHub,
    measure_rng: np.random.Generator,
    *,
    trigger: Callable[[], Awaitable[Hashable]],
    step: Callable[[int, int, Hashable], Awaitable[None]],
    nodes: Callable[[], Sequence[Adam2Node]],
    traffic: Callable[[], tuple[int, int]],
    population: Callable[[], np.ndarray],
    drain_periods: int,
    settle: Callable[[], Awaitable[None]],
) -> RunResult:
    """Run ``spec.instances`` aggregation instances on a node-daemon system.

    One instance: the initiator picks thresholds, ``rounds_per_instance``
    push-pull rounds run, stragglers' TTLs drain, every reached peer's
    terminated estimate is reduced to one :class:`InstanceSummary`.
    The keyword arguments are what the runtime contributes; the hooks
    are coroutine functions that await sockets and timers (real, or
    virtual under ``backend="async"``).

    Args:
        trigger: start one instance at some live node; returns its id.
        step: make one gossip round happen; called with the instance
            index, the 0-based round index and the instance id.
        nodes: the live nodes' protocol state (a live node the instance
            never reached counts at error 1).
        traffic: cumulative ``(messages, bytes)`` sent so far.
        population: every live node's attribute values (ground truth).
        drain_periods: extra periods stragglers get to tick their TTLs
            out after the instance's rounds (the ``drain_periods``
            option overrides it).
        settle: wait for work still in flight once the rounds are done.
    """
    rounds = spec.config.rounds_per_instance
    drain = spec.options.get("drain_periods", drain_periods)
    probes = hub if hub.probes_enabled else None
    tracker = RateTracker()

    summaries: list[InstanceSummary] = []
    estimate: EstimatedCDF | None = None
    for index in range(spec.instances):
        instance_id = await trigger()
        state = instance_state_of(nodes(), instance_id)
        if state is None:  # pragma: no cover - trigger always leaves state behind
            raise ConfigurationError(f"instance {instance_id!r} has no live state")
        thresholds = state.h.thresholds.copy()
        if probes is not None:
            probes.instance_started(InstanceStarted(
                instance=index,
                thresholds=tuple(float(t) for t in thresholds),
                v_thresholds=tuple(float(t) for t in state.v_thresholds),
            ))
        start = mark = traffic()
        with hub.span("instance"):
            for round_index in range(rounds + drain):
                await step(index, round_index, instance_id)
                if probes is not None:
                    now = traffic()
                    probes.round_sample(instance_round_sample(
                        nodes(),
                        instance_id,
                        instance_index=index,
                        round_index=round_index + 1,
                        messages=now[0] - mark[0],
                        bytes_=now[1] - mark[1],
                        tracker=tracker,
                    ))
                    mark = now
                if round_index + 1 >= rounds and instance_state_of(
                    nodes(), instance_id
                ) is None:
                    break
            await settle()
        end = traffic()
        live = nodes()
        summary, consensus = summarise_completed(
            completed_for(live, instance_id),
            len(live),
            EmpiricalCDF(population()),
            thresholds,
            index,
            end[0] - start[0],
            end[1] - start[1],
            measure_rng,
            **spec.given("node_sample"),
        )
        summaries.append(summary)
        if consensus is not None:
            estimate = consensus
        if probes is not None:
            probes.instance_completed(InstanceCompleted(
                instance=index,
                rounds=rounds,
                reached=summary.reached,
                err_max=summary.errors_entire.maximum,
                err_avg=summary.errors_entire.average,
                messages=summary.messages,
                bytes=summary.bytes,
            ))
    return _result(name, spec, summaries, estimate)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


class FastBackend(Backend):
    """The vectorised simulator (:class:`repro.fastsim.adam2.Adam2Simulation`)."""

    name = "fast"
    supported_options = frozenset({
        "exchange", "churn_rate", "neighbour_sample", "node_sample", "sanitize",
        "track", "track_every", "confidence_sample", "drift",
        "warmup_instances", "system_errors", "dtype", "shards", "shard_mix",
    })

    #: what the shard driver takes; every other option needs full-state access
    _SHARDABLE = ("shard_mix", "neighbour_sample", "node_sample", "sanitize", "dtype")

    def run(self, spec: RunSpec, hub: ObserverHub) -> RunResult:
        from repro.fastsim.adam2 import Adam2Simulation

        opts = spec.options
        shards = int(opts.get("shards", 1))
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if shards > 1:
            return self._run_sharded(spec, hub, shards)
        sim = Adam2Simulation(
            spec.workload,
            spec.n_nodes,
            spec.config,
            seed=spec.seed,
            obs=hub,
            **spec.given("exchange", "churn_rate", "neighbour_sample",
                         "node_sample", "sanitize", "dtype"),
        )
        for _ in range(opts.get("warmup_instances", 0)):
            sim.run_instance()
        per_instance = spec.given("track", "track_every", "confidence_sample", "drift")

        summaries: list[InstanceSummary] = []
        estimate: EstimatedCDF | None = None
        for index in range(spec.instances):
            with hub.span("instance"):
                outcome = sim.run_instance(**per_instance)
            reached_mask = outcome.joined & outcome.participants
            reached = int(reached_mask.sum())
            if reached:
                fractions = outcome.fractions[reached_mask].mean(axis=0)
                estimate = outcome.mean_estimate()
            else:
                fractions = np.full(outcome.thresholds.shape, np.nan)
            summaries.append(InstanceSummary(
                index=index,
                thresholds=outcome.thresholds,
                fractions=fractions,
                errors_entire=outcome.errors_entire,
                errors_points=outcome.errors_points,
                reached=reached,
                messages=outcome.messages_total,
                bytes=outcome.bytes_total,
                trace=outcome.trace,
                raw=outcome,
            ))

        result = _result(self.name, spec, summaries, estimate)
        if opts.get("system_errors", False):
            result.extras["system_errors"] = sim.system_errors()
        result.extras["simulation"] = sim
        return result

    def _run_sharded(self, spec: RunSpec, hub: ObserverHub, shards: int) -> RunResult:
        """Route ``shards=N`` runs through the multiprocessing driver.

        The shard driver targets the static-population N-scaling regime,
        so options that require per-round full-state access are rejected
        loudly rather than silently ignored.
        """
        from repro.fastsim.shard import ShardedAdam2

        conflicting = sorted(set(spec.options) - {"shards", *self._SHARDABLE})
        if conflicting:
            raise ConfigurationError(
                f"option(s) {conflicting} are not supported with shards > 1"
            )
        summaries: list[InstanceSummary] = []
        estimate: EstimatedCDF | None = None
        with ShardedAdam2(
            spec.workload,
            spec.n_nodes,
            spec.config,
            seed=spec.seed,
            shards=shards,
            obs=hub,
            **spec.given(*self._SHARDABLE),
        ) as sim:
            for index in range(spec.instances):
                with hub.span("instance"):
                    outcome = sim.run_instance()
                if outcome.reached:
                    estimate = outcome.estimate
                summaries.append(InstanceSummary(
                    index=index,
                    thresholds=outcome.thresholds,
                    fractions=outcome.estimate.fractions,
                    errors_entire=outcome.errors_entire,
                    errors_points=outcome.errors_points,
                    reached=outcome.reached,
                    messages=outcome.messages_total,
                    bytes=outcome.bytes_total,
                    trace=None,
                    raw=outcome,
                ))
        result = _result(self.name, spec, summaries, estimate)
        result.extras["shards"] = shards
        return result
