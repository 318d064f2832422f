"""The observer interface and the hub that engines talk to.

:class:`RunObserver` is the subscriber interface: five lifecycle hooks
mirroring the run hierarchy (run, instance, round) plus :meth:`close`.
All hooks default to no-ops, so sinks override only what they need.

:class:`ObserverHub` is the single object an engine receives.  It fans
events out to observers, maintains a :class:`MetricsRegistry`, and owns
a :class:`SpanRegistry` for profiling.  Two independent switches keep
the disabled path at a single branch per round:

* ``probes_enabled`` — true when at least one observer is attached;
  engines skip *computing* probe quantities entirely otherwise.
* ``timing_enabled`` — true when the hub was built with
  ``instrument=True``; engines only open wall-clock spans then.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from typing import Iterable

from repro.obs.events import (
    InstanceCompleted,
    InstanceStarted,
    QueryServed,
    RoundSample,
    RunCompleted,
    RunStarted,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import SpanRegistry

__all__ = ["NULL_HUB", "ObserverHub", "RunObserver"]


class RunObserver:
    """Base observer: every hook is a no-op; override what you need."""

    def on_run_start(self, event: RunStarted) -> None:
        """A backend run begins."""

    def on_instance_start(self, event: InstanceStarted) -> None:
        """An aggregation instance starts."""

    def on_round(self, event: RoundSample) -> None:
        """A gossip round (or async gossip period) completed."""

    def on_instance_end(self, event: InstanceCompleted) -> None:
        """An aggregation instance terminated."""

    def on_run_end(self, event: RunCompleted) -> None:
        """The run finished."""

    def on_query(self, event: QueryServed) -> None:
        """The estimation service answered one query."""

    def close(self) -> None:
        """Release any resources (files, handles)."""


class ObserverHub:
    """Dispatches events to observers and aggregates metrics/spans.

    Args:
        observers: subscribers to fan events out to.
        instrument: enable wall-clock span timing (profiling runs).
        metrics: share an existing registry (default: a fresh one).
        spans: share an existing span registry (default: a fresh one).
    """

    __slots__ = (
        "observers",
        "metrics",
        "spans",
        "probes_enabled",
        "timing_enabled",
        "_query_instruments",
        "_query_op_counters",
        "_round_instruments",
    )

    def __init__(
        self,
        observers: Iterable[RunObserver] = (),
        *,
        instrument: bool = False,
        metrics: MetricsRegistry | None = None,
        spans: SpanRegistry | None = None,
    ) -> None:
        self.observers: tuple[RunObserver, ...] = tuple(observers)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanRegistry()
        self.probes_enabled = bool(self.observers)
        self.timing_enabled = bool(instrument)
        # The serving path emits one QueryServed per query at tens of
        # thousands of qps; registry name lookups per event are a
        # measurable fraction of that budget, so the instruments are
        # resolved once and kept.
        self._query_instruments: (
            tuple[Counter, Counter, Counter, Counter, Counter, Histogram] | None
        ) = None
        self._query_op_counters: dict[str, Counter] = {}
        # Same reasoning for the round loop: a million-node sweep emits
        # one RoundSample per round per instance, and six registry
        # lookups per probe were measurable against a vectorised round.
        self._round_instruments: (
            tuple[Counter, Counter, Counter, Gauge, Gauge, Gauge] | None
        ) = None

    @property
    def enabled(self) -> bool:
        """Whether the hub does anything at all."""
        return self.probes_enabled or self.timing_enabled

    # ------------------------------------------------------------------
    # Event emission (call only when ``probes_enabled``)
    # ------------------------------------------------------------------

    def run_started(self, event: RunStarted) -> None:
        self.metrics.counter("runs_total").inc()
        for observer in self.observers:
            observer.on_run_start(event)

    def instance_started(self, event: InstanceStarted) -> None:
        self.metrics.counter("instances_total").inc()
        for observer in self.observers:
            observer.on_instance_start(event)

    def round_sample(self, event: RoundSample) -> None:
        cached = self._round_instruments
        if cached is None:
            metrics = self.metrics
            cached = self._round_instruments = (
                metrics.counter("rounds_total"),
                metrics.counter("messages_total"),
                metrics.counter("bytes_total"),
                metrics.gauge("weight_sum"),
                metrics.gauge("mass_sum"),
                metrics.gauge("reached"),
            )
        rounds, messages, bytes_, weight, mass, reached = cached
        rounds.inc()
        messages.inc(event.messages)
        bytes_.inc(event.bytes)
        weight.set(event.weight_sum)
        mass.set(event.mass_sum)
        reached.set(event.reached)
        for observer in self.observers:
            observer.on_round(event)

    def instance_completed(self, event: InstanceCompleted) -> None:
        if event.err_avg is not None:
            self.metrics.histogram("instance_err_avg").observe(event.err_avg)
        for observer in self.observers:
            observer.on_instance_end(event)

    def run_completed(self, event: RunCompleted) -> None:
        for observer in self.observers:
            observer.on_run_end(event)

    def query_served(
        self,
        op: str,
        version: int | None,
        cache_hit: bool,
        ok: bool = True,
        error: str | None = None,
        latency_s: float | None = None,
    ) -> None:
        """Record one served query (service query layer), from its fields.

        Unlike the run-lifecycle hooks this updates metrics even with no
        observers attached: the serving path wants hit/miss and latency
        aggregates available from any hub.  It runs once per query at
        tens of thousands of qps, so the counters are bumped in place and
        the :class:`QueryServed` event is only built for an observer.
        """
        cached = self._query_instruments
        if cached is None:
            metrics = self.metrics
            cached = self._query_instruments = (
                metrics.counter("queries_total"),
                metrics.counter("query_cache_hits_total"),
                metrics.counter("query_cache_misses_total"),
                metrics.counter("query_errors_total"),
                metrics.counter("queries_unavailable_total"),
                metrics.histogram("query_latency_s"),
            )
        total, cache_hits, cache_misses, errors, unavailable, latency = cached
        total.value += 1.0
        op_counter = self._query_op_counters.get(op)
        if op_counter is None:
            op_counter = self._query_op_counters[op] = self.metrics.counter(
                f"queries_{op}_total"
            )
        op_counter.value += 1.0
        (cache_hits if cache_hit else cache_misses).value += 1.0
        if not ok:
            errors.value += 1.0
            # Queries rejected because nothing is published (or the
            # requested version was evicted) get their own counter: a
            # restarted service answering "unavailable" is an
            # operational signal distinct from caller mistakes.
            if error == "unavailable":
                unavailable.value += 1.0
        if latency_s is not None:
            latency.observe(latency_s)
        if self.observers:
            event = QueryServed(op, version, cache_hit, ok, error, latency_s)
            for observer in self.observers:
                observer.on_query(event)

    # ------------------------------------------------------------------
    # Profiling spans
    # ------------------------------------------------------------------

    def span(self, name: str) -> AbstractContextManager[None]:
        """A timing span when instrumented, else a free no-op context."""
        if self.timing_enabled:
            return self.spans.span(name)
        return nullcontext()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close all attached observers (owned by whoever built the hub)."""
        for observer in self.observers:
            observer.close()

    def snapshot(self) -> dict[str, object]:
        """Metrics + span aggregates as plain JSON-serialisable data."""
        data = self.metrics.snapshot()
        data["spans"] = self.spans.snapshot()
        return data


#: A shared, permanently disabled hub for default arguments.
NULL_HUB = ObserverHub()
