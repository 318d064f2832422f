"""repro.obs — structured observability for every simulation backend.

The subsystem has four layers, composed by :class:`ObserverHub`:

* **events** (:mod:`repro.obs.events`): frozen dataclasses describing the
  run lifecycle (``run > instance > round``) plus per-round protocol
  probes (mass sum, weight sum, convergence rate, message/byte counts).
* **metrics** (:mod:`repro.obs.metrics`): counters, gauges and histograms
  aggregated across a run, snapshotable to plain JSON.
* **spans** (:mod:`repro.obs.spans`): hierarchical wall-clock timing
  (``run / instance / round / exchange``) for profiling; disabled by
  default so simulated time stays decoupled from the host clock.
* **sinks** (:mod:`repro.obs.sinks`): ready-made observers — in-memory
  capture, JSONL trace files, and a stdout summary.

Engines accept an :class:`ObserverHub`; with no observers attached the
hub is disabled and instrumentation costs a single branch per round.
"""

from repro.obs.events import (
    Event,
    InstanceCompleted,
    InstanceStarted,
    QueryServed,
    RoundSample,
    RunCompleted,
    RunStarted,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import NULL_HUB, ObserverHub, RunObserver
from repro.obs.profile import peak_rss_bytes
from repro.obs.sinks import JsonlSink, MemorySink, StdoutSummarySink
from repro.obs.spans import QUERY_SPAN, SpanRegistry, SpanStats, wall_clock

__all__ = [
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "InstanceCompleted",
    "InstanceStarted",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_HUB",
    "ObserverHub",
    "QUERY_SPAN",
    "QueryServed",
    "RoundSample",
    "RunCompleted",
    "RunObserver",
    "RunStarted",
    "SpanRegistry",
    "SpanStats",
    "StdoutSummarySink",
    "peak_rss_bytes",
    "wall_clock",
]
