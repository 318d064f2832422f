"""repro.service — the continuous estimation service.

The paper's end goal is a *standing capability*, not a one-shot
experiment: nodes continuously re-run aggregation instances so that at
any moment an application can ask "what fraction of nodes have >= 2 GB
RAM?".  This package builds that serving layer on top of the three
:func:`repro.api.run` backends:

* **scheduler** (:mod:`repro.service.scheduler`): drives back-to-back
  aggregation cycles, applying the paper's threshold-refinement chain
  (bootstrap then HCut/MinMax/LCut) within each restart cycle, and a
  restart policy triggered by drift detection (estimate-vs-estimate
  divergence or extreme-value change).
* **store** (:mod:`repro.service.store`): immutable, versioned CDF
  snapshots with metadata (cycle id, round count, size estimate,
  self-assessed confidence, staleness clock) and bounded history.
* **query engine** (:mod:`repro.service.query`): ``cdf(x)``,
  ``quantile(q)``, ``fraction_between(a, b)`` and ``network_size()``
  answered from the latest (or a pinned) snapshot by binary search over
  the interpolation polyline, with an LRU cache for repeated point
  queries and per-query metrics through :mod:`repro.obs`.
* **protocol** (:mod:`repro.service.protocol`): the typed query
  protocol — :class:`QueryRequest`/:class:`QueryResponse` (plus batch
  envelopes with partial-failure semantics), the canonical op registry
  mapping wire ops to engine methods, and the :class:`QueryDispatcher`
  every serving surface executes through.
* **frontend**: the in-process :class:`ServiceHandle` here, plus the
  asyncio JSON-over-TCP endpoint in :mod:`repro.net.service_endpoint`
  and the SO_REUSEPORT worker pool in :mod:`repro.net.service_worker`
  (all real sockets stay under the ``repro.net`` ADM008 fence).

Build one with :func:`repro.api.serve` (or :func:`build_service`)::

    from repro.api import serve
    from repro.core.config import Adam2Config
    from repro.workloads import boinc_workload

    handle = serve(Adam2Config(points=30), boinc_workload("ram"),
                   backend="fast", n_nodes=2000, seed=7)
    handle.fraction_between(2048.0, float("inf"))   # >= 2 GB RAM
    handle.refresh()                                 # run another cycle
"""

from repro.service.handle import ServiceHandle, build_service
from repro.service.protocol import (
    OPS,
    BatchRequest,
    BatchResponse,
    QueryDispatcher,
    QueryRequest,
    QueryResponse,
    parse_request,
)
from repro.service.query import QueryEngine
from repro.service.scheduler import (
    ContinuousScheduler,
    SchedulerPolicy,
    estimate_divergence,
)
from repro.service.store import EstimateSnapshot, EstimateStore

__all__ = [
    "OPS",
    "BatchRequest",
    "BatchResponse",
    "ContinuousScheduler",
    "EstimateSnapshot",
    "EstimateStore",
    "QueryDispatcher",
    "QueryEngine",
    "QueryRequest",
    "QueryResponse",
    "SchedulerPolicy",
    "ServiceHandle",
    "build_service",
    "estimate_divergence",
    "parse_request",
]
