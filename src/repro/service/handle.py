"""The in-process service frontend: one object tying the layers together.

:class:`ServiceHandle` composes a :class:`ContinuousScheduler`, its
:class:`EstimateStore` and a :class:`QueryEngine` behind one facade —
the in-process twin of the TCP endpoint in
:mod:`repro.net.service_endpoint` (both speak the same operations, so a
client can move between them without code changes).  Build one with
:func:`build_service` or :func:`repro.api.serve`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.config import Adam2Config
from repro.errors import ServiceError
from repro.obs import NULL_HUB, ObserverHub, wall_clock
from repro.service.query import QueryEngine
from repro.service.scheduler import ContinuousScheduler, SchedulerPolicy
from repro.service.store import EstimateSnapshot, EstimateStore
from repro.workloads.base import AttributeWorkload
from repro.workloads.dynamic import DriftModel

if TYPE_CHECKING:  # runtime import stays lazy (repro.persist imports this package)
    from repro.persist import DurableEstimateStore, RetentionPolicy

__all__ = ["ServiceHandle", "build_service"]


class ServiceHandle:
    """Queries plus lifecycle control over one continuous service.

    ``persistence`` is the optional
    :class:`~repro.persist.DurableEstimateStore` write-behind attachment
    (built by :func:`build_service` when given a ``store_dir``): with it,
    every published snapshot lands in an append-only log and a restarted
    service recovers its history before serving — :meth:`close` detaches
    and seals the log.
    """

    def __init__(
        self,
        scheduler: ContinuousScheduler,
        store: EstimateStore,
        engine: QueryEngine,
        hub: ObserverHub = NULL_HUB,
        persistence: "DurableEstimateStore | None" = None,
    ) -> None:
        self.scheduler = scheduler
        self.store = store
        self.engine = engine
        self.hub = hub
        self.persistence = persistence

    # -- queries (delegated to the engine, with its cache + metrics) ----

    def cdf(self, x: float, *, version: int | None = None) -> float:
        """Estimated fraction of nodes with attribute value <= ``x``."""
        return self.engine.cdf(x, version=version)

    def quantile(self, q: float, *, version: int | None = None) -> float:
        """Smallest attribute value at estimated CDF level ``q``."""
        return self.engine.quantile(q, version=version)

    def fraction_between(
        self, a: float, b: float, *, version: int | None = None
    ) -> float:
        """Estimated fraction of nodes with attribute in ``(a, b]``."""
        return self.engine.fraction_between(a, b, version=version)

    def network_size(self, *, version: int | None = None) -> float:
        """The protocol's own estimate of the population size."""
        return self.engine.network_size(version=version)

    # -- lifecycle ------------------------------------------------------

    def refresh(self, cycles: int = 1) -> EstimateSnapshot:
        """Run more scheduler cycle(s); returns the newest snapshot."""
        snapshots = self.scheduler.run_cycles(cycles)
        return snapshots[-1] if snapshots else self.store.latest()

    def pin(self, version: int) -> EstimateSnapshot:
        """Protect a retained snapshot version from eviction."""
        return self.store.pin(version)

    def unpin(self, version: int) -> None:
        """Release a pinned version."""
        self.store.unpin(version)

    def close(self) -> None:
        """Release owned resources (detach + seal the snapshot log)."""
        if self.persistence is not None:
            self.persistence.close()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection --------------------------------------------------

    def status(self) -> dict[str, object]:
        """One JSON-serialisable view of the whole service."""
        tick = self.scheduler.tick
        try:
            newest = self.store.latest()
            latest: dict[str, object] | None = newest.meta()
            staleness: int | None = newest.staleness(tick)
        except ServiceError:
            latest, staleness = None, None
        return {
            "backend": self.scheduler.backend,
            "n_nodes": self.scheduler.n_nodes,
            "tick": tick,
            "restart_pending": self.scheduler.restart_pending,
            "latest": latest,
            "staleness": staleness,
            "versions": self.store.versions(),
            "pinned": self.store.pinned(),
            "cache": self.engine.cache_info(),
            "persistence": (
                self.persistence.info() if self.persistence is not None else None
            ),
        }

    def history(self) -> list[dict[str, object]]:
        """Metadata of every retained snapshot, oldest first."""
        return self.store.history()

    def metrics(self) -> dict[str, object]:
        """The hub's metrics/spans snapshot (queries, cycles, latency)."""
        return self.hub.snapshot()


def build_service(
    config: Adam2Config,
    workload: AttributeWorkload,
    *,
    backend: str = "fast",
    n_nodes: int = 1000,
    seed: int = 0,
    policy: SchedulerPolicy | None = None,
    drift: DriftModel | None = None,
    max_history: int = 8,
    cache_size: int = 1024,
    hub: ObserverHub = NULL_HUB,
    clock: Callable[[], float] = wall_clock,
    warm_cycles: int = 1,
    store_dir: str | os.PathLike[str] | None = None,
    fsync: str = "rotate",
    retention: "RetentionPolicy | None" = None,
    compact_every: int = 64,
    options: Mapping[str, object] | None = None,
) -> ServiceHandle:
    """Assemble a service and (by default) warm it with one cycle.

    Args:
        config: protocol parameters for every cycle.
        workload: initial population source (the scheduler owns the
            values afterwards; ``drift`` evolves them between cycles).
        backend: facade backend (``fast``/``async``/``net``).
        n_nodes: population size.
        seed: master seed — cycles and drift derive from it.
        policy: scheduler knobs (default :class:`SchedulerPolicy`).
        drift: optional between-cycle population drift.
        max_history: snapshot versions the store retains.
        cache_size: query LRU entries (0 disables caching).
        hub: observability hub shared by scheduler and query engine.
        clock: latency/staleness clock (injectable for tests).
        warm_cycles: cycles to run before returning, so the handle can
            answer queries immediately; 0 returns a cold service.  When
            ``store_dir`` recovery yields at least one snapshot, warming
            is skipped — the recovered history answers the first query
            without waiting on a fresh cycle.
        store_dir: directory for the durable snapshot log; ``None``
            (the default) serves purely in-memory.  Setting it attaches
            a :class:`~repro.persist.DurableEstimateStore`: recovery
            runs *before* warm-up, so a restarted service serves the
            last durably published estimate instantly.
        fsync: snapshot-log durability policy
            (``always``/``rotate``/``never``; only with ``store_dir``).
        retention: time-faded compaction policy for the log (default
            :class:`~repro.persist.RetentionPolicy`).
        compact_every: appended snapshots between compaction passes;
            ``0`` disables automatic compaction.
        options: backend-specific options for every cycle's run.
    """
    store = EstimateStore(max_history=max_history)
    persistence: "DurableEstimateStore | None" = None
    if store_dir is not None:
        # Late import: repro.persist imports this package, so a
        # module-level import here would be circular.
        from repro.persist import DurableEstimateStore
        from repro.persist.log import SnapshotLog

        log = SnapshotLog(store_dir, fsync=fsync)
        persistence = DurableEstimateStore(
            store,
            log,
            retention=retention,
            compact_every=compact_every,
            hub=hub,
            clock=clock,
        )
    scheduler = ContinuousScheduler(
        config,
        workload,
        store,
        backend=backend,
        n_nodes=n_nodes,
        seed=seed,
        policy=policy,
        drift=drift,
        hub=hub,
        options=options,
    )
    engine = QueryEngine(store, cache_size=cache_size, hub=hub, clock=clock)
    handle = ServiceHandle(
        scheduler, store, engine, hub=hub, persistence=persistence
    )
    if persistence is not None and persistence.recovered_snapshots > 0:
        warm_cycles = 0  # recovered history serves the first query
    if warm_cycles > 0:
        scheduler.run_cycles(warm_cycles)
    return handle
