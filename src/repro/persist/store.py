"""The write-behind durable wrapper over a live ``EstimateStore``.

:class:`DurableEstimateStore` subscribes to an
:class:`~repro.service.store.EstimateStore`'s snapshot feed — the same
feed the multi-worker serving pool replicates from — and appends every
published snapshot to a :class:`~repro.persist.log.SnapshotLog`.  On
construction it *recovers*: every usable snapshot on disk is adopted
back into the in-memory store (adoption is idempotent and re-orders by
version), a restart marker is appended, and the service can answer its
first query instantly with the last durably published estimate.

Persistence is write-behind on the *publish* path: queries never touch
the log, and a publish costs one codec encode plus one buffered append
(plus an fsync under the ``"always"`` policy).  Periodically — every
``compact_every`` appended snapshots — the time-faded
:class:`~repro.persist.retention.RetentionPolicy` is applied and the
sealed segments rewritten; versions pinned in the wrapped store are
exempt from thinning.

The wrapper never constructs or mutates snapshots itself (ADM011 is
enforced on this module like any other): it moves immutable snapshots
between the log and the store.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import PersistError
from repro.obs import NULL_HUB, ObserverHub, wall_clock
from repro.persist.log import SnapshotLog
from repro.persist.retention import RetentionPolicy
from repro.service.store import EstimateSnapshot, EstimateStore

__all__ = ["DurableEstimateStore"]


class DurableEstimateStore:
    """Durability for one live store: recover on start, log every publish.

    Args:
        store: the live store the scheduler publishes into.
        log: the snapshot log to recover from and write behind to.
        retention: time-faded compaction policy.
        compact_every: appended snapshots between compaction passes;
            ``0`` disables automatic compaction.
        hub: observability hub for the ``persist_*`` counters/gauges.
        clock: recovery-time clock (injectable for deterministic tests).
    """

    def __init__(
        self,
        store: EstimateStore,
        log: SnapshotLog,
        *,
        retention: RetentionPolicy | None = None,
        compact_every: int = 64,
        hub: ObserverHub = NULL_HUB,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        if compact_every < 0:
            raise PersistError("compact_every must be >= 0")
        self.store = store
        self.log = log
        self.retention = retention if retention is not None else RetentionPolicy()
        self.compact_every = compact_every
        self.hub = hub
        self._clock = clock
        self._lock = threading.Lock()
        self._since_compaction = 0
        self._write_errors = 0

        started = self._clock()
        recovered = log.recover()
        for snapshot in recovered.snapshots:
            store.adopt(snapshot)
        self.restarts = recovered.restarts + 1
        log.append_restart(self.restarts)
        self.recovered_snapshots = len(recovered.snapshots)
        self.corrupt_records = recovered.corrupt_records
        self.truncated_bytes = recovered.truncated_bytes
        self.recovery_s = float(self._clock() - started)

        metrics = hub.metrics
        metrics.counter("persist_snapshots_recovered_total").inc(
            self.recovered_snapshots
        )
        metrics.counter("persist_records_corrupt_total").inc(self.corrupt_records)
        metrics.counter("persist_bytes_truncated_total").inc(self.truncated_bytes)
        metrics.counter("persist_restarts_total").inc()
        metrics.gauge("persist_recovery_s").set(self.recovery_s)
        metrics.gauge("persist_segments").set(float(len(log.segment_paths())))

        store.subscribe(self._on_publish)

    # ------------------------------------------------------------------
    # The write-behind path
    # ------------------------------------------------------------------

    def _on_publish(self, snapshot: EstimateSnapshot) -> None:
        """Store subscriber: append one published snapshot to the log.

        A failing disk must not take the serving path down with it —
        a failed append or a failed compaction is counted and the
        service keeps publishing in-memory (durability degrades,
        availability does not).  A failed compaction stays due, so the
        next publish retries it.
        """
        metrics = self.hub.metrics
        try:
            with self._lock:
                written = self.log.append_snapshot(snapshot)
                self._since_compaction += 1
                due = (
                    self.compact_every > 0
                    and self._since_compaction >= self.compact_every
                )
            metrics.counter("persist_snapshots_written_total").inc()
            metrics.counter("persist_bytes_written_total").inc(written)
            if due:
                self.compact()
        except PersistError:
            with self._lock:
                self._write_errors += 1
            metrics.counter("persist_write_errors_total").inc()

    def compact(self) -> int:
        """Apply the retention policy now; returns snapshots dropped."""
        with self._lock:
            keep = self.retention.retained(
                self._logged_versions(), self.store.pinned()
            )
            dropped = self.log.compact(keep, restarts=self.restarts)
            self._since_compaction = 0
        metrics = self.hub.metrics
        metrics.counter("persist_compactions_total").inc()
        metrics.counter("persist_snapshots_retired_total").inc(dropped)
        metrics.gauge("persist_segments").set(
            float(len(self.log.segment_paths()))
        )
        return dropped

    def _logged_versions(self) -> list[int]:
        return [snapshot.version for snapshot in self.log]

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Detach from the store feed and seal the log."""
        self.store.unsubscribe(self._on_publish)
        with self._lock:
            self.log.close()

    def __enter__(self) -> "DurableEstimateStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def write_errors(self) -> int:
        """Appends and automatic compactions that failed (durability
        degraded, serving intact)."""
        with self._lock:
            return self._write_errors

    def info(self) -> dict[str, object]:
        """JSON-serialisable persistence status for ``/status`` surfaces."""
        return {
            "root": str(self.log.root),
            "fsync": self.log.fsync,
            "restarts": self.restarts,
            "recovered_snapshots": self.recovered_snapshots,
            "recovery_s": self.recovery_s,
            "corrupt_records": self.corrupt_records,
            "truncated_bytes": self.truncated_bytes,
            "write_errors": self.write_errors,
            "segments": len(self.log.segment_paths()),
            "size_bytes": self.log.size_bytes(),
            "retention": {
                "keep_last": self.retention.keep_last,
                "base": self.retention.base,
            },
        }
