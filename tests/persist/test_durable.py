"""DurableEstimateStore: recovery parity, write-behind, degradation."""

from __future__ import annotations

import errno
import json

import pytest

from repro.core.config import Adam2Config
from repro.errors import PersistError
from repro.obs import ObserverHub
from repro.persist import DurableEstimateStore, RetentionPolicy, SnapshotLog
from repro.service import build_service
from repro.service.store import EstimateStore
from repro.workloads.synthetic import uniform_workload

from tests.persist.conftest import make_snapshot


def publish(store: EstimateStore, *, offset: float = 0.0) -> None:
    template = make_snapshot(offset=offset)
    store.publish(
        template.estimate,
        backend=template.backend,
        n_nodes=template.n_nodes,
        instances=template.instances,
        rounds=template.rounds,
        size_estimate=template.size_estimate,
        published_tick=store.published_total + 1,
    )


def polylines(store: EstimateStore) -> dict[int, bytes]:
    out = {}
    for version in store.versions():
        xs, ys = store.get(version).estimate.polyline()
        out[version] = xs.tobytes() + ys.tobytes()
    return out


class TestRecoveryParity:
    def test_restart_recovers_identical_snapshots(self, tmp_path):
        first = EstimateStore(max_history=16)
        with DurableEstimateStore(first, SnapshotLog(tmp_path)) as durable:
            for offset in (0.0, 1.5, 3.0):
                publish(first, offset=offset)
            assert durable.restarts == 1
            assert durable.recovered_snapshots == 0
            before = polylines(first)

        second = EstimateStore(max_history=16)
        recovered = DurableEstimateStore(second, SnapshotLog(tmp_path))
        # The contract: bit-identical, not numerically close.
        assert polylines(second) == before
        assert second.latest().version == first.latest().version
        assert recovered.recovered_snapshots == 3
        assert recovered.restarts == 2
        assert recovered.corrupt_records == 0
        assert recovered.truncated_bytes == 0
        recovered.close()

    def test_version_counter_resumes_past_recovery(self, tmp_path):
        first = EstimateStore()
        with DurableEstimateStore(first, SnapshotLog(tmp_path)):
            publish(first)
            publish(first)
        second = EstimateStore()
        with DurableEstimateStore(second, SnapshotLog(tmp_path)):
            publish(second)
            assert second.latest().version == 3

    def test_restart_counter_survives_many_generations(self, tmp_path):
        for generation in range(1, 5):
            store = EstimateStore()
            with DurableEstimateStore(store, SnapshotLog(tmp_path)) as durable:
                assert durable.restarts == generation
                publish(store)

    def test_corruption_is_surfaced_not_fatal(self, tmp_path):
        store = EstimateStore()
        with DurableEstimateStore(store, SnapshotLog(tmp_path)):
            publish(store)
            publish(store)
        (path,) = SnapshotLog(tmp_path).segment_paths()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip the final payload byte
        path.write_bytes(bytes(data))
        fresh = EstimateStore()
        durable = DurableEstimateStore(fresh, SnapshotLog(tmp_path))
        assert durable.recovered_snapshots == 1
        assert durable.corrupt_records == 1
        assert fresh.versions() == [1]
        durable.close()

    def test_recovery_clock_is_injectable(self, tmp_path):
        ticks = iter([10.0, 10.25, 99.0])
        durable = DurableEstimateStore(
            EstimateStore(),
            SnapshotLog(tmp_path),
            clock=lambda: next(ticks),
        )
        assert durable.recovery_s == 0.25
        durable.close()


class TestWriteBehind:
    def test_publish_counters(self, tmp_path):
        hub = ObserverHub()
        store = EstimateStore()
        with DurableEstimateStore(store, SnapshotLog(tmp_path), hub=hub):
            publish(store)
            publish(store)
        metrics = hub.metrics
        assert metrics.counter("persist_snapshots_written_total").snapshot() == 2
        assert metrics.counter("persist_bytes_written_total").snapshot() > 0
        assert metrics.counter("persist_restarts_total").snapshot() == 1
        assert metrics.counter("persist_write_errors_total").snapshot() == 0
        assert metrics.counter("persist_snapshots_recovered_total").snapshot() == 0

    def test_recovery_counters(self, tmp_path):
        store = EstimateStore()
        with DurableEstimateStore(store, SnapshotLog(tmp_path)):
            publish(store)
        hub = ObserverHub()
        with DurableEstimateStore(EstimateStore(), SnapshotLog(tmp_path), hub=hub):
            pass
        metrics = hub.metrics
        assert metrics.counter("persist_snapshots_recovered_total").snapshot() == 1
        assert metrics.gauge("persist_recovery_s").snapshot() >= 0.0
        assert metrics.gauge("persist_segments").snapshot() >= 1.0

    def test_disk_failure_degrades_durability_not_serving(self, tmp_path, monkeypatch):
        hub = ObserverHub()
        store = EstimateStore()
        durable = DurableEstimateStore(store, SnapshotLog(tmp_path), hub=hub)

        def explode(snapshot):
            raise PersistError("disk on fire")

        monkeypatch.setattr(durable.log, "append_snapshot", explode)
        publish(store)  # must not raise through the subscriber
        assert store.latest().version == 1  # serving path intact
        assert durable.write_errors == 1
        assert (
            hub.metrics.counter("persist_write_errors_total").snapshot() == 1
        )
        assert durable.info()["write_errors"] == 1
        durable.close()

    def test_close_detaches_from_the_feed(self, tmp_path):
        store = EstimateStore()
        durable = DurableEstimateStore(store, SnapshotLog(tmp_path))
        publish(store)
        durable.close()
        publish(store)  # after close: not logged
        assert len(SnapshotLog(tmp_path).recover().snapshots) == 1


class TestCompaction:
    def test_automatic_compaction_applies_retention(self, tmp_path):
        hub = ObserverHub()
        store = EstimateStore(max_history=32)
        durable = DurableEstimateStore(
            store,
            SnapshotLog(tmp_path, max_segment_bytes=600),
            retention=RetentionPolicy(keep_last=2, base=2),
            compact_every=4,
            hub=hub,
        )
        for _ in range(8):
            publish(store)
        assert hub.metrics.counter("persist_compactions_total").snapshot() >= 1
        assert hub.metrics.counter("persist_snapshots_retired_total").snapshot() > 0
        durable.close()
        recovered = SnapshotLog(tmp_path).recover()
        logged = {s.version for s in recovered.snapshots}
        assert {7, 8} <= logged  # keep_last window intact
        assert len(logged) < 8  # old generations thinned
        assert recovered.restarts == 1  # marker survives the rewrite

    def test_pinned_version_survives_compaction(self, tmp_path):
        store = EstimateStore(max_history=32)
        durable = DurableEstimateStore(
            store,
            SnapshotLog(tmp_path),
            retention=RetentionPolicy(keep_last=1, base=2),
            compact_every=0,
        )
        for _ in range(10):
            publish(store)
        store.pin(2)
        durable.compact()
        durable.close()
        logged = {s.version for s in SnapshotLog(tmp_path).recover().snapshots}
        assert 2 in logged
        assert 10 in logged
        assert 5 not in logged

    def test_compact_every_zero_disables_automatic_compaction(self, tmp_path):
        hub = ObserverHub()
        store = EstimateStore(max_history=32)
        with DurableEstimateStore(
            store, SnapshotLog(tmp_path), compact_every=0, hub=hub
        ):
            for _ in range(6):
                publish(store)
        assert hub.metrics.counter("persist_compactions_total").snapshot() == 0
        assert len(SnapshotLog(tmp_path).recover().snapshots) == 6

    def test_failed_compaction_does_not_take_the_serving_path_down(
        self, tmp_path, monkeypatch
    ):
        """Disk full while compacting: the cycle returns, later subscribers
        (the worker pool's feed) see the version, the failure is counted,
        and the next publish retries the compaction."""
        hub = ObserverHub()
        handle = build_service(
            Adam2Config(points=8, rounds_per_instance=15),
            uniform_workload(0, 1000),
            backend="fast", n_nodes=200, seed=3, hub=hub,
            store_dir=tmp_path, compact_every=2,
        )
        with handle:
            later: list[int] = []
            handle.store.subscribe(lambda snapshot: later.append(snapshot.version))

            def disk_full(src, dst):
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr("repro.persist.log.os.replace", disk_full)
            snapshot = handle.scheduler.run_cycle()  # the due compaction fails
            assert snapshot.version == 2
            assert handle.store.latest().version == 2
            assert 0.0 <= handle.cdf(500.0) <= 1.0
            assert later == [2]
            counters = hub.metrics
            assert counters.counter("persist_write_errors_total").snapshot() == 1
            assert counters.counter("persist_compactions_total").snapshot() == 0
            assert handle.status()["persistence"]["write_errors"] == 1

            monkeypatch.undo()
            handle.scheduler.run_cycle()
            assert later == [2, 3]
            assert counters.counter("persist_compactions_total").snapshot() == 1
            assert counters.counter("persist_write_errors_total").snapshot() == 1
        logged = [s.version for s in SnapshotLog(tmp_path).recover().snapshots]
        assert logged == [1, 2, 3]  # nothing lost to the failed attempt

    def test_negative_compact_every_rejected(self, tmp_path):
        with pytest.raises(PersistError, match="compact_every"):
            DurableEstimateStore(
                EstimateStore(), SnapshotLog(tmp_path), compact_every=-1
            )


class TestInfo:
    def test_info_is_json_serialisable_and_complete(self, tmp_path):
        store = EstimateStore()
        with DurableEstimateStore(store, SnapshotLog(tmp_path)) as durable:
            publish(store)
            info = json.loads(json.dumps(durable.info()))
        assert info["restarts"] == 1
        assert info["fsync"] == "rotate"
        assert info["segments"] == 1
        assert info["size_bytes"] > 0
        assert info["retention"] == {"keep_last": 8, "base": 2}
        assert set(info) == {
            "root", "fsync", "restarts", "recovered_snapshots", "recovery_s",
            "corrupt_records", "truncated_bytes", "write_errors", "segments",
            "size_bytes", "retention",
        }
