"""``serve_refresh``: writes beside reads on a durable in-process service.

One durable ``ServiceHandle`` (snapshot log under ``.bench_tmp/`` in the
checkout, ``fsync="rotate"``): each step publishes a fresh estimate —
which bumps the version (cold LRU), feeds the write-behind log and,
every ``compact_every`` publishes, a compaction — then answers a block
of typed queries through ``QueryDispatcher.dispatch``.  Afterwards the
service is closed and rebuilt from its log ``restarts`` times; each
rebuild, up to its first answered query, is one set-up sample (the very
first build has nothing to recover and is not one).  Every
reply is checked against a cache-less oracle engine over a plain store
that adopted the same snapshots.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench.layers import each, engine_layers, repeat
from bench.measure import ROOT, median, peak_rss_mb
from bench.queries import count_wrong, oracle_values, query_pool
from bench.spec import Outcome
from repro.core.cdf import EstimatedCDF
from repro.core.config import Adam2Config
from repro.obs import ObserverHub, RunObserver
from repro.persist import DurableEstimateStore
from repro.persist.codec import decode_snapshot, encode_snapshot
from repro.persist.log import SnapshotLog
from repro.rngs import make_rng
from repro.service import (
    EstimateSnapshot,
    EstimateStore,
    QueryDispatcher,
    QueryEngine,
    QueryRequest,
    ServiceHandle,
    build_service,
)
from repro.workloads import boinc_workload
from repro.workloads.base import AttributeWorkload


def estimates(seed: int, count: int, workload: AttributeWorkload, n: int, points: int) -> list[EstimatedCDF]:
    """``count`` distinct estimates, each the ``points``-quantile polyline of a fresh sample."""
    rng = make_rng(seed)
    made = []
    for _ in range(count):
        values = np.sort(workload.sample(n, rng))
        thresholds = np.unique(np.quantile(values, np.linspace(0.01, 0.99, points)))
        fractions = np.searchsorted(values, thresholds, side="right") / n
        made.append(EstimatedCDF(
            thresholds, fractions, float(values[0]), float(values[-1]), system_size=float(n)))
    return made


@dataclass
class _Phase:
    publish: list[float] = field(default_factory=list)
    blocks: list[float] = field(default_factory=list)
    #: (step, publish start, publish end = block start, block end)
    marks: list[tuple[int, float, float, float]] = field(default_factory=list)
    cpu: float = 0.0
    ops: int = 0
    #: bytes the write-behind log took, and the engine's cache counters, at phase end
    written: int = 0
    cache: dict[str, int] = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return sum(self.publish) + sum(self.blocks)


class _PublishProbe:
    """A durable publish's children, timed where the publish runs.

    Called once per step right after the measured region, so the bare
    publish and the log append run as cold as the real publish did (a
    tight loop of 200 appends is ~4x faster than one append after 512
    queries, and the gap would be booked as the store's self time).
    """

    def __init__(self, directory: str, fsync: str) -> None:
        self.bare = EstimateStore()
        self.log = SnapshotLog(directory, fsync=fsync)
        self.publish: list[float] = []
        self.append: list[float] = []

    def sample(self, snapshot: EstimateSnapshot) -> None:
        t0 = time.perf_counter()
        self.bare.publish(
            snapshot.estimate, backend=snapshot.backend, n_nodes=snapshot.n_nodes,
            instances=snapshot.instances, rounds=snapshot.rounds,
            size_estimate=snapshot.size_estimate, published_tick=snapshot.published_tick,
        )
        t1 = time.perf_counter()
        self.log.append_snapshot(snapshot)
        self.publish.append(t1 - t0)
        self.append.append(time.perf_counter() - t1)


def run(params: dict, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    cfg = Adam2Config(**params["config"])
    workload = boinc_workload(str(params["attribute"]))
    n = int(params["n_nodes"])
    pool = query_pool(seed, int(params["pool"]), workload)
    order = make_rng(seed + 1).integers(
        0, len(pool), size=(64, int(params["queries_per_publish"])))
    blocks = [[pool[k] for k in row] for row in order.tolist()]
    fresh = estimates(seed + 2, int(params["estimates"]), workload, n, cfg.points)

    oracle_store = EstimateStore()
    oracle = QueryEngine(oracle_store, cache_size=0)
    setups: list[float] = []
    recoveries: list[float] = []
    # Everything this run writes lives in one directory of its own under
    # the shared ``.bench_tmp/``, so concurrent runs cannot remove each
    # other's live logs.
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="refresh-", dir=scratch))
    store_dir = str(run_dir / "store")

    def build(observed: bool) -> tuple[ServiceHandle, QueryDispatcher]:
        """One set-up: (re)build the durable service up to its first answer."""
        started = time.perf_counter()
        hub = ObserverHub([RunObserver()] if observed else ())
        # No warm-up cycle: this workload publishes its own estimates, and
        # a simulation's transient matrices (their size follows the
        # sample's maximum) would make peak RSS a function of the seed.
        handle = build_service(
            cfg, workload, n_nodes=n, seed=seed, hub=hub, store_dir=store_dir,
            fsync=str(params["fsync"]), compact_every=int(params["compact_every"]),
            warm_cycles=0, options=dict(params["options"]),
        )
        assert handle.persistence is not None
        if handle.persistence.recovered_snapshots:
            first = handle.engine.execute(QueryRequest.network_size())
            setups.append(time.perf_counter() - started)
            out.check(first.ok, f"first query after a rebuild failed: {first.message}")
            recoveries.append(handle.persistence.recovery_s)
        return handle, QueryDispatcher(handle.engine, handle, hub=hub)

    def check_block(block: list[QueryRequest], replies: list) -> None:
        expected = oracle_values(oracle, block)
        out.count_ops(len(block), count_wrong(expected, range(len(block)), replies),
                      "replies differ from the oracle")

    def steps(
        handle: ServiceHandle, dispatcher: QueryDispatcher, budget: float, first: int,
        probe: _PublishProbe | None = None,
    ) -> _Phase:
        phase = _Phase()
        started = time.perf_counter()
        step = first
        while step - first < int(params["min_publishes"]) or time.perf_counter() - started < budget:
            estimate = fresh[step % len(fresh)]
            block = blocks[step % len(blocks)]
            cpu_started = time.process_time()
            t0 = time.perf_counter()
            snapshot = handle.store.publish(
                estimate, backend="bench", n_nodes=n, instances=1,
                rounds=cfg.rounds_per_instance, size_estimate=estimate.system_size,
                published_tick=step,
            )
            t1 = time.perf_counter()
            replies = [dispatcher.dispatch(request) for request in block]
            t2 = time.perf_counter()
            phase.cpu += time.process_time() - cpu_started
            phase.publish.append(t1 - t0)
            phase.blocks.append(t2 - t1)
            phase.marks.append((step, t0, t1, t2))
            phase.ops += len(block)
            if probe is not None:
                probe.sample(snapshot)
            oracle_store.adopt(snapshot)
            check_block(block, replies)
            step += 1
        counters = handle.hub.metrics.snapshot()["counters"]
        phase.written = int(counters.get("persist_bytes_written_total", 0))
        phase.cache = handle.engine.cache_info()
        return phase

    try:
        handle, dispatcher = build(observed=False)
        budget = seconds / 2 if trace else seconds
        probe = _PublishProbe(str(run_dir / "probe"), str(params["fsync"])) if trace else None
        plain = steps(handle, dispatcher, budget, 0, probe)
        if trace:
            # Rows come from the unobserved half above; a rebuilt handle
            # with an observer attached only prices the hub.
            handle.close()
            handle, dispatcher = build(observed=True)
            observed = steps(handle, dispatcher, budget, len(plain.publish))
            out.put("obs.trace_overhead_pct",
                    ((observed.busy / observed.ops) / (plain.busy / plain.ops) - 1.0) * 100.0,
                    observed.ops + plain.ops)
        assert handle.persistence is not None
        out.check(handle.persistence.write_errors == 0,
                  f"{handle.persistence.write_errors} snapshot appends failed")

        # The recovery path: close, rebuild from the log, serve at once.
        version = handle.store.latest().version
        for _ in range(int(params["restarts"])):
            handle.close()
            handle, dispatcher = build(observed=False)
            recovered = handle.store.latest().version
            out.check(recovered == version, f"recovered version {recovered}, published {version}")
            check_block(blocks[0], [dispatcher.dispatch(r) for r in blocks[0]])

        if trace:
            assert probe is not None
            probe.log.close()
            out.extra["spans"] = [
                {"name": name, "id": step, "parent": None, "start": start, "end": end}
                for step, t0, t1, t2 in plain.marks[:1000]
                for name, start, end in (("publish", t0, t1), ("dispatch_block", t1, t2))
            ]
            _layers(out, params, handle, pool, blocks, plain, probe, recoveries,
                    str(run_dir / "compact"))
        else:
            out.p50("setup_s", setups, 1.0)
            out.put("throughput_per_s", plain.ops / plain.busy, plain.ops)
            out.put("cpu_us_per_unit", plain.cpu * 1e6 / plain.ops, plain.ops)
            # One refresh as a reader sees it: the publish and the block
            # of reads behind it (cold LRU; every 6th carries a compaction).
            refresh = [p + b for p, b in zip(plain.publish, plain.blocks)]
            out.p50("latency_ms_p50", refresh, 1e3)
            out.tail("latency_ms_tail", refresh, 1e3, 90.0)
            out.put("peak_rss_mb", peak_rss_mb())
        handle.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return out


def _layers(
    out: Outcome, params: dict, handle: ServiceHandle, pool: list[QueryRequest],
    blocks: list[list[QueryRequest]], phase: _Phase, probe: _PublishProbe,
    recoveries: list[float], compact_dir: str,
) -> None:
    snapshot = handle.store.latest()

    # Publish with write-behind attached = bare publish + log append
    # (which encodes), + a compaction every ``compact_every`` publishes,
    # which the p90 sees and the p50 does not.
    publish = out.p50("persist.store.publish_us_p50", phase.publish, 1e6) / 1e6
    out.tail("persist.store.publish_us_p90", phase.publish, 1e6, 90.0)
    bare = out.p50("service.store.publish_us_p50", probe.publish, 1e6) / 1e6
    append_s = out.p50("persist.log.append_us_p50", probe.append, 1e6) / 1e6
    encode, payloads = each(encode_snapshot, [snapshot] * 200)
    out.p50("persist.codec.encode_us_p50", encode, 1e6)
    out.p50("persist.codec.decode_us_p50", each(decode_snapshot, payloads)[0], 1e6)
    out.put("persist.codec.snapshot_bytes", len(payloads[0]), len(payloads))

    # Compaction as the service runs it: version scan, retention, rewrite.
    store = EstimateStore()
    durable = DurableEstimateStore(
        store, SnapshotLog(compact_dir, fsync=str(params["fsync"])), compact_every=0)
    compact = []
    for _ in range(10):
        for _ in range(int(params["compact_every"])):
            store.publish(snapshot.estimate, backend="bench", n_nodes=snapshot.n_nodes,
                          instances=1, rounds=snapshot.rounds)
        compact.extend(repeat(durable.compact, 1))
    durable.close()
    out.p50("persist.log.compact_ms_p50", compact, 1e3)
    out.p50("persist.log.recover_ms_p50", recoveries, 1e3)
    out.put("persist.log.bytes_written", phase.written, len(phase.publish))
    assert handle.persistence is not None
    out.put("persist.store.write_errors", handle.persistence.write_errors, len(phase.publish))
    out.put("persist.store.publish_self_us_p50", (publish - bare - append_s) * 1e6,
            len(phase.publish))
    out.put("persist.store.children_share", (bare + append_s) / publish, len(phase.publish))

    # One block of reads: dispatch = engine execute + protocol self time.
    engine = QueryEngine(handle.store, cache_size=handle.engine.cache_size)
    dispatcher = QueryDispatcher(engine, handle)
    flat = [request for block in blocks[:8] for request in block]
    engine.clear_cache()
    dispatch, _ = each(dispatcher.dispatch, flat)
    engine.clear_cache()
    execute, _ = each(engine.execute, flat)
    out.put("service.protocol.dispatch_self_us_p50",
            (median(dispatch) - median(execute)) * 1e6, len(flat))
    out.p50("service.query.execute_us_p50", execute, 1e6)
    hits, misses = phase.cache["hits"], phase.cache["misses"]
    out.put("service.query.hits", hits, hits + misses)
    out.put("service.query.misses", misses, hits + misses)
    out.put("service.query.cache_hit_ratio", hits / max(hits + misses, 1), hits + misses)
    engine_layers(out, engine, pool)
