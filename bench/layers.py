"""Replay helpers the traced passes share: time a public call per item."""

from __future__ import annotations

import time
from typing import Callable, Sequence

from bench.spec import Outcome
from repro.service import EstimateStore, QueryEngine, QueryRequest, ServiceHandle


def each(fn: Callable[[object], object], items: Sequence[object]) -> tuple[list[float], list]:
    """Time ``fn`` on every item; returns (seconds per call, results)."""
    seconds, results = [], []
    for item in items:
        started = time.perf_counter()
        result = fn(item)
        seconds.append(time.perf_counter() - started)
        results.append(result)
    return seconds, results


def chain(stages: Sequence[Callable[[object], object]], items: Sequence[object]) -> list[list[float]]:
    """Feed every item through ``stages`` in order, timing each stage.

    The children of one step are timed inside one pass over the item, in
    the order the step runs them: timed in separate tight loops they run
    ~1.5x faster than they do in the step (warm code, warm data), and
    the difference would be booked as the step's self time.
    """
    seconds: list[list[float]] = [[] for _ in stages]
    for item in items:
        value = item
        for index, stage in enumerate(stages):
            started = time.perf_counter()
            value = stage(value)
            seconds[index].append(time.perf_counter() - started)
    return seconds


def repeat(fn: Callable[[], object], reps: int) -> list[float]:
    """Time ``reps`` calls of a no-argument ``fn``."""
    return each(lambda _: fn(), range(reps))[0]


def engine_layers(out: Outcome, engine: QueryEngine, pool: Sequence[QueryRequest]) -> None:
    """Hit and miss cost of one engine op, and the polyline searches under it."""
    # Half the cache: a fraction op also inserts its two edge entries,
    # and a set that overflows the LRU would turn the hit pass into misses.
    distinct = list({(r.op, r.args): r for r in pool}.values())[: engine.cache_size // 2]
    engine.clear_cache()
    miss, _ = each(engine.execute, distinct)  # every key new: search + LRU insert
    hit, _ = each(engine.execute, distinct)   # every key cached
    out.p50("service.query.miss_us_p50", miss, 1e6)
    out.p50("service.query.hit_us_p50", hit, 1e6)
    estimate = engine.store.latest().estimate
    points = [r.args[0] for r in distinct if r.op == "cdf"]
    levels = [r.args[0] for r in distinct if r.op == "quantile"]
    out.p50("core.cdf.evaluate_us_p50", each(estimate.evaluate, points)[0], 1e6)
    out.p50("core.cdf.quantile_us_p50", each(estimate.quantile, levels)[0], 1e6)


def store_layers(out: Outcome, handle: ServiceHandle) -> float:
    """Publish cost of a bare store (no persistence attached), in seconds."""
    snapshot = handle.store.latest()
    bare = EstimateStore()
    publish = repeat(lambda: bare.publish(
        snapshot.estimate, backend="bench", n_nodes=snapshot.n_nodes,
        instances=1, rounds=snapshot.rounds), 200)
    return out.p50("service.store.publish_us_p50", publish, 1e6) / 1e6
