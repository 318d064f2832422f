"""Query generation and the oracle every serve workload checks against.

The query pool is a pure function of the seed: an equal mix of the four
ops (``cdf``/``quantile``/``fraction``/``size``) with arguments drawn
from the attribute's own distribution, so they land where the polyline
has structure.  The oracle is an in-process ``QueryEngine`` with caching
off, over a store holding the same snapshots the program under test
serves; a reply is wrong when it is not ``ok`` or differs from the
oracle's by more than ``TOLERANCE``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.rngs import make_rng
from repro.service import QueryEngine, QueryRequest, QueryResponse
from repro.workloads.base import AttributeWorkload

TOLERANCE = 1e-12


def query_pool(seed: int, size: int, workload: AttributeWorkload) -> list[QueryRequest]:
    """``size`` typed requests; key ``i`` uses op ``i % 4``."""
    rng = make_rng(seed)
    xs = workload.sample(size, rng)
    pairs = np.sort(workload.sample(2 * size, rng).reshape(size, 2), axis=1)
    levels = rng.random(size)
    pool = []
    for key in range(size):
        op = key % 4
        if op == 0:
            pool.append(QueryRequest.cdf(float(xs[key])))
        elif op == 1:
            pool.append(QueryRequest.quantile(float(levels[key])))
        elif op == 2:
            pool.append(QueryRequest.fraction_between(float(pairs[key, 0]), float(pairs[key, 1])))
        else:
            pool.append(QueryRequest.network_size())
    return pool


def oracle_values(engine: QueryEngine, requests: Sequence[QueryRequest]) -> np.ndarray:
    """The oracle's answer to each request (NaN where it refuses)."""
    values = np.full(len(requests), np.nan)
    for index, request in enumerate(requests):
        reply = engine.execute(request)
        if reply.ok and reply.value is not None:
            values[index] = reply.value
    return values


def count_wrong(
    expected: np.ndarray, keys: Iterable[int], replies: Iterable[QueryResponse]
) -> int:
    """Replies that are not ``ok`` or disagree with the oracle."""
    wrong = 0
    for key, reply in zip(keys, replies):
        # NaN expected (oracle refused) never compares within tolerance.
        if not reply.ok or reply.value is None or not abs(reply.value - expected[key]) <= TOLERANCE:
            wrong += 1
    return wrong
