"""The high-throughput query layer over the estimate store.

A :class:`QueryEngine` answers the four application queries the paper
motivates the protocol with — ``cdf(x)``, ``quantile(q)``,
``fraction_between(a, b)`` and ``network_size()`` — from the latest (or
an explicitly pinned) :class:`~repro.service.store.EstimateSnapshot`.
Point evaluations :mod:`bisect` the interpolation polyline's plain-float
vertex lists (:meth:`EstimatedCDF.evaluate_at` / ``quantile_at``, the
scalar twins of the array API), and repeated point queries hit a
per-engine LRU cache keyed by ``(version, op, args)`` — snapshots are
immutable, so a cached answer can never go stale for its version.

Every query is recorded through the engine's
:class:`~repro.obs.observer.ObserverHub` — the ``query_latency_s``
histogram, hit/miss counters, and a :class:`~repro.obs.events.QueryServed`
event when an observer is attached.  Latency is read
through :func:`repro.obs.wall_clock` so this module never touches the
host clock directly (the ADM007/ADM008 clock fences stay meaningful).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.errors import ServiceError
from repro.obs import NULL_HUB, ObserverHub, wall_clock
from repro.service.protocol import QueryRequest, QueryResponse
from repro.service.store import EstimateSnapshot, EstimateStore

__all__ = ["QueryEngine"]

#: cache key: (version, op, args...)
_CacheKey = tuple[object, ...]


def _not_nan(value: float, name: str) -> None:
    if value != value:
        raise ServiceError(f"{name} must not be NaN", code="bad_request")


def _check_cdf(x: float) -> None:
    _not_nan(x, "x")


def _check_quantile(q: float) -> None:
    _not_nan(q, "q")
    if not 0.0 <= q <= 1.0:
        raise ServiceError(
            f"quantile level must lie in [0, 1], got {q}", code="bad_request"
        )


def _check_fraction(a: float, b: float) -> None:
    _not_nan(a, "a")
    _not_nan(b, "b")
    if a > b:
        raise ServiceError(f"interval is empty: a={a} > b={b}", code="bad_request")


def _cdf(engine: "QueryEngine", snapshot: EstimateSnapshot, x: float) -> float:
    return snapshot.estimate.evaluate_at(x)


def _quantile(engine: "QueryEngine", snapshot: EstimateSnapshot, q: float) -> float:
    return snapshot.estimate.quantile_at(q)


def _fraction(
    engine: "QueryEngine", snapshot: EstimateSnapshot, a: float, b: float
) -> float:
    return max(engine._edge_cdf(snapshot, b) - engine._edge_cdf(snapshot, a), 0.0)


def _size(engine: "QueryEngine", snapshot: EstimateSnapshot) -> float:
    if snapshot.size_estimate is None:
        raise ServiceError(
            f"snapshot v{snapshot.version} carries no size estimate",
            code="unavailable",
        )
    return float(snapshot.size_estimate)


#: engine op -> (argument check or None, miss-path computation)
_ENGINE_OPS: dict[
    str, tuple[Callable[..., None] | None, Callable[..., float]]
] = {
    "cdf": (_check_cdf, _cdf),
    "quantile": (_check_quantile, _quantile),
    "fraction": (_check_fraction, _fraction),
    "size": (None, _size),
}


class QueryEngine:
    """Answers distribution queries from versioned snapshots.

    Args:
        store: the versioned estimate store queries are served from.
        cache_size: LRU entries for repeated point queries; ``0``
            disables caching entirely.
        hub: observability hub receiving per-query events and metrics.
        clock: latency clock (seconds); injectable for deterministic
            tests, defaults to :func:`repro.obs.wall_clock`.
    """

    def __init__(
        self,
        store: EstimateStore,
        *,
        cache_size: int = 1024,
        hub: ObserverHub = NULL_HUB,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        if cache_size < 0:
            raise ServiceError("cache_size must be >= 0")
        self.store = store
        self.cache_size = cache_size
        self.hub = hub
        self._clock = clock
        self._cache: OrderedDict[_CacheKey, float] = OrderedDict()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def cdf(self, x: float, *, version: int | None = None) -> float:
        """``F(x)``: estimated fraction of nodes with attribute <= x."""
        return self._answer("cdf", (float(x),), version)

    def quantile(self, q: float, *, version: int | None = None) -> float:
        """Smallest attribute value ``v`` with estimated ``F(v) >= q``."""
        return self._answer("quantile", (float(q),), version)

    def fraction_between(
        self, a: float, b: float, *, version: int | None = None
    ) -> float:
        """Estimated fraction of nodes with attribute in ``(a, b]``.

        Infinite bounds are allowed (``fraction_between(2048, inf)`` is
        the paper's ">= 2 GB RAM" query).
        """
        return self._answer("fraction", (float(a), float(b)), version)

    def network_size(self, *, version: int | None = None) -> float:
        """The protocol's network-size estimate for the served snapshot."""
        return self._answer("size", (), version)

    def execute(self, request: QueryRequest) -> QueryResponse:
        """Answer one typed :class:`~repro.service.protocol.QueryRequest`.

        The canonical entry point for every serving surface (endpoint,
        worker processes, in-process callers): engine failures come back
        as typed error responses instead of raising — the caller is a
        protocol layer, not application code.
        """
        if request.op not in _ENGINE_OPS:
            return QueryResponse.failure(
                "bad_request",
                f"op {request.op!r} is a control op; the engine does not serve it",
                request_id=request.request_id,
            )
        try:
            value = self._answer(request.op, request.args, request.version)
        except ServiceError as exc:
            return QueryResponse.failure(
                exc.code, str(exc), request_id=request.request_id
            )
        except Exception as exc:  # the wire-level 5xx class
            return QueryResponse.failure(
                "server_error", f"{type(exc).__name__}: {exc}",
                request_id=request.request_id,
            )
        return QueryResponse.success(
            value, version=request.version, request_id=request.request_id
        )

    # ------------------------------------------------------------------
    # Serving core
    # ------------------------------------------------------------------

    def _answer(
        self, op: str, args: tuple[float, ...], version: int | None
    ) -> float:
        """Validate, look up or compute, record: the one path of every query.

        Every outcome is recorded exactly once, rejected arguments
        included (with no version: validation runs before the store is
        consulted) — a frontend reading ``queries_total`` must see what
        it actually received.
        """
        check, compute = _ENGINE_OPS[op]
        clock = self._clock
        started = clock()
        served: int | None = None
        hit = False
        try:
            if check is not None:
                check(*args)
            served = version
            snapshot = (
                self.store.latest() if version is None else self.store.get(version)
            )
            served = snapshot.version
            key: _CacheKey = (served, op, *args)
            value = self._cache.get(key) if self.cache_size else None
            if value is not None:
                hit = True
                self._hits += 1
                self._cache.move_to_end(key)
            else:
                self._misses += 1
                value = compute(self, snapshot, *args)
                self._cache_put(key, value)
        except Exception as exc:
            code = exc.code if isinstance(exc, ServiceError) else "server_error"
            self.hub.query_served(op, served, False, False, code, clock() - started)
            raise
        self.hub.query_served(op, served, hit, True, None, clock() - started)
        return value

    def _edge_cdf(self, snapshot: EstimateSnapshot, x: float) -> float:
        """``F(x)`` through the cache, sharing keys with the cdf op.

        Interval queries draw endpoints from the same value pool as
        point queries, but their *pairs* rarely repeat — caching the
        pair alone made nearly every fraction query re-evaluate the
        polyline twice.  Evaluating each endpoint through the shared
        ``(version, "cdf", x)`` entries makes fraction misses cheap and
        pre-warms the cdf op (and vice versa).  Deliberately not
        counted as a hit/miss: the op-level lookup already did that.
        """
        key: _CacheKey = (snapshot.version, "cdf", x)
        value = self._cache.get(key)
        if value is None:
            value = snapshot.estimate.evaluate_at(x)
            self._cache_put(key, value)
        return value

    # ------------------------------------------------------------------
    # LRU cache
    # ------------------------------------------------------------------

    def _cache_put(self, key: _CacheKey, value: float) -> None:
        if self.cache_size == 0:
            return
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters and current cache occupancy."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._cache),
            "max_size": self.cache_size,
        }

    def clear_cache(self) -> None:
        """Drop every cached answer (counters are preserved)."""
        self._cache.clear()
