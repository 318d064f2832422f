"""CI smoke test for the continuous estimation service's TCP frontend.

Warms a fast-backend service, serves it over the JSON-lines endpoint,
and drives a mixed query workload (cdf / quantile / fraction / size,
plus a sprinkle of deliberately malformed requests) from several
concurrent clients.  A second phase serves the same handle from a
multi-worker pool (``--workers``, default 4) and exercises the binary
frame codec and batched queries against it.  Fails hard if:

* any request draws a ``server_error`` (the 5xx class — a healthy
  service never produces one; malformed requests must map to
  ``bad_request`` instead),
* client-observed p99 latency exceeds the budget,
* the JSONL trace does not account for every request line served on the
  single-endpoint phase (worker processes trace into their own hubs, so
  the accounting check stays on phase one),
* a batched binary answer from the pool disagrees with the in-process
  engine, or the pool draws any error at all,
* a request line ``json.loads`` cannot decode (not UTF-8, or nested past
  the recursion limit) draws anything but ``bad_request`` on either
  serving surface, or takes the connection down with it.

Usage::

    python scripts/service_smoke.py --queries 1000 --clients 4 \
        --workers 4 --trace service_smoke_trace.jsonl --p99-budget 0.05
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys


_OPS = ("cdf", "quantile", "fraction", "size")


def _mixed_queries(
    handle: object, n_queries: int, seed: int, pool_size: int = 128
) -> list[tuple[str, tuple[float, ...]]]:
    """A seeded mixed ``(op, args)`` workload over the estimate's range.

    Arguments come from ``pool_size`` distinct values per op, so a
    realistic share of queries repeat and the engine's LRU sees hits.
    """
    from repro.rngs import make_rng

    rng = make_rng(seed)
    estimate = handle.store.latest().estimate  # type: ignore[attr-defined]
    lo = estimate.minimum
    xs = lo + max(estimate.maximum - lo, 1.0) * rng.random(pool_size)
    qs = rng.random(pool_size)
    queries: list[tuple[str, tuple[float, ...]]] = []
    for op_index, (i, j) in zip(
        rng.integers(0, len(_OPS), size=n_queries),
        rng.integers(0, pool_size, size=(n_queries, 2)),
    ):
        op = _OPS[int(op_index)]
        if op == "cdf":
            queries.append((op, (float(xs[i]),)))
        elif op == "quantile":
            queries.append((op, (float(qs[i]),)))
        elif op == "fraction":
            a, b = sorted((float(xs[i]), float(xs[j])))
            queries.append((op, (a, b)))
        else:
            queries.append((op, ()))
    return queries


def _payload(op: str, args: tuple[float, ...]) -> dict[str, object]:
    from repro.service.protocol import QueryRequest

    return QueryRequest(op, args).to_wire()


async def _load(
    host: str,
    port: int,
    requests: list[dict[str, object]],
    clients: int,
    frame: str = "json",
) -> tuple[list[float], dict[str, int]]:
    """Closed-loop clients against a live port: latencies and error counts.

    ``requests`` are split round-robin over ``clients`` connections;
    each client waits for a reply before sending its next request.  A
    batch reply counts one error per failed result.
    """
    from repro.net.service_endpoint import ServiceClient
    from repro.obs import wall_clock

    latencies: list[float] = []
    errors: dict[str, int] = {}

    async def _client(share: list[dict[str, object]]) -> None:
        async with ServiceClient(host, port, frame=frame) as client:
            for payload in share:
                started = wall_clock()
                response = await client.request(payload)
                latencies.append(wall_clock() - started)
                for result in response.get("results", [response]):
                    if not result.get("ok"):
                        code = str(result.get("error", "missing_error_code"))
                        errors[code] = errors.get(code, 0) + 1

    shares = [requests[i::clients] for i in range(clients)]
    await asyncio.gather(*(_client(share) for share in shares if share))
    return latencies, errors


async def _drive(
    handle: object,
    requests: list[dict[str, object]],
    clients: int,
    host: str,
) -> tuple[list[float], dict[str, int], list[str]]:
    """Serve ``handle`` ephemerally; latencies, error counts, probe failures."""
    from repro.net.service_endpoint import ServiceEndpoint

    async with ServiceEndpoint(handle, host=host, port=0) as endpoint:  # type: ignore[arg-type]
        assert endpoint.port is not None
        latencies, errors = await _load(host, endpoint.port, requests, clients)
        failures = await _undecodable_probe(host, endpoint.port)
        if endpoint.handler_errors:
            failures.append(f"{endpoint.handler_errors} connection handler(s) died")
        return latencies, errors, failures


async def _undecodable_probe(host: str, port: int) -> list[str]:
    """One undecodable line each, then a real query on the same connection."""
    failures: list[str] = []
    # Raw bytes no ServiceClient can express, so a bare socket it is.
    reader, writer = await asyncio.open_connection(host, port)  # adam2: noqa[ADM008]
    try:
        for line in (b"\x80abc\n", b"[" * 5000 + b"\n"):
            writer.write(line)
            reply = await reader.readline()
            if not reply or json.loads(reply).get("error") != "bad_request":
                failures.append(f"undecodable line {line[:8]!r}... drew {reply!r}")
                return failures
        writer.write(b'{"op":"size"}\n')
        reply = await reader.readline()
        if not reply or not json.loads(reply).get("ok"):
            failures.append(f"connection unusable after undecodable lines: {reply!r}")
    finally:
        writer.close()
    return failures


async def _pool_correctness(
    handle: object, host: str, port: int, xs: list[float]
) -> tuple[list[float | None], dict[str, object]]:
    """One binary batch against the pool; values plus a worker status."""
    from repro.net.service_endpoint import ServiceClient
    from repro.service.protocol import QueryRequest

    async with ServiceClient(host, port, frame="binary") as client:
        batch = await client.batch(
            [QueryRequest("cdf", (x,)) for x in xs]
            + [QueryRequest("size", ())]
        )
        status = await client.status()
    return [r.value for r in batch.results], status


def _pool_phase(
    handle: object, args: argparse.Namespace,
    mixed: list[tuple[str, tuple[float, ...]]],
) -> tuple[dict[str, object], list[str]]:
    """Drive batch + binary through a >= 4 worker pool; returns report, failures."""
    from repro.net.service_worker import ServiceWorkerPool
    from repro.obs import wall_clock

    failures: list[str] = []
    xs = [float(x) for x in range(0, 1000, 97)]
    batches: list[dict[str, object]] = [
        {"op": "batch", "ops": [
            _payload(op, params) for op, params in mixed[i : i + args.batch]
        ]}
        for i in range(0, len(mixed), args.batch)
    ]
    with ServiceWorkerPool(handle.store, workers=args.workers, host=args.host) as pool:  # type: ignore[attr-defined]
        assert pool.port is not None
        values, status = asyncio.run(
            _pool_correctness(handle, args.host, pool.port, xs)
        )
        started = wall_clock()
        latencies, errors = asyncio.run(
            _load(args.host, pool.port, batches, args.clients, frame="binary")
        )
        wall_s = max(wall_clock() - started, 1e-9)
        failures += asyncio.run(_undecodable_probe(args.host, pool.port))

    expected = [handle.cdf(x) for x in xs] + [handle.network_size()]  # type: ignore[attr-defined]
    mismatched = sum(
        1 for got, want in zip(values, expected)
        if got is None or abs(got - want) > 1e-9
    )
    if mismatched:
        failures.append(
            f"{mismatched}/{len(expected)} batched binary answers disagree "
            "with the in-process engine"
        )
    if status.get("serving_mode") != "reuseport":
        failures.append(f"pool status reports no serving mode: {status!r}")
    if len(latencies) != len(batches):
        failures.append(
            f"only {len(latencies)}/{len(batches)} pool batches were answered"
        )
    if errors:
        failures.append(f"pool load drew error responses: {errors!r}")
    report = {
        "workers": args.workers,
        "batch_size": args.batch,
        "ops": len(mixed),
        "qps": len(mixed) / wall_s,
        "errors": sum(errors.values()),
        "worker_status": {
            k: status.get(k) for k in ("worker", "serving_mode", "versions")
        },
    }
    return report, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=1000)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the multi-worker phase (0 skips it)")
    parser.add_argument("--batch", type=int, default=16,
                        help="ops per batched request in the pool phase")
    parser.add_argument("--nodes", type=int, default=800)
    parser.add_argument("--points", type=int, default=24)
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--invalid-every", type=int, default=50,
        help="replace every Nth request with a malformed one (0 disables); "
        "these must come back as bad_request, never server_error",
    )
    parser.add_argument(
        "--p99-budget", type=float, default=0.05,
        help="client-observed p99 latency budget in seconds",
    )
    parser.add_argument("--trace", default="service_smoke_trace.jsonl")
    parser.add_argument(
        "--timeout", type=int, default=120,
        help="hard wall-clock budget in seconds (SIGALRM; 0 disables)",
    )
    args = parser.parse_args(argv)

    if args.timeout > 0:
        # A wedged endpoint must fail the job, not hang it until the
        # runner's own timeout reaps it without artifacts.
        def _expired(signum: int, frame: object) -> None:
            raise TimeoutError(f"service smoke exceeded {args.timeout}s budget")

        signal.signal(signal.SIGALRM, _expired)
        signal.alarm(args.timeout)

    import numpy as np

    from repro.core.config import Adam2Config
    from repro.obs import JsonlSink, ObserverHub
    from repro.service import build_service
    from repro.workloads.synthetic import uniform_workload

    config = Adam2Config(points=args.points, rounds_per_instance=args.rounds)
    hub = ObserverHub([JsonlSink(args.trace)])
    try:
        handle = build_service(
            config,
            uniform_workload(0, 1000),
            backend="fast",
            n_nodes=args.nodes,
            seed=args.seed,
            hub=hub,
            warm_cycles=1,
        )
        requests: list[dict[str, object]] = []
        bad_probes = 0
        mixed = _mixed_queries(handle, args.queries, args.seed + 1)
        for index, (op, params) in enumerate(mixed):
            if args.invalid_every and index % args.invalid_every == 5:
                requests.append({"op": "cdf", "x": "not-a-number"})
                bad_probes += 1
            else:
                requests.append(_payload(op, params))

        latencies, errors, probe_failures = asyncio.run(
            _drive(handle, requests, args.clients, args.host)
        )
        pool_report: dict[str, object] = {}
        pool_failures: list[str] = []
        if args.workers > 0:
            pool_report, pool_failures = _pool_phase(handle, args, mixed)
        metrics = hub.metrics.snapshot()
    finally:
        hub.close()
        signal.alarm(0)

    p50 = float(np.percentile(latencies, 50)) if latencies else 0.0
    p99 = float(np.percentile(latencies, 99)) if latencies else 0.0
    traced_queries = 0
    with open(args.trace) as stream:
        for line in stream:
            if json.loads(line).get("type") == "query":
                traced_queries += 1

    report = {
        "queries": len(requests),
        "answered": len(latencies),
        "clients": args.clients,
        "p50_latency_s": p50,
        "p99_latency_s": p99,
        "errors": errors,
        "bad_probes_sent": bad_probes,
        "traced_query_events": traced_queries,
        "cache": dict(handle.engine.cache_info()),
        "counters": metrics["counters"],
        "pool": pool_report,
    }
    print(json.dumps(report, indent=2, sort_keys=True))

    failures = probe_failures + pool_failures
    if len(latencies) != len(requests):
        failures.append(
            f"only {len(latencies)}/{len(requests)} requests were answered"
        )
    if errors.get("server_error", 0) != 0:
        failures.append(f"{errors['server_error']} server_error (5xx) responses")
    if errors.get("bad_request", 0) != bad_probes:
        failures.append(
            f"expected exactly {bad_probes} bad_request responses "
            f"(the deliberate probes), saw {errors.get('bad_request', 0)}"
        )
    unexpected = set(errors) - {"bad_request"}
    if unexpected:
        failures.append(f"unexpected error classes: {sorted(unexpected)}")
    if p99 > args.p99_budget:
        failures.append(
            f"p99 latency {p99 * 1e3:.2f} ms exceeds the "
            f"{args.p99_budget * 1e3:.1f} ms budget"
        )
    if traced_queries < len(requests):
        failures.append(
            f"trace has {traced_queries} query events for "
            f"{len(requests)} requests — per-query metrics are incomplete"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
