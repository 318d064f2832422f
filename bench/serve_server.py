"""The program under test for ``serve_point`` / ``serve_batch``: one server process.

``python3 -m bench.serve_server --workload NAME --seed S --trace 0|1
[--cpu N]`` pins itself to CPU ``N``, builds the service, binds a
``ServiceEndpoint`` on an ephemeral port and prints one JSON line
``{"port", "build_s", "affinity"}``.  Each ``stats`` line on stdin is
answered with one JSON line of the process's CPU time, peak RSS, cache
counters and served-query count; closing stdin stops the server, which
prints a last stats line on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time

from bench.measure import own_peak_rss_mb, pin_to_cpu
from bench.spec import WORKLOADS
from repro.core.config import Adam2Config
from repro.net.service_endpoint import ServiceEndpoint
from repro.obs import ObserverHub, RunObserver
from repro.service import ServiceHandle, build_service
from repro.workloads import boinc_workload


def _emit(document: dict[str, object]) -> None:
    print(json.dumps(document), flush=True)


def _stats(handle: ServiceHandle) -> dict[str, object]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    counters = handle.hub.metrics.snapshot()["counters"]
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": own_peak_rss_mb(),
        "cache": handle.engine.cache_info(),
        "queries_total": counters.get("queries_total", 0),
    }


async def _serve(handle: ServiceHandle, ready: dict[str, object]) -> None:
    loop = asyncio.get_running_loop()
    async with ServiceEndpoint(handle, port=0) as endpoint:
        _emit({**ready, "port": endpoint.port})
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if line.strip() != "stats":
                break
            _emit(_stats(handle))
    _emit(_stats(handle))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.serve_server")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None,
                        help="CPU to pin to (the generator names it; default: no pinning)")
    args = parser.parse_args(argv)
    params = WORKLOADS[args.workload]

    affinity = pin_to_cpu(args.cpu)
    started = time.perf_counter()
    # Traced: an attached observer, so every query also fans out through
    # the hub — the cost of being observable on the query hot path.
    hub = ObserverHub([RunObserver()] if args.trace else ())
    handle = build_service(
        Adam2Config(**params["config"]), boinc_workload(str(params["attribute"])),
        n_nodes=int(params["n_nodes"]), seed=args.seed, hub=hub,
        options=dict(params["options"]),
    )
    ready = {"build_s": time.perf_counter() - started, "affinity": affinity}
    asyncio.run(_serve(handle, ready))
    return 0


if __name__ == "__main__":
    sys.exit(main())
