"""The two networked serving workloads: ``serve_point`` and ``serve_batch``.

The program under test is :mod:`bench.serve_server` in its own process
(pinned to the first CPU); this module is the load generator (pinned to
the second): ``connections`` ``ServiceClient`` connections, **closed
loop** — each sends its next request only when the previous reply is in.
Replies are checked against an in-process oracle built from the same
seed.  The traced pass replays the workload's own request bytes through
the public per-message steps and then through their children one by one,
so a step's self time = step − children.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bench.layers import chain, each, engine_layers, store_layers
from bench.measure import ROOT, median, pin_to_cpu, split_cpus
from bench.queries import count_wrong, oracle_values, query_pool
from bench.spec import Outcome
from repro.core.config import Adam2Config
from repro.net.frames import HEADER, FrameCodec
from repro.net.service_endpoint import ServiceClient, process_frame, process_json_line
from repro.rngs import make_rng
from repro.service import (
    BatchRequest,
    QueryDispatcher,
    QueryEngine,
    QueryRequest,
    QueryResponse,
    ServiceHandle,
    build_service,
    parse_request,
)
from repro.workloads import boinc_workload

#: how long the generator waits for any one line from the server
SERVER_LINE_TIMEOUT_S = 60.0
#: requests replayed in-process for the per-layer rows
REPLAY = 2000
#: the latency tail reported: tens of thousands of requests per run
TAIL = 99.0

Request = QueryRequest | BatchRequest
#: (request index, start, end, reply)
Sample = tuple[int, float, float, object]


class Server:
    """The server subprocess and its one-line-per-message pipe protocol."""

    def __init__(self, workload: str, seed: int, trace: bool, cpu: int | None = None) -> None:
        env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"}
        # The server inherits this (already pinned) process's affinity
        # mask, so it is told which CPU is its own.
        pin = [] if cpu is None else ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench.serve_server", "--workload", workload,
             "--seed", str(seed), "--trace", str(int(trace)), *pin],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        """One JSON line from the server, or fail loudly if it died or hung.

        A server that crashes during set-up closes its stdout, so the
        read returns at once instead of blocking the generator; its
        traceback is already on the shared stderr.
        """
        assert self.proc.stdout is not None
        readable, _, _ = select.select([self.proc.stdout], [], [], SERVER_LINE_TIMEOUT_S)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self.proc.kill()
            status = self.proc.wait()
            what = "died" if readable else f"sent nothing for {SERVER_LINE_TIMEOUT_S:.0f} s"
            raise RuntimeError(f"server {what} (exit status {status}); its traceback is above")
        return json.loads(line)

    def stats(self) -> dict:
        assert self.proc.stdin is not None
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Close stdin (the stop signal), reap; returns the server's last stats line."""
        assert self.proc.stdin is not None
        self.proc.stdin.close()
        last = self._read()
        self.proc.wait(timeout=30)
        return last

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


async def _closed_loop(
    clients: Sequence[ServiceClient], requests: Sequence[Request], seconds: float, first: int
) -> list[Sample]:
    """Every connection sends its next request only after its last reply."""
    deadline = time.perf_counter() + seconds
    samples: list[Sample] = []

    async def lane(client: ServiceClient, index: int) -> None:
        while True:
            started = time.perf_counter()
            if started >= deadline:
                return
            slot = index % len(requests)
            reply = await client.call(requests[slot])
            samples.append((slot, started, time.perf_counter(), reply))
            index += len(clients)

    await asyncio.gather(*(lane(c, first + i) for i, c in enumerate(clients)))
    return samples


async def _session(
    server: Server, params: dict, requests: Sequence[Request], seconds: float
) -> dict:
    """Connect, warm up, measure ``seconds``; server stats bracket the window."""
    clients = [
        ServiceClient("127.0.0.1", int(server.ready["port"]), frame=str(params["frame"]))
        for _ in range(int(params["connections"]))
    ]
    connects = []
    # The generator keeps every reply until it is checked, so its own
    # collector's passes grow with the run and would land in the
    # latency tail; nothing here is cyclic, so nothing is lost.
    gc.disable()
    try:
        for client in clients:
            started = time.perf_counter()
            await client.connect()
            connects.append(time.perf_counter() - started)
        first_reply = await clients[0].call(QueryRequest.network_size())
        ready_at = time.perf_counter()
        warm = await _closed_loop(clients, requests, seconds * float(params["warmup_share"]), 0)
        before = server.stats()
        samples = await _closed_loop(clients, requests, seconds, len(warm))
        after = server.stats()
    finally:
        gc.enable()
        for client in clients:
            await client.close()
    return {"connects": connects, "first_reply": first_reply, "ready_at": ready_at,
            "samples": samples, "before": before, "after": after}


def _replies(reply: object) -> Sequence[QueryResponse]:
    return reply.results if hasattr(reply, "results") else (reply,)


@dataclass
class _Load:
    """The generated inputs: requests, the pool keys behind each, the oracle's answers."""

    requests: Sequence[Request]
    keys: Sequence[Sequence[int]]
    expected: np.ndarray


def _measure(
    out: Outcome, params: dict, seed: int, trace: bool, seconds: float,
    load: _Load, setups: list[float], server_cpu: int | None,
) -> dict:
    """One server lifetime: start, session, stop; replies checked against the oracle."""
    keys, expected = load.keys, load.expected
    started = time.perf_counter()
    with Server(str(params["name"]), seed, trace, server_cpu) as server:
        session = asyncio.run(_session(server, params, load.requests, seconds))
        last = server.stop()
    setups.append(session["ready_at"] - started)
    out.check(session["first_reply"].ok, "first query after connect was refused")
    samples = session["samples"]
    ops = wrong = 0
    for slot, _, _, reply in samples:
        replies = _replies(reply)
        ops += len(keys[slot])
        wrong += (count_wrong(expected, keys[slot], replies)
                  if len(replies) == len(keys[slot]) else len(keys[slot]))
    out.count_ops(ops, wrong, "replies differ from the oracle")
    before, after = session["before"], session["after"]
    out.check(after["queries_total"] - before["queries_total"] == ops,
              f"server counted {after['queries_total'] - before['queries_total']} "
              f"queries, generator sent {ops}")
    window = max(s[2] for s in samples) - min(s[1] for s in samples)
    return {
        "ops": ops, "qps": ops / window,
        "latencies": [s[2] - s[1] for s in samples],
        "server_cpu_us_per_op": (after["cpu_s"] - before["cpu_s"]) * 1e6 / ops,
        "cache": {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses")},
        "connects": session["connects"], "samples": samples,
        "server_affinity": server.ready["affinity"],
        "server_peak_rss_mb": last["peak_rss_mb"],
    }


def run(params: dict, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    server_cpu, generator_cpu = split_cpus()
    out.extra["generator_affinity"] = pin_to_cpu(generator_cpu)
    cfg = Adam2Config(**params["config"])
    workload = boinc_workload(str(params["attribute"]))

    # Inputs, all from the seed: the key pool, the order keys are asked
    # in, and (for batches) the prebuilt request envelopes.
    pool = query_pool(seed, int(params["pool"]), workload)
    batch = int(params["batch"])
    count = int(params["prebuilt_requests"])
    order = make_rng(seed + 1).integers(0, len(pool), size=(count, batch))
    keys = order.tolist()
    requests: list[Request] = [
        BatchRequest(tuple(pool[k] for k in row)) if batch > 1 else pool[row[0]]
        for row in keys
    ]

    # The oracle: the same service built in-process from the same seed.
    handle = build_service(
        cfg, workload, n_nodes=int(params["n_nodes"]), seed=seed,
        options=dict(params["options"]),
    )
    oracle = QueryEngine(handle.store, cache_size=0)
    expected = np.full(len(pool), np.nan)
    used = np.unique(order)
    expected[used] = oracle_values(oracle, [pool[k] for k in used])

    load = _Load(requests, keys, expected)
    setups: list[float] = []
    budget = seconds / 2 if trace else seconds
    plain = _measure(out, params, seed, False, budget, load, setups, server_cpu)
    out.extra["server_affinity"] = plain["server_affinity"]
    out.check(server_cpu is None or plain["server_affinity"] != out.extra["generator_affinity"],
              f"server and generator share CPUs {plain['server_affinity']}")
    if trace:
        # Every per-layer row comes from the unobserved server; a second
        # server with an observer attached only prices the hub.
        out.extra["spans"] = [
            {"name": "request", "id": index, "parent": None, "start": s[1], "end": s[2]}
            for index, s in enumerate(plain["samples"][:REPLAY])
        ]
        _layers(out, params, handle, pool, requests, plain, cfg, seed)
        observed = _measure(out, params, seed, True, budget, load, setups, server_cpu)
        out.put("obs.trace_overhead_pct", (plain["qps"] / observed["qps"] - 1.0) * 100.0,
                plain["ops"] + observed["ops"])
        return out

    # Further set-ups (server start to first reply), nothing measured on them.
    while len(setups) < int(params["setups"]):
        _measure(out, params, seed, False, 0.05, load, setups, server_cpu)

    latencies = plain["latencies"]
    out.p50("setup_s", setups, 1.0)
    out.put("throughput_per_s", plain["qps"], plain["ops"])
    out.put("cpu_us_per_unit", plain["server_cpu_us_per_op"], plain["ops"])
    out.p50("latency_ms_p50", latencies, 1e3)
    out.tail("latency_ms_tail", latencies, 1e3, TAIL)
    # The server's own high-water mark: the generator holds the oracle
    # service, the key pool and every reply, and is not the program under test.
    out.put("peak_rss_mb", plain["server_peak_rss_mb"])
    return out


# ----------------------------------------------------------------------
# Traced pass: replay the workload's own bytes, step by step
# ----------------------------------------------------------------------

def _layers(
    out: Outcome, params: dict, handle: ServiceHandle, pool: Sequence[QueryRequest],
    requests: Sequence[Request], session: dict, cfg: Adam2Config, seed: int,
) -> None:
    binary = params["frame"] == "binary"
    codec = FrameCodec()
    engine = QueryEngine(handle.store, cache_size=handle.engine.cache_size)
    dispatcher = QueryDispatcher(engine, handle)
    replay = [requests[s[0]] for s in session["samples"][:REPLAY]]
    ops_per_request = int(params["batch"])

    def execute_all(request: Request) -> None:
        for item in (request.items if isinstance(request, BatchRequest) else (request,)):
            engine.execute(item)

    # Each pass walks the whole replay set, so the LRU is in the
    # workload's own regime (all hits on the 256-key pool, misses on the
    # 100 000-key pool) at every pass, not warmed by the pass before.
    # Pass 1 is the public step; pass 2 its children in order; pass 3
    # the same with the bare engine in place of the dispatcher.
    if binary:
        frames = [codec.encode_request(r) for r in replay]
        split = [(*codec.unpack_header(f[: HEADER.size]), f[HEADER.size:]) for f in frames]
        decode_request = lambda m: codec.decode_request(m[0], m[2])  # noqa: E731
        step, answers = each(lambda m: process_frame(dispatcher, codec, m[0], m[2]), split)
        decode, dispatch, encode = chain(
            [decode_request, dispatcher.dispatch, codec.encode_response], split)
        _, execute = chain([decode_request, execute_all], split)
        client_encode, _ = each(codec.encode_request, replay)
        client_decode, _ = each(
            lambda a: codec.decode_response(
                codec.unpack_header(a[: HEADER.size])[0], a[HEADER.size:]), answers)
        out.p50("net.service_endpoint.process_frame_us_p50", step, 1e6)
        out.p50("net.frames.decode_request_us_p50", decode, 1e6)
        out.p50("net.frames.encode_response_us_p50", encode, 1e6)
        out.p50("net.frames.encode_request_us_p50", client_encode, 1e6)
        out.p50("net.frames.decode_response_us_p50", client_decode, 1e6)
        out.p50("net.frames.request_bytes_p50", [len(f) for f in frames], 1.0)
        out.p50("net.frames.response_bytes_p50", [len(a) for a in answers], 1.0)
        children = median(decode) + median(dispatch) + median(encode)
    else:
        dumps = lambda wire: json.dumps(wire, separators=(",", ":")).encode() + b"\n"  # noqa: E731
        lines = [dumps(r.to_wire()) for r in replay]
        step, answers = each(lambda line: process_json_line(dispatcher, codec, line)[0], lines)
        decode, parse, dispatch, encode = chain(
            [json.loads, parse_request, dispatcher.dispatch, lambda r: dumps(r.to_wire())], lines)
        _, _, execute = chain([json.loads, parse_request, execute_all], lines)
        client_encode, _ = each(lambda r: dumps(r.to_wire()), replay)
        client_decode, _ = each(lambda a: QueryResponse.from_wire(json.loads(a)), answers)
        out.p50("net.service_endpoint.process_json_line_us_p50", step, 1e6)
        out.p50("net.service_endpoint.json_decode_us_p50", decode, 1e6)
        out.p50("net.service_endpoint.json_encode_us_p50", encode, 1e6)
        out.p50("service.protocol.parse_request_us_p50", parse, 1e6)
        children = median(decode) + median(parse) + median(dispatch) + median(encode)
    out.put("net.service_endpoint.process_self_us_p50",
            (median(step) - children) * 1e6, len(step))
    out.put("net.service_endpoint.children_share", children / median(step), len(step))
    out.put("service.protocol.dispatch_self_us_p50",
            (median(dispatch) - median(execute)) * 1e6, len(dispatch))
    out.put("service.query.execute_us_p50",
            median(execute) * 1e6 / ops_per_request, len(execute) * ops_per_request)
    client_codec = median(client_encode) + median(client_decode)
    out.put("net.service_endpoint.client_codec_us_p50", client_codec * 1e6, len(replay))
    out.put("net.service_endpoint.transport_self_us_p50",
            (median(session["latencies"]) - median(step) - client_codec) * 1e6,
            len(session["latencies"]))
    out.p50("net.service_endpoint.connect_ms", session["connects"], 1e3)

    cache = session["cache"]
    out.put("service.query.hits", cache["hits"], session["ops"])
    out.put("service.query.misses", cache["misses"], session["ops"])
    out.put("service.query.cache_hit_ratio",
            cache["hits"] / max(cache["hits"] + cache["misses"], 1), session["ops"])
    engine_layers(out, engine, pool)
    store_layers(out, handle)

    small = build_service(
        cfg, boinc_workload(str(params["attribute"])), n_nodes=2000, seed=seed,
        warm_cycles=0, options=dict(params["options"]),
    )
    cycles, _ = each(lambda _: small.refresh(), range(10))
    out.p50("service.scheduler.cycle_ms_p50", cycles, 1e3)
