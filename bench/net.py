"""The two real-socket workloads: ``net_cluster`` and ``net_lossy``.

Each measured unit is one ``repro.api.run(backend="net")`` call: 128
daemons in this process on loopback UDP, two aggregation instances.  The
hub passed in only times the backend's own ``run / instance / round``
spans — the one public seam between cluster start and the gossip loop —
so every round is one latency sample.  Runs repeat (a fresh cluster
each) until the measured instance time reaches the budget.  A set-up is
one cluster brought up through the public ``LocalCluster``: construct,
bind 128 sockets, mesh — timed on its own, several times per run.  (The
rest of an ``api.run`` call outside its instance spans is mostly the
initiator's threshold sampling, which under ``drop_rate`` waits on 0, 1
or 2 retry timers of 200 ms: a three-valued number, not a measurement.)

The traced pass attaches an observer (the hub's per-round probes walk
all 128 nodes' state), then adds what only counters and micro-timings
can show: transport/fault counters, cluster start, and codec cost on
states captured from a live node.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from bench.measure import Tracer, hub_spans, peak_rss_mb
from bench.spec import Outcome
from repro import api
from repro.core.config import Adam2Config
from repro.net.cluster import LocalCluster
from repro.net.codec import MSG_PUSH
from repro.obs import ObserverHub, RunObserver
from repro.rngs import make_rng
from repro.workloads import boinc_workload

#: clusters brought up per run for ``setup_s`` (≈ 26 ms each)
SETUPS = 9

COUNTERS = ("messages_sent", "bytes_sent", "messages_received", "retries",
            "timeouts", "duplicates_suppressed", "dropped")


@dataclass
class _Phase:
    runs: int = 0
    rounds: list[float] = field(default_factory=list)
    instance_wall: float = 0.0
    instance_cpu: float = 0.0
    err_avg: list[float] = field(default_factory=list)
    err_max: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))


def _phase(
    params: dict, cfg: Adam2Config, seed: int, seconds: float, observed: bool,
    first_index: int, tracer: Tracer, out: Outcome,
) -> _Phase:
    phase = _Phase()
    workload = boinc_workload(str(params["attribute"]))
    n = int(params["n_nodes"])
    index = first_index
    while (index - first_index) < int(params["min_runs"]) or phase.instance_wall < seconds:
        tracer.clear()
        tracer.trace_id = index
        hub = ObserverHub(
            [RunObserver()] if observed else (),
            instrument=True, spans=hub_spans(tracer),
        )
        result = api.run(
            cfg, workload, backend="net", n_nodes=n,
            instances=int(params["instances_per_run"]), seed=seed * 1000 + index, hub=hub,
            gossip_period=float(params["gossip_period"]),
            drop_rate=float(params["drop_rate"]),
            # The error evaluation's (node_sample, grid) matrices follow
            # the sample's maximum; at the default 64 rows they made peak
            # RSS a function of the seed (6% spread).
            node_sample=int(params["node_sample"]),
        )
        instances = tracer.named("instance")
        phase.runs += 1
        phase.instance_wall += sum(s.wall for s in instances)
        phase.instance_cpu += sum(s.cpu for s in instances)
        phase.rounds.extend(tracer.wall("round"))
        for summary in result.instances:
            out.check(summary.reached >= int(params["min_reached"]),
                      f"instance reached {summary.reached} of {n} daemons")
            errors = summary.errors_entire
            out.check(errors.average <= params["err_avg_max"], f"err_avg {errors.average}")
            # A daemon the summary missed counts error 1 by definition, so
            # the maximum only says something when every daemon completed.
            if summary.reached == n:
                out.check(errors.maximum <= params["err_max_max"], f"err_max {errors.maximum}")
            phase.err_avg.append(errors.average)
            phase.err_max.append(errors.maximum)
        counters = result.extras["net_counters"]
        out.check(counters["decode_errors"] == 0, f"{counters['decode_errors']} undecodable datagrams")
        for key in COUNTERS:
            phase.counters[key] += int(counters[key])
        index += 1
    return phase


def run(params: dict, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    tracer = Tracer()
    cfg = Adam2Config(**params["config"])
    n = int(params["n_nodes"])
    budget = seconds / 2 if trace else seconds
    plain = _phase(params, cfg, seed, budget, False, 0, tracer, out)
    if trace:
        # Every per-layer row comes from the unobserved half; the
        # observed half only prices the hub's probes.
        out.extra["spans"] = tracer.export()
        _layers(out, plain, params, cfg, seed)
        observed = _phase(params, cfg, seed, budget, True, 500, tracer, out)
        # CPU per round, not wall: on the timer-paced workload the
        # probes' cost hides inside the idle part of each period.
        out.put("obs.trace_overhead_pct",
                ((observed.instance_cpu / len(observed.rounds))
                 / (plain.instance_cpu / len(plain.rounds)) - 1.0) * 100.0,
                len(observed.rounds) + len(plain.rounds))
        return out

    node_rounds = n * len(plain.rounds)
    values = boinc_workload(str(params["attribute"])).sample(n, make_rng(seed))
    out.p50("setup_s", asyncio.run(_cluster_starts(params, cfg, values, seed, SETUPS)), 1.0)
    out.put("throughput_per_s", node_rounds / sum(plain.rounds), len(plain.rounds))
    out.put("cpu_us_per_unit", plain.instance_cpu * 1e6 / node_rounds, len(plain.rounds))
    out.p50("latency_ms_p50", plain.rounds, 1e3)
    out.tail("latency_ms_tail", plain.rounds, 1e3, 90.0)
    out.put("peak_rss_mb", peak_rss_mb())
    return out


def _cluster(params: dict, cfg: Adam2Config, values: np.ndarray, seed: int) -> LocalCluster:
    return LocalCluster(
        values, cfg, make_rng(seed),
        gossip_period=float(params["gossip_period"]), drop_rate=float(params["drop_rate"]),
    )


async def _cluster_starts(
    params: dict, cfg: Adam2Config, values: np.ndarray, seed: int, count: int
) -> list[float]:
    """``count`` set-ups: construct a full-size cluster and start it (then close it)."""
    starts = []
    for attempt in range(count):
        started = time.perf_counter()
        cluster = _cluster(params, cfg, values, seed + attempt)
        await cluster.start()
        starts.append(time.perf_counter() - started)
        cluster.close()
    return starts


async def _probe_codec(params: dict, cfg: Adam2Config, values: np.ndarray, seed: int) -> dict:
    """Codec timings on live node state."""
    # The cluster stays up a few rounds so a daemon holds real, partly
    # averaged instance state to encode.
    cluster = _cluster(params, cfg, values, seed)
    await cluster.start()
    try:
        await cluster.trigger_instance()
        await cluster.run_rounds(5)
        await cluster.drain()
        daemon = next(d for d in cluster.daemons if d.adam2.instances)
        codec = daemon.codec
        states = codec.fit_states(
            {iid: state.snapshot() for iid, state in daemon.adam2.instances.items()})
        encode, decode = [], []
        for msg_id in range(1, 401):
            started = time.perf_counter()
            datagram = codec.encode_states(MSG_PUSH, daemon.node_id, msg_id, states)
            middle = time.perf_counter()
            codec.decode(datagram)
            decode.append(time.perf_counter() - middle)
            encode.append(middle - started)
    finally:
        cluster.close()
    return {"encode": encode, "decode": decode, "bytes": len(datagram)}


def _layers(out: Outcome, phase: _Phase, params: dict, cfg: Adam2Config, seed: int) -> None:
    n = int(params["n_nodes"])
    node_rounds = n * len(phase.rounds)
    counters = phase.counters
    sent = counters["messages_sent"]
    out.put("net.transport.datagrams_sent", sent, sent)
    out.put("net.transport.bytes_sent", counters["bytes_sent"], sent)
    out.put("net.transport.datagrams_per_node_round", sent / node_rounds, node_rounds)
    out.put("net.transport.delivery_ratio", counters["messages_received"] / sent, sent)
    out.put("net.transport.retries", counters["retries"], sent)
    out.put("net.transport.timeouts", counters["timeouts"], sent)
    out.put("net.transport.duplicates_suppressed", counters["duplicates_suppressed"], sent)
    out.put("net.faults.dropped", counters["dropped"], sent)

    values = boinc_workload(str(params["attribute"])).sample(n, make_rng(seed))
    out.p50("net.cluster.start_ms",
            asyncio.run(_cluster_starts(params, cfg, values, seed, SETUPS)), 1e3)
    probe = asyncio.run(_probe_codec(params, cfg, values, seed))
    encode = out.p50("net.codec.encode_us_p50", probe["encode"], 1e6)
    decode = out.p50("net.codec.decode_us_p50", probe["decode"], 1e6)
    out.put("net.codec.datagram_bytes_p50", probe["bytes"], len(probe["encode"]))

    round_ms = out.p50("net.cluster.round_ms_p50", phase.rounds, 1e3)
    out.tail("net.cluster.round_ms_p90", phase.rounds, 1e3, 90.0)
    out.put("net.cluster.round_overrun_ratio",
            round_ms / (float(params["gossip_period"]) * 1e3), len(phase.rounds))
    out.put("net.cluster.wall_s", phase.instance_wall, phase.runs)
    # Every datagram is encoded once and decoded once; what is left of
    # the loop's CPU per datagram is transport + node handler + asyncio.
    out.put("net.node.handler_us_per_datagram",
            phase.instance_cpu * 1e6 / sent - encode - decode, sent)
    out.p50("core.err_avg", phase.err_avg, 1.0)
    out.p50("core.err_max", phase.err_max, 1.0)
