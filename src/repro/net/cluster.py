"""The localhost cluster harness: N real node daemons, one machine.

:class:`LocalCluster` is the in-process mode — every daemon lives on
one event loop, its gossip timer one ``call_later`` handle at a time
(:func:`~repro.net.node.run_timers`); they share one wire codec and one
membership table (:class:`~repro.net.peers.MemberTable`: nothing per
pair, so start-up is O(N)) but each owns its own UDP socket, generator,
peer view and fault injector.  This is the
mode the ``net`` backend and CI use: real datagrams, real timers, no
subprocess overhead, and direct access to every node's protocol state
for probes and summaries.

:func:`run_process_cluster` is the one-OS-process-per-node mode: it
writes per-node JSON specs, launches ``python -m repro.net.node`` for
each, starts them together through a ready/go barrier, and collects the
JSON summaries — full process isolation for smoke runs at the cost of
slower startup and summary-only visibility.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any, Hashable, Sequence

import numpy as np

from repro.core.config import Adam2Config
from repro.core.node import Adam2Node, CompletedInstance
from repro.errors import NetworkError
from repro.net.codec import WireCodec
from repro.net.faults import FaultInjector
from repro.net.node import NodeDaemon, run_timers
from repro.net.peers import MemberTable
from repro.rngs import spawn

__all__ = ["LocalCluster", "completed_from_summaries", "run_process_cluster"]


class LocalCluster:
    """N in-process node daemons on localhost, each drawing from all.

    Args:
        values: per-node attribute values — a 1-D array (one scalar per
            node) or a sequence of per-node arrays.
        config: protocol parameters shared by the cluster.
        rng: cluster generator; every daemon spawns its private stream
            from it (initiator choice also draws from it).
        gossip_period: seconds between each daemon's timer fires.
        period_jitter: per-period uniform jitter fraction.
        neighbour_sample: peers sampled for the value bootstrap.
        sanitize: bracket merges with the mass-conservation sanitizer.
        drop_rate / delay_range / reorder_rate: per-daemon outgoing
            fault model (seeded from the cluster generator).
        max_datagram: wire codec budget shared by the cluster.
        max_inflight: per-daemon bound on concurrent background pushes.
        transport_options: per-daemon transport keyword arguments
            (timeouts, retry policy, dedup size).
        host: interface to bind every daemon on.
    """

    def __init__(
        self,
        values: Sequence[np.ndarray] | np.ndarray,
        config: Adam2Config,
        rng: np.random.Generator,
        *,
        gossip_period: float = 0.05,
        period_jitter: float = 0.1,
        neighbour_sample: int | None = None,
        sanitize: bool | None = None,
        drop_rate: float = 0.0,
        delay_range: tuple[float, float] | None = None,
        reorder_rate: float = 0.0,
        max_datagram: int = 8192,
        max_inflight: int = 8,
        transport_options: dict[str, Any] | None = None,
        host: str = "127.0.0.1",
    ):
        per_node = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
        if len(per_node) < 2:
            raise NetworkError("a cluster needs at least 2 nodes")
        self.rng = rng
        self.host = host
        self.config = config
        self.period_jitter = period_jitter
        self.codec = WireCodec(max_datagram)
        #: every bound daemon's id and address, shared by their directories
        self.members = MemberTable()
        #: ids fail-stopped so far, in crash order (joiners never see them)
        self._departed: list[int] = []
        self._faults: dict[str, Any] | None = None
        if drop_rate > 0.0 or reorder_rate > 0.0 or delay_range is not None:
            self._faults = {
                "drop_rate": drop_rate,
                "delay_range": delay_range,
                "reorder_rate": reorder_rate,
            }
        self._options: dict[str, Any] = {
            "codec": self.codec,
            "gossip_period": gossip_period,
            "period_jitter": period_jitter,
            "neighbour_sample": neighbour_sample,
            "sanitize": sanitize,
            "max_inflight": max_inflight,
            "transport_options": transport_options,
            "members": self.members,
        }
        self.daemons: list[NodeDaemon] = []
        for node_values in per_node:
            self.daemons.append(self._daemon(node_values))

    def _daemon(self, values: np.ndarray) -> NodeDaemon:
        """The next node's daemon, its generators spawned from the cluster's."""
        fault = None
        if self._faults is not None:
            fault = FaultInjector(spawn(self.rng), **self._faults)
        return NodeDaemon(
            len(self.daemons),
            values,
            self.config,
            spawn(self.rng),
            fault=fault,
            **self._options,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind every daemon's socket: each bind enters the shared
        membership table, so every daemon then draws from all others."""
        for daemon in self.daemons:
            await daemon.open(self.host, 0)

    def close(self) -> None:
        """Close every daemon's socket and cancel in-flight work."""
        for daemon in self.daemons:
            daemon.close()

    async def join(self, values: float | np.ndarray) -> NodeDaemon:
        """Add one node: its bind enters the shared table, so every node
        draws it and it draws every node still live (it never met the
        crashed ones).  It gossips from the next :meth:`run_rounds` call."""
        daemon = self._daemon(np.atleast_1d(np.asarray(values, dtype=float)))
        await daemon.open(self.host, 0)
        for node_id in self._departed:
            daemon.directory.remove(node_id)
        self.daemons.append(daemon)
        return daemon

    def crash(self, node_id: int) -> None:
        """Fail-stop one node; peers only ever see timeouts."""
        daemon = self.daemons[node_id]
        if not daemon.crashed:
            self._departed.append(node_id)
        daemon.crash()

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def live_daemons(self) -> list[NodeDaemon]:
        return [daemon for daemon in self.daemons if not daemon.crashed]

    async def run_rounds(self, rounds: int) -> None:
        """Run every live daemon's gossip timer for ``rounds`` fires
        (free-running: no barrier between the call's rounds)."""
        await run_timers(self.live_daemons(), rounds)

    def drain_periods(self) -> int:
        """Extra gossip periods to run after an instance's
        ``rounds_per_instance``, before :meth:`drain`.

        Per-node clocks drift (jitter) and messages ride real or
        modelled latency, so after R nominal periods some daemons still
        hold live state: ``max(3, ceil(R * period_jitter) + 2)`` more
        let every one tick its TTL out (5 at R = 30 and 10 % jitter).
        """
        rounds = self.config.rounds_per_instance
        return max(3, int(np.ceil(rounds * self.period_jitter)) + 2)

    async def drain(self) -> None:
        """Wait for every live daemon's in-flight pushes to settle."""
        await asyncio.gather(*(d.drain() for d in self.live_daemons()))

    async def trigger_instance(self, node_id: int | None = None) -> Hashable:
        """Start one instance at a (default: randomly chosen) live node."""
        live = self.live_daemons()
        if not live:
            raise NetworkError("no live node to initiate an instance")
        if node_id is None:
            daemon = live[int(self.rng.integers(0, len(live)))]
        else:
            daemon = self.daemons[node_id]
            if daemon.crashed:
                raise NetworkError(f"node {node_id} has crashed")
        return await daemon.trigger_instance()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def adam2_nodes(self) -> list[Adam2Node]:
        """Live nodes' protocol state (probes and summaries read this)."""
        return [daemon.adam2 for daemon in self.live_daemons()]

    def attribute_values(self) -> np.ndarray:
        """All live nodes' attribute values (the ground-truth population)."""
        return np.concatenate([daemon.adam2.values for daemon in self.live_daemons()])

    def traffic(self) -> tuple[int, int]:
        """Total ``(messages, bytes)`` sent by all daemons so far."""
        messages = sum(d.transport.messages_sent for d in self.daemons)
        bytes_ = sum(d.transport.bytes_sent for d in self.daemons)
        return messages, bytes_

    def counters(self) -> dict[str, int]:
        """Aggregated transport/daemon/fault counters across the cluster."""
        totals = {
            "messages_sent": 0, "bytes_sent": 0, "messages_received": 0,
            "retries": 0, "timeouts": 0, "duplicates_suppressed": 0,
            "decode_errors": 0, "push_failures": 0, "push_errors": 0,
            "pushes_skipped": 0, "dropped": 0,
        }
        for daemon in self.daemons:
            transport = daemon.transport
            totals["messages_sent"] += transport.messages_sent
            totals["bytes_sent"] += transport.bytes_sent
            totals["messages_received"] += transport.messages_received
            totals["retries"] += transport.retries
            totals["timeouts"] += transport.timeouts
            totals["duplicates_suppressed"] += transport.duplicates_suppressed
            totals["decode_errors"] += transport.decode_errors
            totals["push_failures"] += daemon.push_failures
            totals["push_errors"] += daemon.push_errors
            totals["pushes_skipped"] += daemon.pushes_skipped
            if daemon.transport.fault is not None:
                totals["dropped"] += daemon.transport.fault.dropped
        return totals


# ----------------------------------------------------------------------
# Process mode
# ----------------------------------------------------------------------


def _free_udp_ports(count: int, host: str) -> list[int]:
    """Reserve ``count`` distinct free UDP ports by binding and releasing."""
    sockets: list[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((host, 0))
            sockets.append(sock)
        return [int(sock.getsockname()[1]) for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def run_process_cluster(
    values: Sequence[np.ndarray] | np.ndarray,
    config: Adam2Config,
    *,
    rounds: int,
    seed: int,
    trigger_at: dict[int, int] | None = None,
    gossip_period: float = 0.05,
    period_jitter: float = 0.1,
    neighbour_sample: int | None = None,
    sanitize: bool | None = None,
    drop_rate: float = 0.0,
    max_datagram: int = 8192,
    transport_options: dict[str, Any] | None = None,
    timeout: float = 120.0,
    host: str = "127.0.0.1",
) -> list[dict[str, Any]]:
    """Launch one OS process per node and collect their JSON summaries.

    ``trigger_at`` maps node id to the local round at which that node
    initiates an instance.  No node gossips before every node is bound:
    each process reports ``ready`` once its socket and peers are set up,
    and only then does every process get ``go``.  Raises
    :class:`NetworkError` when any node process fails or the cluster
    misses the ``timeout`` deadline (start-up included).
    """
    deadline = time.monotonic() + timeout
    per_node = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    if len(per_node) < 2:
        raise NetworkError("a cluster needs at least 2 nodes")
    trigger_at = trigger_at or {}
    ports = _free_udp_ports(len(per_node), host)
    with tempfile.TemporaryDirectory(prefix="adam2-net-") as workdir:
        processes: list[subprocess.Popen[bytes]] = []
        out_paths: list[str] = []
        try:
            for node_id, node_values in enumerate(per_node):
                spec = {
                    "node_id": node_id,
                    "host": host,
                    "port": ports[node_id],
                    "peers": [
                        [peer_id, host, ports[peer_id]]
                        for peer_id in range(len(per_node))
                        if peer_id != node_id
                    ],
                    "values": [float(v) for v in node_values],
                    "config": {
                        field: getattr(config, field)
                        for field in config.__dataclass_fields__
                    },
                    "seed": seed + node_id,
                    "rounds": rounds,
                    "trigger_at": trigger_at.get(node_id),
                    "gossip_period": gossip_period,
                    "period_jitter": period_jitter,
                    "neighbour_sample": neighbour_sample,
                    "sanitize": sanitize,
                    "drop_rate": drop_rate,
                    "max_datagram": max_datagram,
                    "transport_options": transport_options,
                }
                spec_path = os.path.join(workdir, f"node-{node_id}.json")
                out_path = os.path.join(workdir, f"result-{node_id}.json")
                with open(spec_path, "w", encoding="utf-8") as handle:
                    json.dump(spec, handle)
                out_paths.append(out_path)
                processes.append(subprocess.Popen(
                    [sys.executable, "-m", "repro.net.node",
                     "--spec", spec_path, "--out", out_path],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=os.environ.copy(),
                ))
            for process in processes:
                _await_ready(process, deadline, timeout)
            for process in processes:
                assert process.stdin is not None
                try:
                    process.stdin.write(b"go\n")
                    process.stdin.close()
                except BrokenPipeError as exc:
                    raise NetworkError(
                        f"a node process exited with status {process.wait()} "
                        "before its go"
                    ) from exc
            for process in processes:
                try:
                    code = process.wait(timeout=max(deadline - time.monotonic(), 0.001))
                except subprocess.TimeoutExpired as exc:
                    raise NetworkError(
                        f"node process cluster missed the {timeout}s deadline"
                    ) from exc
                if code != 0:
                    raise NetworkError(f"a node process exited with status {code}")
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.wait()
                for pipe in (process.stdin, process.stdout):
                    if pipe is not None and not pipe.closed:
                        pipe.close()
        summaries = []
        for out_path in out_paths:
            with open(out_path, encoding="utf-8") as handle:
                summaries.append(json.load(handle))
        return summaries


def _await_ready(
    process: "subprocess.Popen[bytes]", deadline: float, timeout: float
) -> None:
    """Block until ``process`` reports ``ready``, dies, or the deadline passes."""
    assert process.stdout is not None
    readable, _, _ = select.select(
        [process.stdout], [], [], max(deadline - time.monotonic(), 0.0)
    )
    if not readable:
        raise NetworkError(f"node process cluster missed the {timeout}s deadline")
    line = process.stdout.readline()
    if line.strip() != b"ready":  # b"" once the process has died
        raise NetworkError(f"a node process failed before it was ready: {line!r}")


def completed_from_summaries(
    summaries: Sequence[dict[str, Any]],
) -> dict[int, list[CompletedInstance]]:
    """Rebuild per-node completed-instance records from process summaries."""
    # Late import: repro.api's package bootstrap imports repro.net.backend
    # (which imports this module), so a module-level import here would
    # re-enter this module before LocalCluster exists.
    from repro.api.result import record_from_payload

    return {
        int(summary["node_id"]): [
            record_from_payload(entry) for entry in summary["completed"]
        ]
        for summary in summaries
    }
