"""The Adam2 node daemon: one real peer on one real UDP socket.

A :class:`NodeDaemon` wires the engine-independent protocol core
(:class:`~repro.core.node.Adam2Node`) to the real-network runtime:

* it owns one :class:`~repro.net.transport.UdpTransport` endpoint and a
  :class:`~repro.net.peers.PeerDirectory` of gossip partners: its view
  of a :class:`~repro.net.peers.MemberTable`, which a cluster shares
  among its daemons (binding appends the daemon to it);
* a **gossip timer** fires every ``gossip_period`` seconds (jittered so
  peers desynchronise); each fire is one local round — TTLs count these
  fires, on real time or on :mod:`repro.net.virtual`'s jumping clock.
  :func:`run_timers` drives it: one ``call_later`` handle per daemon,
  re-armed from its own callback (no task, sleep or gather per fire);
* each fire sends one bounded-background **push** at a selected peer:
  every live instance that fits the budget, serialised straight from
  the live state (the tick runs to the encoder without yielding, so the
  bytes *are* the snapshot); the pull reply carries the responder's
  *pre-merge* states and is merged from the request future's
  done-callback, completing the mass-conserving symmetric exchange;
* incoming pushes are handled synchronously on the event loop — the
  core's receive step (:meth:`repro.core.node.Adam2Node.receive`: join /
  serialise / merge) plus the piggyback of unseen instances — so
  protocol state never sees concurrent mutation;
* the **neighbour bootstrap** collects attribute values from sampled
  peers over real sample round-trips before starting an instance;
* with ``sanitize=True`` every delivery is bracketed by the shared
  mass-conservation checks from :mod:`repro.lint.sanitizer`; the first
  violation, on either side of an exchange, is raised by the daemon's
  next tick (failing the :func:`run_timers` caller) or by :meth:`drain`.

The daemon can also run as its own OS process:
``python -m repro.net.node --spec spec.json`` executes one node from a
JSON spec and writes a JSON summary of its completed instances — the
process mode of :func:`repro.net.cluster.run_process_cluster`.  The
process starts gossiping only past a start barrier: once bound, with its
peers added, it writes ``ready`` on stdout and waits for a ``go`` line on
stdin, which the parent sends when every node is ready.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from functools import partial
from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from repro.core.config import Adam2Config, bootstrap_sample_size
from repro.core.instance import InstanceState
from repro.core.node import Adam2Node
from repro.errors import NetworkError
from repro.lint.sanitizer import InvariantViolation, checked_delivery, sanitize_enabled
from repro.net.codec import MSG_PULL, MSG_PUSH, MSG_SAMPLE_REQUEST, Message, WireCodec
from repro.net.faults import FaultInjector
from repro.net.peers import MemberTable, PeerDirectory
from repro.net.transport import UdpTransport
from repro.rngs import make_rng, spawn

__all__ = ["NodeDaemon", "main", "run_timers"]


class NodeDaemon:
    """One Adam2 peer running over a real UDP socket.

    Args:
        node_id: integer peer id (also the wire sender id; must fit u32).
        values: the peer's attribute value(s).
        config: protocol parameters shared by the cluster.
        rng: the peer's private seeded generator (protocol decisions,
            peer selection, timer jitter all derive from it).
        codec: shared wire codec (one version, one budget per cluster).
        gossip_period: seconds between local gossip-timer fires.
        period_jitter: uniform fraction by which each period varies,
            desynchronising peers as real clocks drift.
        scheduler: ``"manual"`` (instances via :meth:`trigger_instance`)
            or ``"probabilistic"`` (the paper's self-selection).
        neighbour_sample: peers sampled for the value bootstrap.
        sanitize: bracket every merge with the mass-conservation
            sanitizer (tri-state like the simulators: ``None`` follows
            the ``ADAM2_SANITIZE`` environment variable).
        max_inflight: bound on concurrent background pushes; timer fires
            beyond it skip their push (TTLs still tick) so a wall of
            dead peers cannot pile up unbounded tasks.
        fault: optional outgoing fault injector.
        transport_options: extra keyword arguments for
            :class:`~repro.net.transport.UdpTransport` (timeouts, retry
            policy, dedup size).
        members: the membership table to bind into and draw peers from
            (default: a private one, filled by :meth:`add_peer`).
    """

    def __init__(
        self,
        node_id: int,
        values: float | np.ndarray,
        config: Adam2Config,
        rng: np.random.Generator,
        *,
        codec: WireCodec | None = None,
        gossip_period: float = 0.05,
        period_jitter: float = 0.1,
        scheduler: str = "manual",
        neighbour_sample: int | None = None,
        sanitize: bool | None = None,
        max_inflight: int = 8,
        fault: FaultInjector | None = None,
        transport_options: dict[str, Any] | None = None,
        members: MemberTable | None = None,
    ):
        if not isinstance(node_id, int) or not 0 <= node_id <= 2**32 - 1:
            raise NetworkError(f"node id {node_id!r} must be a u32 integer")
        if gossip_period <= 0.0:
            raise NetworkError(f"gossip period {gossip_period} must be positive")
        if not 0.0 <= period_jitter < 1.0:
            raise NetworkError(f"period jitter {period_jitter} must be in [0, 1)")
        if scheduler not in ("manual", "probabilistic"):
            raise NetworkError(f"unknown scheduler {scheduler!r}")
        if max_inflight < 1:
            raise NetworkError("max_inflight must be >= 1")
        self.node_id = node_id
        self.config = config
        self.rng = rng
        self.adam2 = Adam2Node(node_id, values, config, spawn(rng))
        self.codec = codec if codec is not None else WireCodec()
        self.gossip_period = gossip_period
        self.period_jitter = period_jitter
        self.scheduler = scheduler
        self.neighbour_sample = bootstrap_sample_size(config, neighbour_sample)
        self.sanitize = sanitize_enabled(sanitize)
        self.max_inflight = max_inflight
        self.directory = PeerDirectory(members, node_id)
        self.transport = UdpTransport(
            self.codec, spawn(rng), handler=self, fault=fault,
            **(transport_options or {}),
        )
        #: local gossip rounds completed (timer fires)
        self.rounds = 0
        #: pushes abandoned after the retry budget (peer suspected)
        self.push_failures = 0
        #: timer fires that skipped their push at the in-flight bound
        self.pushes_skipped = 0
        #: unexpected exceptions on the push path (encode, merge, bootstrap)
        self.push_errors = 0
        self._inflight: set[asyncio.Future[Any]] = set()
        #: the first sanitizer violation a delivery raised, until a tick
        #: or drain() raises it to the awaiting caller
        self._violation: InvariantViolation | None = None
        #: the pull records of the push being handled (see _merge)
        self._reply: list[bytes] = []
        self._running = False
        self._crashed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def open(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the UDP endpoint and enter the membership table;
        returns the bound address."""
        address = await self.transport.open(host, port)
        self.directory.table.add(self.node_id, address)
        return address

    @property
    def address(self) -> tuple[str, int]:
        return self.transport.address

    @property
    def crashed(self) -> bool:
        """Whether the node was fail-stopped with :meth:`crash`."""
        return self._crashed

    def add_peer(self, peer_id: int, address: tuple[str, int]) -> None:
        """Register a gossip partner (in the membership table, which
        every daemon sharing it then sees)."""
        self.directory.add(peer_id, address)

    async def run(self, rounds: int) -> None:
        """Run the gossip timer for ``rounds`` local fires.

        Each fire is one local round: TTLs tick, expired instances
        finalise, and (bounded) one push launches at a selected peer.
        Pushes settle in the background; await :meth:`drain` to wait for
        the stragglers (e.g. at the end of an instance).
        """
        await run_timers([self], rounds)

    async def drain(self) -> None:
        """Wait for in-flight pushes to complete (or fail their retries);
        raises the first sanitizer violation a delivery met."""
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        if self._violation is not None:
            raise self._violation

    def close(self) -> None:
        """Close the socket and cancel in-flight pushes."""
        for future in tuple(self._inflight):
            future.cancel()
        self._inflight.clear()
        self.transport.close()

    def crash(self) -> None:
        """Fail-stop the node: no more sends, receives, or timer fires.

        Peers observe the crash only as timeouts — exactly the failure
        model the suspicion machinery is built for.
        """
        self._crashed = True
        self.close()

    # ------------------------------------------------------------------
    # The gossip timer
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if self._violation is not None:
            # Deliveries run in transport callbacks, with no caller to
            # raise into: the tick raises for them, to run_timers' caller.
            raise self._violation
        self.rounds += 1
        self.adam2.end_of_round(self.rounds)
        if self.scheduler == "probabilistic" and self.adam2.should_start_instance():
            self._spawn(self.trigger_instance())
        if not self.adam2.instances or len(self.directory) == 0:
            return
        if len(self._inflight) >= self.max_inflight:
            self.pushes_skipped += 1
            return
        peer_id = self.directory.select(self.rng)
        if peer_id is not None:
            try:
                self._push(peer_id)
            except Exception as exc:  # e.g. a state the codec refuses
                self._push_failed(exc)

    def _push_failed(self, exc: BaseException) -> None:
        """Count an unexpected push-path exception and hand it, traceback
        and all, to the loop's handler: the timer keeps ticking (TTLs
        must), but not silently — counters() surfaces the count."""
        self.push_errors += 1
        asyncio.get_running_loop().call_exception_handler(
            {"message": f"node {self.node_id}: push failed", "exception": exc}
        )

    def _spawn(self, coro: Any) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._inflight.add(task)
        task.add_done_callback(self._on_spawned_done)

    def _on_spawned_done(self, task: asyncio.Future[Any]) -> None:
        # Unbind *and* observe: a discard-only callback leaves the task's
        # exception unretrieved, so a crashed bootstrap would only surface
        # as an asyncio log line at interpreter exit while the node keeps
        # believing it is gossiping.
        self._inflight.discard(task)
        exc = None if task.cancelled() else task.exception()
        if exc is not None:
            self._push_failed(exc)

    def _push(self, peer_id: int) -> None:
        # No await between reading the live states and encode_states
        # returning, so the datagram is the snapshot: nothing is cloned.
        states: Mapping[Hashable, InstanceState] = self.adam2.instances
        if len(states) > 1:
            # Highest TTL first: fit_states keeps a prefix, and the
            # youngest instances have the most averaging left to do.
            states = dict(sorted(states.items(), key=lambda kv: -kv[1].ttl))
        payload = self.codec.fit_states(states)
        if not payload:
            return
        msg_id = self.transport.next_msg_id()
        datagram = self.codec.encode_states(MSG_PUSH, self.node_id, msg_id, payload)
        pull = self.transport.request(datagram, self.directory.table.addresses[peer_id], msg_id)
        self._inflight.add(pull)
        pull.add_done_callback(partial(self._on_pull, peer_id))

    def _on_pull(self, peer_id: int, pull: asyncio.Future[Message]) -> None:
        """The push's request future is done: merge the pull, or record why not."""
        self._inflight.discard(pull)
        if pull.cancelled():
            return
        if pull.exception() is not None:
            self.push_failures += 1
            self.directory.mark_failure(peer_id)
            return
        self.directory.mark_alive(peer_id)
        try:
            self._merge(pull.result().states)
        except Exception as exc:
            self._push_failed(exc)

    # ------------------------------------------------------------------
    # Request handling (transport RequestHandler)
    # ------------------------------------------------------------------

    def handle_request(self, message: Message, codec: WireCodec) -> bytes | None:
        """Turn a decoded request into reply bytes (runs on the loop)."""
        if self._crashed:
            return None
        self.directory.mark_alive(message.sender)
        if message.kind == MSG_SAMPLE_REQUEST:
            return codec.encode_sample_response(self.node_id, message.msg_id, self.adam2.values)
        if message.kind != MSG_PUSH:
            return None
        records: list[bytes] = []
        self._merge(message.states, records)
        # Piggyback instances the sender has not seen yet, so instances
        # spread on pulls as well as pushes.
        for iid, state in self.adam2.instances.items():
            if iid not in message.states:
                records.append(codec.encode_state(iid, state))
        # Always reply, even with zero states: the pull doubles as the
        # acknowledgement, and a silent decline would read as a crash.
        return codec.pack_states(
            MSG_PULL, self.node_id, message.msg_id, codec.fit_records(records)
        )

    def _merge(
        self, states: dict[Hashable, InstanceState], reply: list[bytes] | None = None
    ) -> None:
        """Run the protocol's receive step over one delivered message;
        for a push, ``reply`` collects the pull records."""
        before_merge = None
        if reply is not None:
            self._reply = reply
            before_merge = self._pull_record
        if not self.sanitize:
            self.adam2.receive(states, self.rounds, before_merge)
            return
        try:
            with checked_delivery(self.adam2, states, backend="net", round_index=self.rounds):
                self.adam2.receive(states, self.rounds, before_merge)
        except InvariantViolation as exc:
            if self._violation is None:
                self._violation = exc

    def _pull_record(self, iid: Hashable, local: InstanceState) -> None:
        # Called after the join and before the merge: the bytes are the
        # pre-merge snapshot (no clone), and the initiator merging them
        # completes the mass-conserving symmetric exchange.
        self._reply.append(self.codec.encode_state(iid, local))

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------

    async def trigger_instance(self) -> Hashable:
        """Start a new aggregation instance at this node as initiator.

        Bootstraps thresholds from attribute values collected over real
        sample round-trips at up to ``neighbour_sample`` peers; peers
        that time out simply contribute nothing (gossip redundancy).
        """
        peers = self.directory.sample(self.neighbour_sample, self.rng)
        pools: list[np.ndarray] = []
        if peers:
            addresses = self.directory.table.addresses
            replies = await asyncio.gather(
                *(self._sample_peer(addresses[peer_id]) for peer_id in peers),
                return_exceptions=True,
            )
            for peer_id, outcome in zip(peers, replies):
                if isinstance(outcome, BaseException):
                    self.directory.mark_failure(peer_id)
                    continue
                self.directory.mark_alive(peer_id)
                pools.append(outcome)
        if pools:
            neighbour_values = np.concatenate(pools)
        else:
            neighbour_values = self.adam2.values
        return self.adam2.start_instance(
            neighbour_values=neighbour_values, round_=self.rounds
        )

    async def _sample_peer(self, address: tuple[str, int]) -> np.ndarray:
        msg_id = self.transport.next_msg_id()
        datagram = self.codec.encode_sample_request(self.node_id, msg_id)
        reply = await self.transport.request(datagram, address, msg_id)
        return reply.values


# ----------------------------------------------------------------------
# The gossip clock: every daemon's timer, fired from loop callbacks
# ----------------------------------------------------------------------


class _Clock:
    """The timers of one :func:`run_timers` call: at most one armed
    handle per daemon, re-armed from its own callback.  Each handle
    holds ``fire`` bound to this object, so :meth:`close` cancels and
    forgets them all — a kept one would be a cycle through every daemon.
    """

    __slots__ = ("loop", "done", "left", "handles")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        #: resolves when every daemon is done; fails with a tick's exception
        self.done: asyncio.Future[None] = loop.create_future()
        #: fires still owed, per daemon not yet done
        self.left: dict[NodeDaemon, int] = {}
        self.handles: dict[NodeDaemon, asyncio.TimerHandle] = {}

    def arm(self, daemon: NodeDaemon) -> None:
        jitter = 1.0 + daemon.period_jitter * (2.0 * float(daemon.rng.random()) - 1.0)
        self.handles[daemon] = self.loop.call_later(
            daemon.gossip_period * jitter, self.fire, daemon
        )

    def fire(self, daemon: NodeDaemon) -> None:
        # A daemon crashed while its handle was armed stops here, unticked.
        if not daemon._crashed:
            try:
                daemon._tick()
            except Exception as exc:
                # Fail the awaiting caller; raising here would only reach
                # the loop's exception handler and leave the call hanging.
                if not self.done.done():
                    self.done.set_exception(exc)
                return
            left = self.left[daemon] - 1
            if left and not daemon._crashed:
                self.left[daemon] = left
                self.arm(daemon)
                return
        del self.left[daemon]
        if not self.left and not self.done.done():
            self.done.set_result(None)

    def close(self) -> None:
        for handle in self.handles.values():
            handle.cancel()
        self.handles.clear()
        self.left.clear()


async def run_timers(daemons: Sequence[NodeDaemon], rounds: int) -> None:
    """Run each daemon's gossip timer for ``rounds`` local fires.

    The one clock behind :meth:`NodeDaemon.run`, ``LocalCluster.run_rounds``
    and process mode.  Each daemon's clock runs free — one jitter draw
    from its own generator per fire, re-armed once its tick returns — so
    no barrier holds a fast daemon back; a caller that wants one runs
    ``rounds=1`` per round.  A crashed daemon stops at its next fire
    without ticking.  A tick's exception is raised here, and every exit
    cancels every handle.
    """
    clock = _Clock(asyncio.get_running_loop())
    started: list[NodeDaemon] = []
    try:
        for daemon in daemons:
            if daemon._running:
                raise NetworkError(f"daemon {daemon.node_id} is already running")
            daemon._running = True
            started.append(daemon)
        if rounds > 0:
            for daemon in started:
                if not daemon._crashed:
                    clock.left[daemon] = rounds
                    clock.arm(daemon)
        if clock.left:
            await clock.done
    finally:
        clock.close()
        for daemon in started:
            daemon._running = False


# ----------------------------------------------------------------------
# Process mode: one daemon per OS process
# ----------------------------------------------------------------------


def _summary_payload(daemon: NodeDaemon) -> dict[str, Any]:
    """JSON-serialisable summary of one node's run (process mode)."""
    completed = [
        {
            "instance_id": list(record.instance_id),
            "thresholds": [float(t) for t in record.estimate.thresholds],
            "fractions": [float(f) for f in record.estimate.fractions],
            "minimum": float(record.estimate.minimum),
            "maximum": float(record.estimate.maximum),
            "system_size": record.system_size,
            "round": record.round,
        }
        for record in daemon.adam2.completed
    ]
    return {
        "node_id": daemon.node_id,
        "rounds": daemon.rounds,
        "completed": completed,
        "values": [float(v) for v in daemon.adam2.values],
        "messages_sent": daemon.transport.messages_sent,
        "bytes_sent": daemon.transport.bytes_sent,
        "messages_received": daemon.transport.messages_received,
        "retries": daemon.transport.retries,
        "timeouts": daemon.transport.timeouts,
        "duplicates_suppressed": daemon.transport.duplicates_suppressed,
        "push_failures": daemon.push_failures,
    }


def _start_barrier() -> None:
    """Report ``ready`` to the parent, then block until it says ``go``."""
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if line.strip() != "go":
        raise NetworkError(f"start barrier: expected 'go' on stdin, got {line!r}")


async def _run_spec(spec: dict[str, Any]) -> dict[str, Any]:
    """Execute one node process from its JSON spec; returns the summary."""
    config = Adam2Config(**spec.get("config", {}))
    rng = make_rng(int(spec["seed"]))
    fault = None
    drop_rate = float(spec.get("drop_rate", 0.0))
    if drop_rate > 0.0:
        fault = FaultInjector(spawn(rng), drop_rate=drop_rate)
    daemon = NodeDaemon(
        int(spec["node_id"]),
        np.asarray(spec["values"], dtype=float),
        config,
        rng,
        codec=WireCodec(int(spec.get("max_datagram", 8192))),
        gossip_period=float(spec.get("gossip_period", 0.05)),
        period_jitter=float(spec.get("period_jitter", 0.1)),
        neighbour_sample=spec.get("neighbour_sample"),
        sanitize=spec.get("sanitize"),
        fault=fault,
        transport_options=spec.get("transport_options"),
    )
    await daemon.open(str(spec.get("host", "127.0.0.1")), int(spec["port"]))
    for peer_id, host, port in spec.get("peers", []):
        daemon.add_peer(int(peer_id), (str(host), int(port)))
    try:
        # The barrier blocks a worker thread: the loop keeps answering
        # peers that got their go first.
        await asyncio.to_thread(_start_barrier)
        trigger_at = spec.get("trigger_at")
        rounds = int(spec["rounds"])
        if trigger_at is None:
            await daemon.run(rounds)
        else:
            head = max(0, min(int(trigger_at), rounds))
            await daemon.run(head)
            await daemon.trigger_instance()
            await daemon.run(rounds - head)
        await daemon.drain()
        return _summary_payload(daemon)
    finally:
        daemon.close()


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.net.node --spec spec.json [--out result.json]``"""
    parser = argparse.ArgumentParser(description="Run one Adam2 node daemon")
    parser.add_argument("--spec", required=True, help="path to the node's JSON spec")
    parser.add_argument("--out", default=None, help="summary path (default: stdout)")
    ns = parser.parse_args(argv)
    with open(ns.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    summary = asyncio.run(_run_spec(spec))
    payload = json.dumps(summary)
    if ns.out is None:
        print(payload)
    else:
        with open(ns.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
