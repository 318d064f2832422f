"""The asyncio UDP transport: reliable-enough request/response over datagrams.

One :class:`UdpTransport` owns one UDP endpoint (one node's socket) and
implements the delivery machinery the gossip daemon builds on:

* **request/response correlation** — a push (or sample request) datagram
  carries a sender-scoped message id; the matching pull (or sample
  response) echoes it, resolving the request's future.
* **bounded retry** — one ``call_later`` timer per request, re-armed from
  its own callback: an unanswered request is resent with exponential
  backoff plus jitter; after ``max_retries`` resends the future fails
  with :class:`~repro.errors.TransportTimeout` (the daemon records a
  peer failure).  However the future ends — reply, timeout, ``close()``,
  or its holder cancelling it — its done-callback disarms the timer.
* **duplicate suppression** — responders keep a bounded reply cache
  keyed by ``(sender, msg_id)``; a retried request is answered from the
  cache *without re-invoking the handler*, so a lost response never
  causes a double merge (at-most-once delivery for protocol effects).
* **fault injection** — an optional :class:`~repro.net.faults.FaultInjector`
  applies seeded drop/delay/reorder faults to every outgoing datagram.

The transport knows datagrams and message kinds, never protocol state:
the daemon supplies a handler that turns a decoded request into reply
payload bytes.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Protocol

import numpy as np

from repro.errors import CodecError, NetworkError, TransportTimeout
from repro.net.codec import Message, WireCodec
from repro.net.faults import FaultInjector

__all__ = ["RequestHandler", "UdpTransport"]


class RequestHandler(Protocol):
    """What the transport needs from the daemon: request -> reply bytes."""

    def handle_request(self, message: Message, codec: WireCodec) -> bytes | None:
        """Handle a decoded request; return the encoded reply (or None)."""


@dataclass(slots=True)
class _Pending:
    """One unanswered request: its future and the retry timer's state."""

    future: asyncio.Future[Message]
    datagram: bytes
    address: tuple[str, int]
    #: base wait before the next resend (grows by ``backoff``)
    timeout: float
    #: datagrams sent for this request so far
    sends: int = 0
    timer: asyncio.TimerHandle = field(init=False)


class UdpTransport(asyncio.DatagramProtocol):
    """One node's UDP endpoint with retries, dedup, and fault injection.

    Args:
        codec: wire codec shared by the cluster (one version, one budget).
        rng: seeded generator for retry jitter.
        handler: daemon-side request handler (may be set after
            construction, but before the first datagram arrives).
        request_timeout: seconds before the first retry of a request.
        max_retries: resend attempts after the initial send.
        backoff: multiplicative timeout growth per retry.
        retry_jitter: uniform extra fraction of the timeout added per
            attempt, desynchronising retry storms.
        dedup_size: bounded size of the duplicate-suppression reply cache.
        fault: optional outgoing fault injector (tests, smoke runs).
    """

    def __init__(
        self,
        codec: WireCodec,
        rng: np.random.Generator,
        *,
        handler: RequestHandler | None = None,
        request_timeout: float = 0.2,
        max_retries: int = 3,
        backoff: float = 1.6,
        retry_jitter: float = 0.25,
        dedup_size: int = 4096,
        fault: FaultInjector | None = None,
    ):
        if request_timeout <= 0.0:
            raise NetworkError(f"request timeout {request_timeout} must be positive")
        if max_retries < 0 or backoff < 1.0 or retry_jitter < 0.0 or dedup_size < 1:
            raise NetworkError("invalid retry/dedup parameters")
        self.codec = codec
        self.rng = rng
        self.handler = handler
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.retry_jitter = retry_jitter
        self.fault = fault
        self._dedup_size = dedup_size
        self._transport: asyncio.DatagramTransport | None = None
        self._address: tuple[str, int] | None = None
        self._pending: dict[int, _Pending] = {}
        self._reply_cache: OrderedDict[tuple[int, int], bytes] = OrderedDict()
        self._next_msg_id = 0
        # -- counters (observability reads these) -----------------------
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.retries = 0
        self.timeouts = 0
        self.duplicates_suppressed = 0
        self.decode_errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def open(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the UDP endpoint; returns the bound ``(host, port)``."""
        if self._transport is not None:
            raise NetworkError("transport is already open")
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: self, local_addr=(host, port)
        )
        self._transport = transport
        sockname = transport.get_extra_info("sockname")
        self._address = (str(sockname[0]), int(sockname[1]))
        return self._address

    @property
    def address(self) -> tuple[str, int]:
        """The bound endpoint address (only valid after :meth:`open`)."""
        if self._address is None:
            raise NetworkError("transport is not open")
        return self._address

    def close(self) -> None:
        """Close the socket for good and fail every pending request."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        # A closed endpoint answers nothing; letting go of the daemon also
        # unties the daemon <-> transport cycle, so a closed cluster is
        # freed on the spot instead of waiting for the cycle collector.
        self.handler = None
        for pending in self._pending.values():
            pending.timer.cancel()
            if not pending.future.done():
                pending.future.set_exception(TransportTimeout("transport closed"))
                # The requester may already be gone (daemon crash /
                # shutdown) and never retrieve this; mark it consumed.
                pending.future.exception()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def next_msg_id(self) -> int:
        """A fresh sender-scoped message id."""
        self._next_msg_id += 1
        return self._next_msg_id

    def send(self, datagram: bytes, address: tuple[str, int]) -> None:
        """Fire one datagram through the fault model (no reply tracking)."""
        if self._transport is None:
            raise NetworkError("transport is not open")
        self.messages_sent += 1
        self.bytes_sent += len(datagram)
        if self.fault is not None and self.fault.active:
            self.fault.send(self._raw_send, datagram, address)
        else:
            self._raw_send(datagram, address)

    def _raw_send(self, datagram: bytes, address: tuple[str, int]) -> None:
        if self._transport is not None:  # closed mid-delay: drop silently
            self._transport.sendto(datagram, address)

    def request(
        self, datagram: bytes, address: tuple[str, int], msg_id: int
    ) -> asyncio.Future[Message]:
        """Send a request datagram; the future resolves to its response.

        Await the future, or attach a done-callback to it — the daemon's
        pushes do the latter, so a gossip tick costs no task.  The *same
        bytes* are resent on every retry, so a responder that already
        processed the request answers retries from its reply cache
        instead of re-merging.  Cancelling the future abandons the
        request: no further retry is sent.
        """
        if msg_id in self._pending:
            raise NetworkError(f"message id {msg_id} already has a pending request")
        future: asyncio.Future[Message] = asyncio.get_running_loop().create_future()
        pending = _Pending(future, datagram, address, self.request_timeout)
        self._attempt(pending)
        self._pending[msg_id] = pending
        future.add_done_callback(partial(self._forget, msg_id))
        return future

    def _attempt(self, pending: _Pending) -> None:
        """Send the request once more and arm the timer for its reply."""
        self.send(pending.datagram, pending.address)
        pending.sends += 1
        wait = pending.timeout * (1.0 + self.retry_jitter * float(self.rng.random()))
        pending.timeout *= self.backoff
        pending.timer = pending.future.get_loop().call_later(wait, self._on_timer, pending)

    def _on_timer(self, pending: _Pending) -> None:
        """No reply within the wait: resend, or fail the request."""
        if pending.future.done():
            return  # settled this very iteration; _forget is already queued
        if pending.sends <= self.max_retries:
            self.retries += 1
            self._attempt(pending)
        else:
            self.timeouts += 1
            pending.future.set_exception(TransportTimeout(
                f"no response from {pending.address} after {pending.sends} attempts"
            ))

    def _forget(self, msg_id: int, future: asyncio.Future[Message]) -> None:
        """The request's future is done, whichever way: disarm its timer."""
        pending = self._pending.pop(msg_id, None)
        if pending is not None:
            pending.timer.cancel()

    # ------------------------------------------------------------------
    # asyncio.DatagramProtocol
    # ------------------------------------------------------------------

    def datagram_received(self, data: bytes, addr: tuple[str, int]) -> None:
        self.messages_received += 1
        try:
            message = self.codec.decode(data)
        except CodecError:
            # A malformed datagram from the wire is the peer's bug (or
            # noise), not ours: count it and move on — crashing the
            # event loop would turn line noise into a node failure.
            self.decode_errors += 1
            return
        if message.wants_reply:
            self._handle_request(message, addr)
        else:
            pending = self._pending.get(message.msg_id)
            if pending is not None and not pending.future.done():
                pending.future.set_result(message)
            # else: a late/duplicate response; the exchange already
            # completed (or timed out) — nothing left to resolve.

    def _handle_request(self, message: Message, addr: tuple[str, int]) -> None:
        key = (message.sender, message.msg_id)
        cached = self._reply_cache.get(key)
        if cached is not None:
            # Retried request: the handler already ran (the reply was
            # lost, not the request) — answer from the cache so protocol
            # state is touched at most once per msg_id.  An empty cache
            # entry records a request the handler answered with nothing.
            self.duplicates_suppressed += 1
            self._reply_cache.move_to_end(key)
            if cached:
                self.send(cached, addr)
            return
        if self.handler is None:
            return
        reply = self.handler.handle_request(message, self.codec)
        self._reply_cache[key] = reply if reply is not None else b""
        while len(self._reply_cache) > self._dedup_size:
            self._reply_cache.popitem(last=False)
        if reply is not None:
            self.send(reply, addr)

    def error_received(self, exc: OSError) -> None:  # pragma: no cover - host-dependent
        # ICMP errors (e.g. port unreachable after a peer crash) surface
        # here; the retry/timeout machinery already handles the loss.
        pass
