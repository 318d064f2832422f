"""TCP frontend for the continuous estimation service.

The endpoint exposes a :class:`~repro.service.handle.ServiceHandle` over
a newline-delimited JSON protocol — one request object per line, one
response object per line, requests answered in order per connection:

Request::

    {"id": 7, "op": "cdf", "x": 1.5}
    {"id": 8, "op": "quantile", "q": 0.9, "version": 3}
    {"id": 9, "op": "fraction", "a": 2048, "b": 1e12}
    {"op": "batch", "ops": [{"op": "cdf", "x": 1.5}, {"op": "size"}]}
    {"op": "size"} / {"op": "status"} / {"op": "pin", "version": 3}

Response::

    {"id": 7, "ok": true, "value": 0.42, "version": 5}
    {"id": 8, "ok": false, "error": "unavailable", "message": "..."}
    {"ok": true, "results": [{"ok": true, "value": 0.42}, ...]}

``error`` is one of ``bad_request`` (caller mistake — bad JSON, unknown
op, invalid arguments), ``unavailable`` (nothing published / version
evicted), or ``server_error`` (the 5xx class; a healthy service never
produces one).  Request parsing, execution, and tracing all live in the
typed protocol layer (:mod:`repro.service.protocol`): this module is
transport only.

Connections start in JSON-lines mode and may upgrade in-band to the
compact length-prefixed binary codec (:mod:`repro.net.frames`) with
``{"op": "frame", "frame": "binary"}`` — the acknowledgement is the last
JSON line on the connection.  Clients may also *pipeline*: write many
request lines (or frames) before reading; responses come back in order.

For serving beyond one event loop, :class:`~repro.net.service_worker.
ServiceWorkerPool` runs the same connection protocol from a pool of
``SO_REUSEPORT`` worker processes — see :mod:`repro.net.service_worker`.
This module lives in :mod:`repro.net` because it opens real sockets —
the ADM008 fence keeps :mod:`repro.service` itself host-independent.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.errors import CodecError, NetworkError, ServiceError
from repro.net.frames import HEADER, KIND_BATCH_REQUEST, KIND_REQUEST, FrameCodec
from repro.net.httpstatus import StatusServer
from repro.service.protocol import (
    BatchRequest,
    BatchResponse,
    QueryDispatcher,
    QueryRequest,
    QueryResponse,
    parse_request,
)

if TYPE_CHECKING:  # runtime import stays lazy (repro.service imports repro.api)
    from repro.service.handle import ServiceHandle

__all__ = [
    "ServiceClient",
    "ServiceEndpoint",
    "process_frame",
    "process_json_line",
    "serve_blocking",
]

_MAX_LINE = 64 * 1024


def _json_line(wire: Mapping[str, Any]) -> bytes:
    return json.dumps(wire, separators=(",", ":")).encode() + b"\n"


# ----------------------------------------------------------------------
# Transport-agnostic per-message steps (shared with the worker pool)
# ----------------------------------------------------------------------

def process_json_line(
    dispatcher: QueryDispatcher, codec: FrameCodec, line: bytes
) -> tuple[bytes, bool]:
    """One JSON-lines request -> ``(response bytes, upgraded_to_binary)``.

    Handles the in-band ``{"op": "frame", ...}`` negotiation; everything
    else goes through the dispatcher.  Shared by the asyncio endpoint
    and the worker processes, so every serving surface speaks
    byte-identical protocol.  Line length is bounded upstream:
    :class:`QueryConnection` refuses a line past ``_MAX_LINE``.
    """
    upgraded = False
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and the UnicodeDecodeError of
        # a line that is not UTF-8; nesting past the interpreter's
        # recursion limit fits well inside the line cap.
        response = dispatcher.failure_wire(
            "invalid", "bad_request", f"invalid JSON: {exc}"
        )
    else:
        if isinstance(payload, dict) and payload.get("op") == "frame":
            response, upgraded = _negotiate_frame(payload)
        else:
            response = dispatcher.dispatch_wire(payload)
    return _json_line(response), upgraded


def _negotiate_frame(payload: Mapping[str, Any]) -> tuple[dict[str, Any], bool]:
    request_id = payload.get("id")
    name = payload.get("frame")
    if name in ("binary", "json"):
        response: dict[str, Any] = {"ok": True, "frame": name}
        if request_id is not None:
            response["id"] = request_id
        return response, name == "binary"
    wire = QueryResponse.failure(
        "bad_request",
        f"unknown frame {name!r}; supported: binary, json",
        request_id=request_id if isinstance(request_id, (int, str)) else None,
    ).to_wire()
    return wire, False


def process_frame(
    dispatcher: QueryDispatcher, codec: FrameCodec, kind: int, payload: bytes
) -> bytes:
    """One binary request frame -> the encoded response frame."""
    if kind not in (KIND_REQUEST, KIND_BATCH_REQUEST):
        return codec.encode_response(QueryResponse.failure(
            "bad_request", f"frame kind {kind} is not a request"
        ))
    try:
        request = codec.decode_request(kind, payload)
    except CodecError as exc:
        return codec.encode_response(
            QueryResponse.failure("bad_request", str(exc))
        )
    return codec.encode_response(dispatcher.dispatch(request))


# ----------------------------------------------------------------------
# The asyncio endpoint
# ----------------------------------------------------------------------

class QueryConnection(asyncio.Protocol):
    """One client connection, served from its ``data_received`` callback.

    Each TCP segment is appended to one buffer; every complete JSON line
    (or, after the in-band upgrade, binary frame) in it goes through
    :func:`process_json_line` / :func:`process_frame` in arrival order,
    and the segment's replies leave in one ``transport.write`` — so
    clients may pipeline freely and a request costs one loop iteration.
    An unreadable frame header or a line past ``_MAX_LINE`` is answered
    and the connection closed (neither stream can resynchronise); an
    unterminated last line is still served at EOF.  A peer that stops
    reading pauses this side's reads until its write buffer drains.
    ``live`` is the owner's set of open connections; ``on_error`` is
    told when a handler raises (only that connection is closed).
    """

    def __init__(
        self,
        dispatcher: QueryDispatcher,
        codec: FrameCodec,
        live: "set[QueryConnection]",
        on_error: Callable[[], None] | None = None,
    ) -> None:
        self.dispatcher = dispatcher
        self.codec = codec
        self.transport: asyncio.Transport | None = None
        self._live = live
        self._on_error = on_error
        self._buffer = bytearray()
        self._binary = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self._live.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._live.discard(self)

    def pause_writing(self) -> None:
        assert self.transport is not None
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        assert self.transport is not None
        self.transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve(at_eof=False)

    def eof_received(self) -> None:
        self._serve(at_eof=True)  # returning None lets the transport close

    def _serve(self, *, at_eof: bool) -> None:
        assert self.transport is not None
        replies: list[bytes] = []
        try:
            hang_up = self._answer_buffered(replies, at_eof)
        except Exception:
            # A handler bug: count it and let the transport report it and
            # drop this connection (only); earlier replies still leave.
            if self._on_error is not None:
                self._on_error()
            raise
        finally:
            if replies:
                self.transport.write(b"".join(replies))
        if hang_up:
            self.transport.close()

    def _answer_buffered(self, replies: list[bytes], at_eof: bool) -> bool:
        """Answer every complete message in the buffer; True = hang up."""
        buffer, dispatcher, codec = self._buffer, self.dispatcher, self.codec
        start = 0
        try:
            while True:
                if self._binary:
                    body = start + HEADER.size
                    if len(buffer) < body:
                        return False
                    try:
                        kind, length = codec.unpack_header(bytes(buffer[start:body]))
                    except CodecError as exc:
                        replies.append(codec.encode_response(
                            QueryResponse.failure("bad_request", str(exc))
                        ))
                        return True
                    if len(buffer) < body + length:
                        return False
                    start = body + length
                    replies.append(process_frame(
                        dispatcher, codec, kind, bytes(buffer[body:start])
                    ))
                    continue
                newline = buffer.find(b"\n", start)
                end = newline if newline >= 0 else len(buffer)
                if end - start > _MAX_LINE:
                    # The rest of that line cannot be told from a new
                    # request, so answer and hang up.
                    replies.append(_json_line(dispatcher.failure_wire(
                        "invalid", "bad_request", "request line too long"
                    )))
                    return True
                if newline < 0 and not (at_eof and end > start):
                    return False  # (at EOF: the unterminated last line is served)
                line, start = bytes(buffer[start:end + 1]), end + 1
                reply, self._binary = process_json_line(dispatcher, codec, line)
                replies.append(reply)
        finally:
            del buffer[:start]


async def close_server(server: asyncio.Server, live: "set[QueryConnection]") -> None:
    """Stop accepting, then drop every open connection, deterministically."""
    server.close()
    for connection in tuple(live):
        assert connection.transport is not None
        connection.transport.abort()
    await server.wait_closed()
    await asyncio.sleep(0)  # the aborts' connection_lost callbacks run here


class ServiceEndpoint:
    """Serves one :class:`ServiceHandle` to TCP clients (one event loop).

    The single-process frontend: every connection shares the handle's
    query engine (and its LRU cache) on one asyncio loop.  For a
    multi-core read path, see :class:`~repro.net.service_worker.
    ServiceWorkerPool`, which serves the same protocol from worker
    processes fed by store snapshots.
    """

    def __init__(
        self,
        handle: "ServiceHandle",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        codec: FrameCodec | None = None,
    ) -> None:
        self.handle = handle
        self.host = host
        self.codec = codec or FrameCodec()
        self.dispatcher = QueryDispatcher(
            handle.engine, handle, hub=handle.hub
        )
        self._requested_port = port
        self._server: asyncio.Server | None = None
        self.port: int | None = None
        self._connections: set[QueryConnection] = set()
        #: connections dropped because a handler raised an unexpected exception
        self.handler_errors = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        if self._server is not None:
            raise NetworkError("endpoint already started")
        self._server = await asyncio.get_running_loop().create_server(
            self._connection, self.host, self._requested_port
        )
        sockets = self._server.sockets or ()
        if not sockets:  # pragma: no cover - create_server always binds or raises
            raise NetworkError("endpoint bound no socket")
        self.port = int(sockets[0].getsockname()[1])

    async def stop(self) -> None:
        """Stop accepting and drop every live connection before returning."""
        if self._server is not None:
            await close_server(self._server, self._connections)
            self._server = None
            self.port = None

    async def __aenter__(self) -> "ServiceEndpoint":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- connection handling --------------------------------------------

    def _connection(self) -> QueryConnection:
        return QueryConnection(
            self.dispatcher, self.codec, self._connections, self._handler_failed
        )

    def _handler_failed(self) -> None:
        self.handler_errors += 1


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------

class ServiceClient:
    """Async client for a service endpoint or worker pool.

    Speaks JSON lines by default; pass ``frame="binary"`` to negotiate
    the length-prefixed binary codec right after connecting.  The typed
    surface is :meth:`call` (one :class:`QueryRequest`/:class:`BatchRequest`
    in, one typed response out) and :meth:`pipeline` (many in flight at
    once); :meth:`request` keeps the legacy raw-dict contract alive.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        frame: str = "json",
        codec: FrameCodec | None = None,
    ) -> None:
        if frame not in ("json", "binary"):
            raise ServiceError(f"unknown frame {frame!r}; supported: binary, json")
        self.host = host
        self.port = port
        self.codec = codec or FrameCodec()
        self._want_frame = frame
        self._frame = "json"
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 1

    @property
    def frame(self) -> str:
        """The negotiated frame codec of the live connection."""
        return self._frame

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._frame = "json"
        if self._want_frame == "binary":
            await self.negotiate_frame("binary")

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- typed surface --------------------------------------------------

    async def call(
        self, request: QueryRequest | BatchRequest
    ) -> QueryResponse | BatchResponse:
        """Send one typed request; returns the typed response."""
        self._send(request)
        await self._drain()
        return await self._receive()

    async def batch(
        self, requests: Sequence[QueryRequest]
    ) -> BatchResponse:
        """Send many ops as one request line/frame; positional results."""
        response = await self.call(BatchRequest(tuple(requests), self._take_id()))
        assert isinstance(response, BatchResponse)
        return response

    async def pipeline(
        self, requests: Iterable[QueryRequest | BatchRequest]
    ) -> list[QueryResponse | BatchResponse]:
        """Write every request before reading: one round trip, in order."""
        sent = 0
        for request in requests:
            self._send(request)
            sent += 1
        await self._drain()
        return [await self._receive() for _ in range(sent)]

    async def negotiate_frame(self, frame: str) -> None:
        """Switch the live connection's codec (``"binary"`` / ``"json"``)."""
        reader, writer = self._connected()
        writer.write(_json_line({"op": "frame", "frame": frame}))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise NetworkError("endpoint closed the connection during negotiation")
        response = json.loads(line)
        if not (isinstance(response, dict) and response.get("ok")):
            message = response.get("message") if isinstance(response, dict) else None
            raise ServiceError(
                str(message or f"frame negotiation for {frame!r} failed"),
                code="bad_request",
            )
        self._frame = frame

    # -- plumbing -------------------------------------------------------

    def _connected(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._reader is None or self._writer is None:
            raise NetworkError("client is not connected")
        return self._reader, self._writer

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id

    def _send(self, request: QueryRequest | BatchRequest) -> None:
        _, writer = self._connected()
        if self._frame == "binary":
            writer.write(self.codec.encode_request(request))
        else:
            writer.write(_json_line(request.to_wire()))

    async def _drain(self) -> None:
        _, writer = self._connected()
        await writer.drain()

    async def _receive(self) -> QueryResponse | BatchResponse:
        reader, _ = self._connected()
        if self._frame == "binary":
            try:
                header = await reader.readexactly(HEADER.size)
                kind, length = self.codec.unpack_header(header)
                payload = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise NetworkError("endpoint closed the connection") from exc
            return self.codec.decode_response(kind, payload)
        line = await reader.readline()
        if not line:
            raise NetworkError("endpoint closed the connection")
        decoded = json.loads(line)
        if not isinstance(decoded, dict):
            raise NetworkError(f"malformed response: {decoded!r}")
        if "results" in decoded:
            return BatchResponse.from_wire(decoded)
        return QueryResponse.from_wire(decoded)

    # -- legacy dict surface (kept working via the typed layer) ---------

    async def request(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Send one raw request object; returns the decoded response dict.

        The wire-level escape hatch: on a JSON connection the payload is
        sent verbatim (malformed payloads exercise the server's error
        classes); on a binary connection it is parsed through the typed
        protocol first, so only well-formed payloads can be expressed.
        """
        message = dict(payload)
        message.setdefault("id", self._take_id())
        if self._frame == "binary":
            response = await self.call(parse_request(message))
            return response.to_wire()
        reader, writer = self._connected()
        writer.write(_json_line(message))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise NetworkError("endpoint closed the connection")
        decoded = json.loads(line)
        if not isinstance(decoded, dict):
            raise NetworkError(f"malformed response: {decoded!r}")
        return decoded

    async def value(self, payload: Mapping[str, Any]) -> float:
        """Request + unwrap; raises :class:`ServiceError` on error replies."""
        response = await self.request(payload)
        return QueryResponse.from_wire(response).result()

    async def cdf(self, x: float, *, version: int | None = None) -> float:
        response = await self.call(QueryRequest.cdf(
            x, version=version, request_id=self._take_id()
        ))
        assert isinstance(response, QueryResponse)
        return response.result()

    async def quantile(self, q: float, *, version: int | None = None) -> float:
        response = await self.call(QueryRequest.quantile(
            q, version=version, request_id=self._take_id()
        ))
        assert isinstance(response, QueryResponse)
        return response.result()

    async def fraction_between(
        self, a: float, b: float, *, version: int | None = None
    ) -> float:
        response = await self.call(QueryRequest.fraction_between(
            a, b, version=version, request_id=self._take_id()
        ))
        assert isinstance(response, QueryResponse)
        return response.result()

    async def network_size(self, *, version: int | None = None) -> float:
        response = await self.call(QueryRequest.network_size(
            version=version, request_id=self._take_id()
        ))
        assert isinstance(response, QueryResponse)
        return response.result()

    async def status(self) -> dict[str, Any]:
        response = await self.call(QueryRequest.status(request_id=self._take_id()))
        assert isinstance(response, QueryResponse)
        payload = response.payload or {}
        status = payload.get("status")
        return dict(status) if isinstance(status, Mapping) else {}


# ----------------------------------------------------------------------
# Blocking serve loop
# ----------------------------------------------------------------------

def serve_blocking(
    handle: "ServiceHandle",
    *,
    host: str = "127.0.0.1",
    port: int = 9309,
    refresh_every: float = 5.0,
    max_cycles: int | None = None,
    announce: Any = print,
    workers: int = 1,
    http_port: int | None = None,
    http_host: str | None = None,
) -> None:
    """Serve a handle over TCP, refreshing the estimate in the background.

    One event loop for every ``workers`` value.  It hosts the optional
    read-only HTTP status surface (:mod:`repro.net.httpstatus`, on
    ``http_host``, default ``host``) and paces the scheduler: a refresh
    pause, then one cycle in a worker thread — never on the loop itself,
    because the ``net`` backend starts an event loop of its own per cycle.
    Queries are answered by a :class:`ServiceEndpoint` on the same loop,
    or, with ``workers > 1``, by a :class:`~repro.net.service_worker.
    ServiceWorkerPool` whose processes follow the store's snapshot feed;
    where the platform lacks ``SO_REUSEPORT`` the single endpoint serves
    instead (and says so through ``announce``).

    With ``max_cycles`` the call returns after that many refreshes
    (smoke tests); otherwise it serves until interrupted.  Every exit
    stops the pool and closes the handle, which seals a durable
    handle's snapshot log (:attr:`ServiceHandle.persistence`).
    """
    # Late import: service_worker imports this module's connection machinery.
    from repro.net.service_worker import ServiceWorkerPool, reuseport_available

    def say(message: str) -> None:
        if announce is not None:
            announce(message)

    async def _serve(pool: ServiceWorkerPool | None) -> None:
        loop = asyncio.get_running_loop()
        async with contextlib.AsyncExitStack() as stack:
            if pool is None:
                endpoint = await stack.enter_async_context(
                    ServiceEndpoint(handle, host=host, port=port)
                )
                say(f"serving on {endpoint.host}:{endpoint.port}")
            else:
                say(f"serving on {host}:{pool.port} ({pool.workers} reuseport workers)")
            if http_port is not None:
                status = await stack.enter_async_context(StatusServer(
                    handle, host=http_host if http_host is not None else host,
                    port=http_port,
                ))
                say(f"status on http://{status.host}:{status.port}/status")
            cycles = 0
            while max_cycles is None or cycles < max_cycles:
                await asyncio.sleep(refresh_every)
                await loop.run_in_executor(None, handle.scheduler.run_cycle)
                cycles += 1

    pool: ServiceWorkerPool | None = None
    try:
        if workers > 1:
            if reuseport_available():
                # Workers are forked, so they start before the loop and
                # its executor threads exist.
                pool = ServiceWorkerPool(handle.store, workers=workers, host=host, port=port)
                pool.start()
            else:
                say(f"SO_REUSEPORT unavailable: serving from one loop, not {workers} workers")
        asyncio.run(_serve(pool))
    finally:
        if pool is not None:
            pool.stop()
        handle.close()
