"""A read-only HTTP/1.1 JSON status surface for the estimation service.

Operators (and the restart smoke in CI) want to *look at* a running
service without speaking the query protocol: current version and
staleness, divergence history, restart counts, the served polyline, and
the obs hub's counters.  This module serves exactly that — four GET
routes over a tiny asyncio HTTP/1.1 implementation with no third-party
dependencies:

* ``GET /status``   — :meth:`ServiceHandle.status` (version, staleness,
  restart/divergence state, persistence info when durable);
* ``GET /estimate`` — polyline + metadata of the latest snapshot, or of
  ``?version=N``; 503 while nothing is published;
* ``GET /history``  — metadata of every retained snapshot (divergence
  trail), oldest first;
* ``GET /metrics``  — the hub's counters/gauges/histograms snapshot.

The surface is deliberately read-only (no pin/unpin, no refresh): every
mutation stays on the authenticated-by-locality TCP query protocol.
Responses are ``Connection: close`` — status polls are rare and
one-shot, so connection reuse buys nothing and keeps the server loop
trivial.  Lives in :mod:`repro.net` because it binds a real socket
(ADM008: the one package allowed to).
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.errors import NetworkError, ServiceError

if TYPE_CHECKING:  # runtime import stays lazy (repro.service imports repro.api)
    from repro.service.handle import ServiceHandle

__all__ = ["StatusServer"]

_MAX_REQUEST_LINE = 8 * 1024
_MAX_HEADER_BYTES = 32 * 1024

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}

_ROUTES = ("/status", "/estimate", "/history", "/metrics")


def _response(status: int, body: dict[str, object] | list[object]) -> bytes:
    payload = json.dumps(body, separators=(",", ":")).encode()
    phrase = _STATUS_PHRASES.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode()
    return head + payload


class StatusServer:
    """Serves one :class:`ServiceHandle`'s status over HTTP (read-only).

    One asyncio loop, ephemeral port with ``port=0`` (readable as
    :attr:`port` after :meth:`start`).  Use as an async context manager,
    as :func:`~repro.net.service_endpoint.serve_blocking` does on its
    one loop, whichever side answers the queries.
    """

    def __init__(
        self,
        handle: "ServiceHandle",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.handle = handle
        self.host = host
        self._requested_port = port
        self._server: asyncio.Server | None = None
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise NetworkError("status server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._requested_port
        )
        sockets = self._server.sockets or ()
        if not sockets:  # pragma: no cover - start_server binds or raises
            raise NetworkError("status server bound no socket")
        self.port = int(sockets[0].getsockname()[1])

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            self.port = None

    async def __aenter__(self) -> "StatusServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- one connection = one request -----------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            out = await self._read_and_dispatch(reader)
            writer.write(out)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_and_dispatch(self, reader: asyncio.StreamReader) -> bytes:
        request_line = await reader.readline()
        if not request_line or len(request_line) > _MAX_REQUEST_LINE:
            return _response(400, {"error": "unreadable request line"})
        # Drain headers up to the blank line; the surface ignores them
        # (no bodies, no content negotiation) but must consume them to
        # answer pipelined-free clients like curl correctly.
        drained = 0
        while True:
            line = await reader.readline()
            drained += len(line)
            if line in (b"\r\n", b"\n", b""):
                break
            if drained > _MAX_HEADER_BYTES:
                return _response(400, {"error": "header section too large"})
        return self._dispatch(request_line)

    def _dispatch(self, request_line: bytes) -> bytes:
        metrics = self.handle.hub.metrics
        metrics.counter("http_requests_total").inc()
        try:
            parts = request_line.decode("latin-1").split()
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            parts = []
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            metrics.counter("http_errors_total").inc()
            return _response(400, {"error": "malformed request line"})
        method, target, _version = parts
        if method != "GET":
            metrics.counter("http_errors_total").inc()
            return _response(405, {"error": f"method {method} not allowed; GET only"})
        split = urlsplit(target)
        status, body = self._route(split.path, parse_qs(split.query))
        if status >= 400:
            metrics.counter("http_errors_total").inc()
        return _response(status, body)

    # -- routes ---------------------------------------------------------

    def _route(
        self, path: str, query: dict[str, list[str]]
    ) -> tuple[int, dict[str, object] | list[object]]:
        if path == "/status":
            return 200, self.handle.status()
        if path == "/history":
            return 200, list(self.handle.history())
        if path == "/metrics":
            return 200, self.handle.metrics()
        if path == "/estimate":
            return self._estimate(query)
        return 404, {
            "error": f"unknown path {path!r}",
            "routes": list(_ROUTES),
        }

    def _estimate(
        self, query: dict[str, list[str]]
    ) -> tuple[int, dict[str, object]]:
        version: int | None = None
        raw = query.get("version", [])
        if raw:
            try:
                version = int(raw[-1])
            except ValueError:
                return 400, {"error": f"version must be an integer, got {raw[-1]!r}"}
        store = self.handle.store
        try:
            snapshot = store.latest() if version is None else store.get(version)
        except ServiceError as exc:
            return 503, {"error": exc.code, "message": str(exc)}
        xs, ys = snapshot.estimate.polyline()
        return 200, {
            "meta": snapshot.meta(),
            "polyline": {"xs": xs.tolist(), "ys": ys.tolist()},
        }
