"""Multi-worker serving: an SO_REUSEPORT process pool for the endpoint.

One asyncio loop saturates one core.  This module scales the query
frontend horizontally while keeping the protocol byte-identical to the
single-loop :class:`~repro.net.service_endpoint.ServiceEndpoint`:
every worker *process* binds its own listening socket with
``SO_REUSEPORT`` on the shared port, and the kernel load-balances
incoming connections across them — no user-space accept loop, no
handoff.  Each worker owns a private
:class:`~repro.service.query.QueryEngine` (with its own LRU) over a
local :class:`~repro.service.store.EstimateStore` *replica* that mirrors
the publisher's store through the **snapshot feed**: the parent
subscribes to the live store and fans every published
:class:`~repro.service.store.EstimateSnapshot` out over one queue per
worker; workers :meth:`~repro.service.store.EstimateStore.adopt` the
(immutable, picklable) snapshots, so every replica serves identical
versions without any shared mutable state.  Hosts without
``SO_REUSEPORT`` serve from the single loop instead
(:func:`~repro.net.service_endpoint.serve_blocking` falls back to it).

Control-plane ops served by a worker answer from the worker's own view:
``pin``/``unpin`` act on the replica; ``status`` reports the serving
worker's identity so clients can observe the kernel's balancing.

This module lives in :mod:`repro.net` because it opens sockets and
spawns serving processes — the ADM008 fence keeps everything below
:mod:`repro.service` host-independent.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import queue
import socket
import threading
import time
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import NetworkError, ServiceError
from repro.net.frames import FrameCodec
from repro.net.service_endpoint import QueryConnection, close_server
from repro.service.protocol import QueryDispatcher
from repro.service.query import QueryEngine
from repro.service.store import EstimateSnapshot, EstimateStore

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

__all__ = ["ServiceWorkerPool", "WorkerControl", "reuseport_available"]

#: seconds the parent waits for the worker processes to report ready
_READY_TIMEOUT = 20.0
#: seconds between liveness checks of the workers not yet ready
_READY_POLL = 0.2
#: snapshot versions a worker replica retains (pins are worker-local)
_REPLICA_HISTORY = 16


def reuseport_available() -> bool:
    """True when this platform can bind two sockets with ``SO_REUSEPORT``."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        first = _reuseport_socket("127.0.0.1", 0, listen=False)
    except OSError:
        return False
    try:
        port = first.getsockname()[1]
        try:
            second = _reuseport_socket("127.0.0.1", port, listen=False)
        except OSError:
            return False
        second.close()
        return True
    finally:
        first.close()


def _reuseport_socket(host: str, port: int, *, listen: bool) -> socket.socket:
    """A TCP socket bound with ``SO_REUSEPORT`` (sync helper: ADM010).

    With ``listen=False`` the socket only *reserves* the port: a bound
    but non-listening TCP socket receives no connections, so the parent
    can hold an ephemeral port open while the workers bind their own
    listening sockets to it.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(128)
    except BaseException:
        sock.close()
        raise
    return sock


class WorkerControl:
    """The control plane a serving worker exposes (its own store view)."""

    def __init__(
        self,
        store: EstimateStore,
        engine: QueryEngine,
        *,
        worker_id: int,
    ) -> None:
        self._store = store
        self._engine = engine
        self.worker_id = worker_id

    def status(self) -> dict[str, object]:
        try:
            newest = self._store.latest()
            latest: dict[str, object] | None = newest.meta()
            backend: str | None = newest.backend
            n_nodes: int | None = newest.n_nodes
        except ServiceError:
            latest = backend = n_nodes = None
        return {
            "backend": backend,
            "n_nodes": n_nodes,
            "latest": latest,
            "versions": self._store.versions(),
            "pinned": self._store.pinned(),
            "cache": self._engine.cache_info(),
            "worker": self.worker_id,
            "worker_pid": os.getpid(),
            "serving_mode": "reuseport",
        }

    def history(self) -> list[dict[str, object]]:
        return self._store.history()

    def pin(self, version: int) -> EstimateSnapshot:
        return self._store.pin(version)

    def unpin(self, version: int) -> None:
        self._store.unpin(version)


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------

def _worker_main(
    host: str,
    port: int,
    worker_id: int,
    initial: Sequence[EstimateSnapshot],
    feed: "multiprocessing.queues.Queue[EstimateSnapshot | None]",
    ready: "multiprocessing.queues.Queue[tuple[int, int | str]]",
) -> None:
    """One serving process: replica store + engine + reuseport listener."""
    try:
        store = EstimateStore(max_history=_REPLICA_HISTORY)
        for snapshot in initial:
            store.adopt(snapshot)
        engine = QueryEngine(store)
        control = WorkerControl(store, engine, worker_id=worker_id)
        dispatcher = QueryDispatcher(engine, control)
        sock = _reuseport_socket(host, port, listen=True)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        ready.put((worker_id, f"{type(exc).__name__}: {exc}"))
        return
    ready.put((worker_id, os.getpid()))
    try:
        asyncio.run(_worker_serve(sock, store, dispatcher, feed))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass


async def _worker_serve(
    sock: socket.socket,
    store: EstimateStore,
    dispatcher: QueryDispatcher,
    feed: "multiprocessing.queues.Queue[EstimateSnapshot | None]",
) -> None:
    """Serve connections until the feed delivers its ``None`` sentinel."""
    loop = asyncio.get_running_loop()
    stop: asyncio.Future[None] = loop.create_future()
    codec = FrameCodec()

    def pump() -> None:
        # Blocking queue reads belong in a thread; adoption is
        # thread-safe, so snapshots go straight into the replica and
        # only the stop signal crosses into the loop.
        while True:
            snapshot = feed.get()
            if snapshot is None:
                break
            store.adopt(snapshot)
        try:
            loop.call_soon_threadsafe(_resolve_stop, stop)
        except RuntimeError:  # pragma: no cover - loop already gone
            pass

    thread = threading.Thread(target=pump, name="snapshot-feed", daemon=True)
    thread.start()

    live: set[QueryConnection] = set()
    server = await loop.create_server(
        lambda: QueryConnection(dispatcher, codec, live), sock=sock
    )
    try:
        await stop
    finally:
        await close_server(server, live)


def _resolve_stop(stop: "asyncio.Future[None]") -> None:
    if not stop.done():
        stop.set_result(None)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------

class ServiceWorkerPool:
    """Serves one estimate store from a pool of worker processes on one port.

    Args:
        store: the live publishing store (the parent's); the workers
            replicate it through the snapshot feed.
        workers: serving worker processes.
        host / port: bind address; port ``0`` picks an ephemeral port,
            readable as :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        store: EstimateStore,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if workers < 1:
            raise NetworkError("need at least one worker")
        self.store = store
        self.workers = workers
        self.host = host
        self._requested_port = port
        #: the bound port between start() and stop()
        self.port: int | None = None
        self._placeholder: socket.socket | None = None
        self._processes: list[multiprocessing.process.BaseProcess] = []
        self._feeds: list[Any] = []
        self._fan_out_cb: Any = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self.port is not None:
            raise NetworkError("worker pool already started")
        if not reuseport_available():
            raise NetworkError("SO_REUSEPORT is not available on this platform")
        try:
            self._start_workers()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self._fan_out_cb is not None:
            self.store.unsubscribe(self._fan_out_cb)
            self._fan_out_cb = None
        self._teardown_workers()
        self.port = None

    def __enter__(self) -> "ServiceWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- worker processes ----------------------------------------------

    def _start_workers(self) -> None:
        ctx = self._mp_context()
        self._placeholder = _reuseport_socket(
            self.host, self._requested_port, listen=False
        )
        port = int(self._placeholder.getsockname()[1])
        feeds = [ctx.Queue() for _ in range(self.workers)]
        ready: Any = ctx.Queue()

        # Subscribe before snapshotting the current history: a publish
        # racing start() lands in the queues (adoption is idempotent, so
        # overlap with the initial set is harmless), never in a gap.
        def fan_out(snapshot: EstimateSnapshot) -> None:
            for feed in feeds:
                feed.put(snapshot)

        self.store.subscribe(fan_out)
        self._fan_out_cb = fan_out
        self._feeds = feeds
        initial = [self.store.get(v) for v in self.store.versions()]

        for worker_id, feed in enumerate(feeds):
            process = ctx.Process(
                target=_worker_main,
                args=(self.host, port, worker_id, initial, feed, ready),
                daemon=True,
                name=f"adam2-serve-{worker_id}",
            )
            process.start()
            self._processes.append(process)

        pending = set(range(self.workers))
        deadline = time.monotonic() + _READY_TIMEOUT
        while pending:
            # Sampled before the wait: whatever a worker wrote before it
            # died is readable by now, so a queue that then stays empty
            # means it went without reporting (SIGKILL, the OOM killer).
            dead = [
                (worker_id, self._processes[worker_id].exitcode)
                for worker_id in sorted(pending)
                if not self._processes[worker_id].is_alive()
            ]
            try:
                worker_id, outcome = ready.get(timeout=_READY_POLL)
            except queue.Empty:
                if dead:
                    worker_id, exitcode = dead[0]
                    raise NetworkError(
                        f"worker {worker_id} died before reporting ready "
                        f"(exit code {exitcode})"
                    ) from None
                if time.monotonic() >= deadline:
                    raise NetworkError(
                        f"worker(s) {sorted(pending)} never reported ready"
                    ) from None
                continue
            if isinstance(outcome, str):
                raise NetworkError(
                    f"worker {worker_id} failed to start: {outcome}"
                )
            pending.discard(worker_id)

        self.port = port

    def _mp_context(self) -> "BaseContext":
        methods = multiprocessing.get_all_start_methods()
        # fork is cheapest and inherits nothing we rely on (all worker
        # state travels through explicit, picklable args).
        return multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )

    def _teardown_workers(self) -> None:
        for feed in self._feeds:
            try:
                feed.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue closed
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        for feed in self._feeds:
            try:
                feed.close()
            except (OSError, ValueError):  # pragma: no cover
                pass
        self._feeds = []
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
