"""Virtual time for the node-daemon runtime: a jumping clock and an
in-memory datagram fabric (DESIGN.md §8, "Virtual time").

:class:`VirtualLoop` is a stock :class:`asyncio.SelectorEventLoop` whose
selector polls nothing: where the loop would wait ``timeout`` seconds
for I/O until its next scheduled handle, ``select`` returns no events
and moves the loop's clock forward by ``timeout``.  Its datagram
endpoints live in memory: ``sendto`` is one ``call_soon`` of the
delivery, and a datagram whose address is unknown or closed when it
lands is dropped, as UDP drops it.  The daemon, transport, codec and
fault injector above it are the production code, unchanged;
``backend="async"`` runs them through :func:`run_virtual` where
``backend="net"`` uses :func:`asyncio.run`.

Limits: no real file descriptor can be watched (registering one
raises), there are no threads, and a loop with nothing ready or
scheduled raises instead of blocking forever.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Callable, Coroutine, Mapping, TypeVar

from repro.errors import NetworkError

__all__ = ["VirtualLoop", "run_virtual"]

T = TypeVar("T")

Address = tuple[str, int]

#: first port handed out for ``port=0`` binds (the IANA ephemeral range)
_FIRST_PORT = 49152


class _Selector(selectors.BaseSelector):
    """Polls nothing: ``select(timeout)`` is the clock jumping by ``timeout``.

    Only the loop's own self-pipe, registered while the loop is being
    built, may be watched; after :attr:`sealed` is set any registration
    raises.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.sealed = False
        self._keys: dict[int, selectors.SelectorKey] = {}

    def register(
        self, fileobj: Any, events: int, data: Any = None
    ) -> selectors.SelectorKey:
        if self.sealed:
            raise NetworkError(
                f"a virtual-time loop cannot watch a real file descriptor ({fileobj!r})"
            )
        fd = fileobj if isinstance(fileobj, int) else fileobj.fileno()
        key = selectors.SelectorKey(fileobj, fd, events, data)
        self._keys[fd] = key
        return key

    def unregister(self, fileobj: Any) -> selectors.SelectorKey:
        fd = fileobj if isinstance(fileobj, int) else fileobj.fileno()
        return self._keys.pop(fd)

    def select(
        self, timeout: float | None = None
    ) -> list[tuple[selectors.SelectorKey, int]]:
        if timeout is None:
            # Nothing ready, nothing scheduled: a real loop would block on
            # I/O forever, and no virtual datagram can ever arrive.
            raise NetworkError(
                "virtual-time loop is idle: nothing is ready or scheduled, "
                "so the awaited result can never arrive"
            )
        self.now += timeout
        return []

    def get_map(self) -> Mapping[Any, selectors.SelectorKey]:
        return self._keys


class _Endpoint(asyncio.DatagramTransport):
    """One bound in-memory datagram endpoint."""

    def __init__(
        self, loop: "VirtualLoop", protocol: asyncio.DatagramProtocol, sockname: Address
    ) -> None:
        super().__init__({"sockname": sockname})
        self._loop = loop
        self._protocol = protocol
        self._sockname = sockname
        self._closing = False

    def sendto(self, data: Any, addr: Any = None) -> None:
        if self._closing:
            return  # like a closed socket transport: ignored
        self._loop.call_soon(self._loop._deliver, bytes(data), addr, self._sockname)

    def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        del self._loop._endpoints[self._sockname]
        self._loop.call_soon(self._protocol.connection_lost, None)


class VirtualLoop(asyncio.SelectorEventLoop):
    """An event loop on virtual time with an in-memory UDP fabric.

    ``time()`` starts at 0.0 and only moves when the loop would wait;
    every endpoint it creates lives in the loop's address table.
    """

    def __init__(self) -> None:
        self._clock = _Selector()
        super().__init__(self._clock)
        self._clock.sealed = True  # the self-pipe is registered; nothing more
        self._endpoints: dict[Address, _Endpoint] = {}
        self._next_port = _FIRST_PORT

    def time(self) -> float:
        return self._clock.now

    async def create_datagram_endpoint(  # type: ignore[override]
        self,
        protocol_factory: Callable[[], asyncio.DatagramProtocol],
        local_addr: Address | None = None,
        remote_addr: Address | None = None,
        **kwargs: Any,
    ) -> tuple[asyncio.DatagramTransport, asyncio.DatagramProtocol]:
        """Bind an in-memory endpoint at ``local_addr`` (port 0 picks one)."""
        if remote_addr is not None or kwargs.get("sock") is not None:
            raise NetworkError("virtual endpoints take only local_addr")
        host, port = local_addr if local_addr is not None else ("127.0.0.1", 0)
        if port == 0:
            port = self._next_port
            self._next_port += 1
        sockname = (str(host), int(port))
        if sockname in self._endpoints:
            raise OSError(f"virtual address {sockname} is already in use")
        protocol = protocol_factory()
        endpoint = _Endpoint(self, protocol, sockname)
        self._endpoints[sockname] = endpoint
        protocol.connection_made(endpoint)
        return endpoint, protocol

    def _deliver(self, data: bytes, addr: Address, sender: Address) -> None:
        endpoint = self._endpoints.get(addr)
        if endpoint is not None:  # unknown or closed on arrival: dropped
            endpoint._protocol.datagram_received(data, sender)


def run_virtual(main: Coroutine[Any, Any, T]) -> T:
    """Run ``main`` to completion on a fresh :class:`VirtualLoop`.

    The virtual-time counterpart of :func:`asyncio.run` (which gained a
    ``loop_factory`` only in Python 3.12), with the same teardown:
    leftover tasks are cancelled and awaited, async generators shut
    down, the loop closed.  There is no default executor to shut down.
    """
    loop = VirtualLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            _cancel_all_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


def _cancel_all_tasks(loop: asyncio.AbstractEventLoop) -> None:
    pending = asyncio.all_tasks(loop)
    if not pending:
        return
    for task in pending:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
    for task in pending:
        if task.cancelled():
            continue
        if task.exception() is not None:
            loop.call_exception_handler({
                "message": "unhandled exception during run_virtual() shutdown",
                "exception": task.exception(),
                "task": task,
            })
