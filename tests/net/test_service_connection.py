"""The connection state machine behind every serving surface.

:class:`QueryConnection` is a callback protocol, so most of this drives
it with a fake transport — no sockets, no event loop, no timing: the
same scripted session however the bytes are cut, the in-band upgrade,
the two answered-then-closed cases, EOF, write back-pressure, a handler
that raises, and ``stop()``.  Each property also has one case over a
real loopback socket at the bottom.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.net import service_endpoint
from repro.net.frames import HEADER, KIND_REQUEST, FrameCodec
from repro.net.service_endpoint import (
    QueryConnection,
    ServiceEndpoint,
    process_frame,
    process_json_line,
)
from repro.net.service_worker import WorkerControl
from repro.obs import ObserverHub
from repro.service.protocol import BatchRequest, QueryDispatcher, QueryRequest
from repro.service.query import QueryEngine
from repro.service.store import EstimateStore

from tests.net.test_service_endpoint import make_handle, run
from tests.service.test_store import publish

CODEC = FrameCodec()


def make_dispatcher(hub: ObserverHub | None = None) -> QueryDispatcher:
    """A fresh store + engine + control plane: replies depend on nothing else."""
    hub = hub or ObserverHub()
    store = EstimateStore()
    publish(store)
    publish(store, offset=5.0)
    engine = QueryEngine(store, hub=hub)
    return QueryDispatcher(engine, WorkerControl(store, engine, worker_id=0), hub=hub)


class FakeTransport(asyncio.Transport):
    """Records what the protocol does to its transport.

    ``high_water`` models the write buffer: once more than that many
    bytes are unsent the protocol is told to pause, and
    :meth:`peer_reads` (the peer draining its socket) resumes it.
    """

    def __init__(self, protocol: QueryConnection, high_water: int = 64 * 1024) -> None:
        super().__init__()
        self.protocol = protocol
        self.high_water = high_water
        self.writes: list[bytes] = []
        self.unsent = 0
        self.reading = True
        self.write_paused = False
        self.closed = False
        self.aborted = False

    def write(self, data) -> None:
        assert not self.closed, "wrote after close"
        self.writes.append(bytes(data))
        self.unsent += len(data)
        if self.unsent > self.high_water and not self.write_paused:
            self.write_paused = True
            self.protocol.pause_writing()

    def peer_reads(self) -> None:
        self.unsent = 0
        if self.write_paused:
            self.write_paused = False
            self.protocol.resume_writing()

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    def abort(self) -> None:
        self.closed = self.aborted = True

    @property
    def written(self) -> bytes:
        return b"".join(self.writes)


def connect(dispatcher=None, on_error=None, **transport_options):
    live: set[QueryConnection] = set()
    connection = QueryConnection(dispatcher or make_dispatcher(), CODEC, live, on_error)
    transport = FakeTransport(connection, **transport_options)
    connection.connection_made(transport)
    assert live == {connection}
    return connection, transport, live


def deliver(segments, *, eof: bool = True, **options) -> FakeTransport:
    """Feed ``segments`` the way a selector transport would: nothing after close."""
    connection, transport, _ = connect(**options)
    for segment in segments:
        if transport.closed:
            break
        connection.data_received(segment)
    if eof and not transport.closed:
        if not connection.eof_received():
            transport.close()
    return transport


def receive(connection: QueryConnection, transport: FakeTransport, data: bytes) -> None:
    """``data_received`` as the selector transport calls it: an escaping
    exception is reported and the connection force-closed."""
    try:
        connection.data_received(data)
    except Exception:
        transport.abort()


def line(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


UPGRADE = line({"op": "frame", "frame": "binary", "id": 6})
JSON_PART = [
    line({"id": 1, "op": "cdf", "x": 15.0}),
    line({"id": 2, "op": "quantile", "q": 0.5}),
    line({"op": "batch", "id": 3, "ops": [
        {"op": "cdf", "x": 15.0}, {"op": "cdf", "x": True}, {"op": "size"},
    ]}),
    line({"op": "nope", "id": 4}),                      # a bad op
    b"this is not json\n",
    line({"op": "pin", "version": 1, "id": 5}),         # a control op
    line({"op": "status"}),
]
FRAME_PART = [
    CODEC.encode_request(QueryRequest.cdf(20.0, request_id=7)),
    CODEC.encode_request(BatchRequest((
        QueryRequest.cdf(15.0), QueryRequest.quantile(0.9),
        QueryRequest.fraction_between(12.0, 33.0), QueryRequest.network_size(),
    ), 8)),
    CODEC.frame(KIND_REQUEST, bytes((99, 0, 0))),       # a bad op code
    CODEC.encode_request(QueryRequest.unpin(1, request_id=9)),
    CODEC.encode_request(QueryRequest.status(request_id=10)),
    CODEC.encode_request(QueryRequest.fraction_between(10.0, 30.0, version=1, request_id=11)),
]
SESSION = b"".join(JSON_PART) + UPGRADE + b"".join(FRAME_PART)


def reference_replies() -> list[bytes]:
    """The session answered message by message through the public steps."""
    dispatcher = make_dispatcher()
    replies = [process_json_line(dispatcher, CODEC, item)[0] for item in JSON_PART]
    reply, upgraded = process_json_line(dispatcher, CODEC, UPGRADE)
    assert upgraded
    replies.append(reply)
    for frame in FRAME_PART:
        kind, _ = CODEC.unpack_header(frame[: HEADER.size])
        replies.append(process_frame(dispatcher, CODEC, kind, frame[HEADER.size:]))
    return replies


class TestScriptedSession:
    """Replies are byte-identical and in order however the bytes arrive."""

    def test_one_segment_is_answered_with_one_write(self):
        transport = deliver([SESSION])
        assert transport.writes == [b"".join(reference_replies())]
        assert transport.closed and not transport.aborted

    def test_one_byte_at_a_time(self):
        transport = deliver([SESSION[i:i + 1] for i in range(len(SESSION))])
        # One write per completed message, in order.
        assert transport.writes == reference_replies()

    def test_cut_at_every_offset(self):
        expected = b"".join(reference_replies())
        for cut in range(1, len(SESSION)):
            transport = deliver([SESSION[:cut], SESSION[cut:]])
            assert transport.written == expected, cut
            assert len(transport.writes) <= 2

    def test_a_message_per_segment(self):
        transport = deliver([*JSON_PART, UPGRADE, *FRAME_PART])
        assert transport.writes == reference_replies()

    def test_the_buffer_holds_only_the_incomplete_message(self):
        connection, transport, _ = connect()
        connection.data_received(JSON_PART[0] + JSON_PART[1][:5])
        assert bytes(connection._buffer) == JSON_PART[1][:5]
        connection.data_received(JSON_PART[1][5:] + UPGRADE + FRAME_PART[0][:3])
        assert bytes(connection._buffer) == FRAME_PART[0][:3]
        connection.data_received(FRAME_PART[0][3:])
        assert not connection._buffer
        assert len(transport.writes) == 3


class TestUpgrade:
    def test_upgrade_line_and_first_frame_in_one_segment(self):
        frame = FRAME_PART[0]
        transport = deliver([UPGRADE + frame])
        ack, answer = transport.written.split(b"\n", 1)
        assert json.loads(ack) == {"ok": True, "frame": "binary", "id": 6}
        kind, length = CODEC.unpack_header(answer[: HEADER.size])
        response = CODEC.decode_response(kind, answer[HEADER.size:])
        assert length == len(answer) - HEADER.size
        assert response.ok and response.request_id == 7

    def test_json_to_json_negotiation_keeps_reading_lines(self):
        transport = deliver([line({"op": "frame", "frame": "json"}) + JSON_PART[0]])
        first, second = transport.written.splitlines()
        assert json.loads(first) == {"ok": True, "frame": "json"}
        assert json.loads(second)["id"] == 1

    def test_unknown_frame_is_refused_and_the_connection_stays_json(self):
        transport = deliver([line({"op": "frame", "frame": "carrier-pigeon"}) + JSON_PART[0]])
        first, second = transport.written.splitlines()
        assert json.loads(first)["error"] == "bad_request"
        assert json.loads(second)["ok"] is True


class TestAnsweredThenClosed:
    """Neither stream can resynchronise: one reply, then the connection closes."""

    @pytest.mark.parametrize("terminated", [True, False])
    def test_overlong_line(self, terminated):
        big = b'{"op":"size","pad":"' + b"x" * 70_000 + (b'"}\n' if terminated else b"")
        transport = deliver([JSON_PART[0], big, JSON_PART[1]], eof=False)
        first, second = transport.written.splitlines()
        assert json.loads(first)["id"] == 1
        reply = json.loads(second)
        assert reply["error"] == "bad_request" and "too long" in reply["message"]
        assert transport.closed  # and deliver() fed nothing after the close

    def test_the_cap_is_on_the_line_not_on_the_segment(self):
        limit = service_endpoint._MAX_LINE
        at_the_cap = b'{"op":"size"}' + b" " * (limit - 13)
        assert len(at_the_cap) == limit
        transport = deliver([at_the_cap + b"\n" + JSON_PART[0]])
        assert [json.loads(r)["ok"] for r in transport.written.splitlines()] == [True, True]
        transport = deliver([at_the_cap + b" \n" + JSON_PART[0]])
        (reply,) = transport.written.splitlines()
        assert "too long" in json.loads(reply)["message"]
        # Unterminated, the cap trips as soon as the line cannot end in time.
        connection, transport, _ = connect()
        connection.data_received(at_the_cap)
        assert not transport.writes and not transport.closed
        connection.data_received(b" ")
        assert transport.closed and len(transport.writes) == 1

    def test_an_overlong_line_counts_as_a_query(self):
        hub = ObserverHub()
        deliver([JSON_PART[0] + b"x" * 70_000], dispatcher=make_dispatcher(hub))
        counters = hub.metrics.snapshot()["counters"]
        assert counters["queries_total"] == 2 and counters["queries_invalid_total"] == 1

    def test_bad_frame_header(self):
        good = FRAME_PART[0]
        bad = b"XX" + good[2:]
        transport = deliver([UPGRADE + good + bad + good], eof=False)
        answers = transport.written.split(b"\n", 1)[1]
        replies = []
        while answers:
            kind, length = CODEC.unpack_header(answers[: HEADER.size])
            replies.append(CODEC.decode_response(kind, answers[HEADER.size: HEADER.size + length]))
            answers = answers[HEADER.size + length:]
        assert [r.ok for r in replies] == [True, False]   # nothing after the refusal
        assert replies[1].error == "bad_request" and "magic" in replies[1].message
        assert transport.closed

    def test_oversized_frame_is_refused_from_its_header_alone(self):
        header = HEADER.pack(b"AQ", 1, KIND_REQUEST, CODEC.max_frame + 1)
        connection, transport, _ = connect()
        connection.data_received(UPGRADE + header)
        assert transport.closed and len(transport.writes) == 1


class TestEof:
    def test_unterminated_last_line_is_served(self):
        unterminated = JSON_PART[1].rstrip(b"\n")
        transport = deliver([JSON_PART[0] + unterminated])
        assert transport.written == b"".join(reference_replies()[:2])
        assert transport.closed

    def test_unterminated_garbage_gets_the_same_reply_as_ever(self):
        # The line goes to json.loads as it arrived — no newline added,
        # so the error position in the message is the old one.
        transport = deliver([b'{"op"'])
        expected, _ = process_json_line(make_dispatcher(), CODEC, b'{"op"')
        assert transport.written == expected

    def test_eof_inside_a_frame_answers_nothing(self):
        transport = deliver([UPGRADE + FRAME_PART[0][:-1]])
        assert transport.written == reference_replies()[len(JSON_PART)]  # the ack only
        assert transport.closed

    def test_clean_eof_writes_nothing(self):
        transport = deliver([])
        assert transport.writes == [] and transport.closed


class TestBackPressure:
    def test_a_peer_that_never_reads_pauses_reading_and_resumes(self):
        status = line({"op": "status"})
        connection, transport, _ = connect(high_water=2048)
        sent = 0
        while transport.reading:
            connection.data_received(status)  # a real transport stops calling here
            sent += 1
            assert sent < 100, "never paused"
        assert transport.write_paused and transport.unsent > 2048
        # Bounded: the mark plus the replies of the segment that crossed it.
        assert transport.unsent <= 2048 + len(transport.writes[-1])
        transport.peer_reads()
        assert transport.reading
        connection.data_received(status)
        assert len(transport.writes) == sent + 1
        assert not transport.closed

    def test_nothing_is_lost_across_a_pause(self):
        connection, transport, _ = connect(high_water=64)
        for item in (*JSON_PART, UPGRADE, *FRAME_PART):
            connection.data_received(item)
            transport.peer_reads()
        assert transport.writes == reference_replies()


class TestHandlerErrors:
    def test_an_escaping_exception_is_counted_and_closes_only_that_connection(
        self, monkeypatch
    ):
        real = service_endpoint.process_json_line

        def flaky(dispatcher, codec, data):
            if b"boom" in data:
                raise RuntimeError("handler bug")
            return real(dispatcher, codec, data)

        monkeypatch.setattr(service_endpoint, "process_json_line", flaky)
        errors: list[int] = []
        dispatcher = make_dispatcher()
        victim, victim_transport, _ = connect(dispatcher, lambda: errors.append(1))
        bystander, bystander_transport, _ = connect(dispatcher, lambda: errors.append(1))
        receive(victim, victim_transport, JSON_PART[0] + b'{"op":"boom"}\n' + JSON_PART[1])
        # The reply before the failure still leaves; nothing after it does.
        assert victim_transport.written == reference_replies()[0]
        assert victim_transport.aborted and errors == [1]
        bystander.data_received(JSON_PART[0])
        assert json.loads(bystander_transport.written)["ok"] is True
        assert not bystander_transport.closed

    def test_without_a_listener_the_exception_still_reaches_the_transport(self, monkeypatch):
        def explode(*args):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(service_endpoint, "process_frame", explode)
        connection, transport, _ = connect()
        with pytest.raises(RuntimeError, match="handler bug"):  # the transport's to report
            connection.data_received(UPGRADE + FRAME_PART[0])
        assert len(transport.writes) == 1  # the ack


class TestLiveSet:
    def test_connection_lost_leaves_the_set(self):
        connection, _, live = connect()
        connection.connection_lost(None)
        assert live == set()


# ----------------------------------------------------------------------
# The same properties over a real loopback socket
# ----------------------------------------------------------------------

async def exchange(port: int, payload: bytes, *, half_close: bool = True) -> bytes:
    """Send ``payload``, half-close, read to EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    if half_close:
        writer.write_eof()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data


async def read_to_eof(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.read()
    except ConnectionError:  # an abort with bytes still unread is a reset
        return b""


class TestOverRealSockets:
    def test_scripted_session_whole_and_byte_by_byte(self):
        handle = make_handle()

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                whole = await exchange(endpoint.port, SESSION)
                reader, writer = await asyncio.open_connection("127.0.0.1", endpoint.port)
                sock = writer.get_extra_info("socket")
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for i in range(len(SESSION)):
                    writer.write(SESSION[i:i + 1])
                    await writer.drain()
                    if i % 16 == 0:
                        await asyncio.sleep(0)
                writer.write_eof()
                dribbled = await reader.read()
                writer.close()
                await writer.wait_closed()
                return whole, dribbled, endpoint.handler_errors

        whole, dribbled, handler_errors = run(scenario())
        assert handler_errors == 0
        # Same handle, so the two sessions differ only where a reply
        # reports shared state (cache counters in `status`, pins): compare
        # everything else — count, order, ids and values.
        assert summary(whole) == summary(dribbled)
        assert len(summary(whole)) == len(JSON_PART) + 1 + len(FRAME_PART)

    def test_upgrade_and_first_frame_in_one_segment(self):
        handle = make_handle()

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                return await exchange(endpoint.port, UPGRADE + FRAME_PART[0])

        replies = summary(run(scenario()))
        assert replies == [("json", 6, True), ("frame", 7, True)]

    def test_bad_frame_header_is_answered_then_closed(self):
        handle = make_handle()

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                # No half-close: the server hangs up on its own.
                data = await exchange(
                    endpoint.port, UPGRADE + b"XX" + FRAME_PART[0][2:] + FRAME_PART[0],
                    half_close=False,
                )
                return data, endpoint.handler_errors

        data, handler_errors = run(scenario())
        assert summary(data) == [("json", 6, True), ("frame", None, False)]
        assert handler_errors == 0

    def test_unterminated_last_line_at_eof_is_served(self):
        handle = make_handle()

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                return await exchange(endpoint.port, JSON_PART[0] + b'{"op":"size","id":2}')

        assert summary(run(scenario())) == [("json", 1, True), ("json", 2, True)]

    def test_a_peer_that_never_reads_is_paused_then_fully_served(self):
        handle = make_handle()
        requests = 4000
        status = line({"op": "status"})

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                # A small receive buffer on the client and a small send
                # buffer on the server: the pipe fills after a few replies.
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, ("127.0.0.1", endpoint.port))
                reader, writer = await asyncio.open_connection(sock=sock, limit=1024)
                while not endpoint._connections:
                    await asyncio.sleep(0.001)
                (connection,) = endpoint._connections
                transport = connection.transport
                transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                high = transport.get_write_buffer_limits()[1]

                async def send_all():
                    for _ in range(requests):
                        writer.write(status)
                        await writer.drain()

                sender = asyncio.ensure_future(send_all())
                peak = 0
                for _ in range(5000):  # the reader's tiny limit keeps it from draining
                    peak = max(peak, transport.get_write_buffer_size())
                    if not transport.is_reading():
                        break
                    await asyncio.sleep(0.001)
                paused = not transport.is_reading()
                replies = 0
                while replies < requests:
                    assert await reader.readline()
                    replies += 1
                    peak = max(peak, transport.get_write_buffer_size())
                await sender
                resumed = transport.is_reading()
                writer.close()
                await writer.wait_closed()
                return paused, resumed, peak, high, endpoint.handler_errors

        paused, resumed, peak, high, handler_errors = run(scenario())
        assert paused and resumed and handler_errors == 0
        # Bounded by the high-water mark plus one read's worth of replies
        # (a 256 KiB read of 16-byte requests, ~40x amplified by `status`).
        assert peak <= high + 64 * 256 * 1024

    @pytest.mark.loop_errors
    def test_a_handler_exception_closes_only_that_connection(self, monkeypatch, loop_errors):
        real = service_endpoint.process_json_line

        def flaky(dispatcher, codec, data):
            if b"boom" in data:
                raise RuntimeError("handler bug")
            return real(dispatcher, codec, data)

        monkeypatch.setattr(service_endpoint, "process_json_line", flaky)
        handle = make_handle()

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                bystander_reader, bystander = await asyncio.open_connection(
                    "127.0.0.1", endpoint.port)
                victim = await exchange(
                    endpoint.port, JSON_PART[0] + b'{"op":"boom"}\n' + JSON_PART[1],
                    half_close=False,
                )
                bystander.write(JSON_PART[0])
                alive = await bystander_reader.readline()
                bystander.close()
                await bystander.wait_closed()
                return victim, alive, endpoint.handler_errors

        victim, alive, handler_errors = run(scenario())
        assert summary(victim) == [("json", 1, True)]
        assert json.loads(alive)["ok"] is True
        assert handler_errors == 1
        # The loop reports the dropped connection, and nothing else.
        assert [type(c.get("exception")) for c in loop_errors] == [RuntimeError]

    def test_stop_with_open_connections_leaves_no_transport_open(self):
        handle = make_handle()

        async def scenario():
            endpoint = ServiceEndpoint(handle, port=0)
            await endpoint.start()
            clients = [
                await asyncio.open_connection("127.0.0.1", endpoint.port) for _ in range(3)
            ]
            clients[0][1].write(JSON_PART[0])
            assert await clients[0][0].readline()
            clients[1][1].write(JSON_PART[0][:7])  # mid-request
            while len(endpoint._connections) < 3:
                await asyncio.sleep(0.001)
            transports = [c.transport for c in endpoint._connections]
            await endpoint.stop()
            state = (
                [t.is_closing() for t in transports],
                [t.get_extra_info("socket").fileno() for t in transports],
                set(endpoint._connections),
                endpoint.port,
            )
            leftovers = [await read_to_eof(reader) for reader, _ in clients]
            for _, writer in clients:
                writer.close()
            return state, leftovers, endpoint.handler_errors

        (closing, filenos, live, port), leftovers, handler_errors = run(scenario())
        assert closing == [True, True, True]
        assert filenos == [-1, -1, -1]  # sockets closed when stop() returned
        assert live == set() and port is None
        assert leftovers == [b"", b"", b""]
        assert handler_errors == 0


def summary(data: bytes) -> list[tuple[str, object, bool]]:
    """(framing, id, ok) per reply of a mixed JSON-then-binary reply stream."""
    replies: list[tuple[str, object, bool]] = []
    while data and data[:2] != b"AQ":
        head, data = data.split(b"\n", 1)
        reply = json.loads(head)
        replies.append(("json", reply.get("id"), reply["ok"]))
    while data:
        kind, length = CODEC.unpack_header(data[: HEADER.size])
        reply = CODEC.decode_response(kind, data[HEADER.size: HEADER.size + length])
        replies.append(("frame", reply.request_id, reply.ok))
        data = data[HEADER.size + length:]
    return replies
