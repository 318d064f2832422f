"""UDP transport: request/response, retries, dedup, fault injection."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import NetworkError, TransportTimeout
from repro.net.codec import Message, WireCodec
from repro.net.faults import FaultInjector
from repro.net.transport import UdpTransport
from repro.net.virtual import run_virtual
from repro.rngs import make_rng


class EchoHandler:
    """Replies to every sample request with fixed values; counts calls."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.calls = 0

    def handle_request(self, message: Message, codec: WireCodec) -> bytes | None:
        self.calls += 1
        return codec.encode_sample_response(99, message.msg_id, self.values)


class SilentHandler:
    """Never replies (a peer that declines everything)."""

    def __init__(self):
        self.calls = 0

    def handle_request(self, message: Message, codec: WireCodec) -> bytes | None:
        self.calls += 1
        return None


class DropFirst:
    """Deterministic fault: drop the first ``count`` outgoing datagrams."""

    active = True

    def __init__(self, count: int):
        self.remaining = count
        self.dropped = 0

    def send(self, send_fn, datagram: bytes, address) -> None:
        if self.remaining > 0:
            self.remaining -= 1
            self.dropped += 1
            return
        send_fn(datagram, address)


def run(coro):
    """On kernel sockets and the wall clock (``run_virtual``: neither)."""
    return asyncio.run(coro)


async def open_pair(codec, *, handler=None, fault=None, **options):
    a = UdpTransport(codec, make_rng(1), **options)
    b = UdpTransport(codec, make_rng(2), handler=handler, fault=fault, **options)
    await a.open()
    await b.open()
    return a, b


class TestRequestResponse:
    def test_round_trip(self):
        async def scenario():
            codec = WireCodec()
            handler = EchoHandler([1.0, 2.0, 3.0])
            a, b = await open_pair(codec, handler=handler)
            try:
                msg_id = a.next_msg_id()
                reply = await a.request(
                    codec.encode_sample_request(0, msg_id), b.address, msg_id
                )
                np.testing.assert_array_equal(reply.values, [1.0, 2.0, 3.0])
                assert handler.calls == 1
                assert a.retries == 0 and a.timeouts == 0
            finally:
                a.close()
                b.close()

        run(scenario())

    def test_timeout_after_retry_budget(self):
        async def scenario():
            codec = WireCodec()
            a, b = await open_pair(
                codec, handler=SilentHandler(),
                request_timeout=0.02, max_retries=2, backoff=1.2,
            )
            try:
                msg_id = a.next_msg_id()
                with pytest.raises(TransportTimeout, match="3 attempts"):
                    await a.request(
                        codec.encode_sample_request(0, msg_id), b.address, msg_id
                    )
                assert a.retries == 2
                assert a.timeouts == 1
            finally:
                a.close()
                b.close()

        run_virtual(scenario())

    def test_duplicate_msg_id_rejected(self):
        async def scenario():
            codec = WireCodec()
            a, b = await open_pair(
                codec, handler=SilentHandler(), request_timeout=0.05, max_retries=0
            )
            try:
                msg_id = a.next_msg_id()
                datagram = codec.encode_sample_request(0, msg_id)
                first = asyncio.ensure_future(a.request(datagram, b.address, msg_id))
                await asyncio.sleep(0.01)
                with pytest.raises(NetworkError, match="pending"):
                    await a.request(datagram, b.address, msg_id)
                with pytest.raises(TransportTimeout):
                    await first
            finally:
                a.close()
                b.close()

        run_virtual(scenario())

    def test_close_fails_pending_requests(self):
        async def scenario():
            codec = WireCodec()
            a, b = await open_pair(
                codec, handler=SilentHandler(), request_timeout=5.0
            )
            msg_id = a.next_msg_id()
            pending = asyncio.ensure_future(
                a.request(codec.encode_sample_request(0, msg_id), b.address, msg_id)
            )
            await asyncio.sleep(0.01)
            a.close()
            b.close()
            with pytest.raises(TransportTimeout, match="closed"):
                await pending

        run_virtual(scenario())


class TestRetryAndDedup:
    def test_lost_request_is_retried_to_success(self):
        async def scenario():
            codec = WireCodec()
            handler = EchoHandler([7.0])
            a = UdpTransport(
                codec, make_rng(1), request_timeout=0.03, fault=DropFirst(1)
            )
            b = UdpTransport(codec, make_rng(2), handler=handler)
            await a.open()
            await b.open()
            try:
                msg_id = a.next_msg_id()
                reply = await a.request(
                    codec.encode_sample_request(0, msg_id), b.address, msg_id
                )
                np.testing.assert_array_equal(reply.values, [7.0])
                assert a.retries >= 1
                assert handler.calls == 1  # the drop ate the request, not the reply
            finally:
                a.close()
                b.close()

        run_virtual(scenario())

    def test_lost_reply_answered_from_cache_without_rerunning_handler(self):
        """At-most-once: a retried request must not re-invoke the handler."""

        async def scenario():
            codec = WireCodec()
            handler = EchoHandler([4.0])
            a = UdpTransport(codec, make_rng(1), request_timeout=0.03)
            b = UdpTransport(
                codec, make_rng(2), handler=handler, fault=DropFirst(1)
            )
            await a.open()
            await b.open()
            try:
                msg_id = a.next_msg_id()
                reply = await a.request(
                    codec.encode_sample_request(0, msg_id), b.address, msg_id
                )
                np.testing.assert_array_equal(reply.values, [4.0])
                assert handler.calls == 1  # second arrival hit the reply cache
                assert b.duplicates_suppressed == 1
            finally:
                a.close()
                b.close()

        run_virtual(scenario())

    def test_none_reply_is_also_deduplicated(self):
        """A handler that declines is still not re-invoked on retries."""

        async def scenario():
            codec = WireCodec()
            handler = SilentHandler()
            a = UdpTransport(
                codec, make_rng(1), request_timeout=0.02, max_retries=2
            )
            b = UdpTransport(codec, make_rng(2), handler=handler)
            await a.open()
            await b.open()
            try:
                msg_id = a.next_msg_id()
                with pytest.raises(TransportTimeout):
                    await a.request(
                        codec.encode_sample_request(0, msg_id), b.address, msg_id
                    )
                assert handler.calls == 1
                assert b.duplicates_suppressed == 2
            finally:
                a.close()
                b.close()

        run_virtual(scenario())

    def test_malformed_datagram_counted_not_fatal(self):
        async def scenario():
            codec = WireCodec()
            handler = EchoHandler([1.0])
            a, b = await open_pair(codec, handler=handler)
            try:
                a.send(b"not an adam2 datagram", b.address)
                await asyncio.sleep(0.02)
                assert b.decode_errors == 1
                msg_id = a.next_msg_id()  # endpoint still works afterwards
                reply = await a.request(
                    codec.encode_sample_request(0, msg_id), b.address, msg_id
                )
                np.testing.assert_array_equal(reply.values, [1.0])
            finally:
                a.close()
                b.close()

        run(scenario())


class DropAll:
    """100 % loss; remembers when each attempt was made."""

    active = True

    def __init__(self):
        self.sent_at = []

    def send(self, send_fn, datagram: bytes, address) -> None:
        self.sent_at.append(asyncio.get_running_loop().time())


class TestRetryTimerLifecycle:
    """One future and one re-armed timer per request; nothing outlives it."""

    TIMEOUT = 0.03

    async def settle_and_watch(self, a: UdpTransport, record=None) -> None:
        """Past every possible retry, nothing more was sent or is pending."""
        sent = a.messages_sent
        await asyncio.sleep(self.TIMEOUT * 4)
        assert a.messages_sent == sent
        assert a._pending == {}
        if record is not None:  # and the timer was disarmed, not left to fire
            assert record.timer.cancelled()

    def test_no_retry_after_the_reply_arrived(self):
        async def scenario():
            codec = WireCodec()
            a, b = await open_pair(
                codec, handler=EchoHandler([1.0]), request_timeout=self.TIMEOUT
            )
            try:
                msg_id = a.next_msg_id()
                future = a.request(codec.encode_sample_request(0, msg_id), b.address, msg_id)
                record = a._pending[msg_id]
                await future
                assert a._pending == {} and a.messages_sent == 1
                assert record.timer.cancelled()
                await self.settle_and_watch(a)
                assert a.retries == 0 and a.timeouts == 0
            finally:
                a.close()
                b.close()

        run_virtual(scenario())

    def test_no_retry_after_close(self):
        async def scenario():
            codec = WireCodec()
            a, b = await open_pair(
                codec, handler=SilentHandler(), request_timeout=self.TIMEOUT
            )
            msg_id = a.next_msg_id()
            future = a.request(codec.encode_sample_request(0, msg_id), b.address, msg_id)
            record = a._pending[msg_id]
            a.close()
            assert a._pending == {}
            await self.settle_and_watch(a, record)
            assert isinstance(future.exception(), TransportTimeout)
            assert a.retries == 0 and a.timeouts == 0  # closed, not timed out
            b.close()

        run_virtual(scenario())

    def test_no_retry_after_the_waiter_is_cancelled(self):
        async def scenario():
            codec = WireCodec()
            a, b = await open_pair(
                codec, handler=SilentHandler(), request_timeout=self.TIMEOUT
            )
            try:
                async def waiter(msg_id):
                    return await a.request(
                        codec.encode_sample_request(0, msg_id), b.address, msg_id
                    )

                task = asyncio.ensure_future(waiter(a.next_msg_id()))
                await asyncio.sleep(0)
                assert len(a._pending) == 1 and a.messages_sent == 1
                (record,) = a._pending.values()
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                await self.settle_and_watch(a, record)
                # cancelling the bare future (the daemon's close path) too
                msg_id = a.next_msg_id()
                future = a.request(codec.encode_sample_request(0, msg_id), b.address, msg_id)
                record = a._pending[msg_id]
                future.cancel()
                await asyncio.sleep(0)
                assert a.messages_sent == 2
                await self.settle_and_watch(a, record)
                assert a.retries == 0 and a.timeouts == 0
            finally:
                a.close()
                b.close()

        run_virtual(scenario())

    def test_total_loss_follows_the_backoff_schedule(self):
        """max_retries + 1 sends, one jitter draw each, then the timeout."""

        async def scenario():
            codec = WireCodec()
            fault = DropAll()
            options = dict(request_timeout=0.02, max_retries=3, backoff=1.5, retry_jitter=0.5)
            a = UdpTransport(codec, make_rng(41), fault=fault, **options)
            await a.open()
            try:
                msg_id = a.next_msg_id()
                started = asyncio.get_running_loop().time()
                with pytest.raises(TransportTimeout, match="after 4 attempts"):
                    await a.request(
                        codec.encode_sample_request(0, msg_id), ("127.0.0.1", 9), msg_id
                    )
                finished = asyncio.get_running_loop().time()
                assert a.messages_sent == 4 and len(fault.sent_at) == 4
                assert a.retries == 3 and a.timeouts == 1
                assert a._pending == {}
                reference = make_rng(41)
                waits = [
                    0.02 * 1.5**attempt * (1.0 + 0.5 * float(reference.random()))
                    for attempt in range(4)
                ]
                assert a.rng.random() == reference.random()  # exactly 4 draws
                # On virtual time the schedule is exact, not merely bounded.
                marks = fault.sent_at + [finished]
                assert marks[0] == started
                for wait, earlier, later in zip(waits, marks, marks[1:]):
                    assert later - earlier == pytest.approx(wait, rel=1e-12)
                await self.settle_and_watch(a)
            finally:
                a.close()

        run_virtual(scenario())

    def test_request_on_a_closed_transport_leaves_nothing_armed(self):
        async def scenario():
            codec = WireCodec()
            a = UdpTransport(codec, make_rng(1))
            await a.open()
            a.close()
            with pytest.raises(NetworkError, match="not open"):
                a.request(codec.encode_sample_request(0, 1), ("127.0.0.1", 9), 1)
            assert a._pending == {} and a.messages_sent == 0

        run(scenario())


class TestFaultInjector:
    def test_drop_rate_drops_datagrams(self):
        sent = []
        fault = FaultInjector(make_rng(3), drop_rate=0.5)
        for i in range(200):
            fault.send(lambda d, a: sent.append(d), b"x%d" % i, ("h", 1))
        assert fault.dropped > 50
        assert len(sent) + fault.dropped == 200

    def test_reorder_swaps_adjacent_datagrams(self):
        sent = []
        fault = FaultInjector(make_rng(6), reorder_rate=0.9)
        fault.send(lambda d, a: sent.append(d), b"first", ("h", 1))
        fault.send(lambda d, a: sent.append(d), b"second", ("h", 1))
        assert sent == [b"second", b"first"]
        assert fault.reordered == 1

    def test_delay_defers_via_event_loop(self):
        async def scenario():
            sent = []
            fault = FaultInjector(make_rng(5), delay_range=(0.01, 0.02))
            fault.send(lambda d, a: sent.append(d), b"payload", ("h", 1))
            assert sent == []
            await asyncio.sleep(0.05)
            assert sent == [b"payload"]

        run_virtual(scenario())

    def test_invalid_rates_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            FaultInjector(make_rng(0), drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultInjector(make_rng(0), delay_range=(0.2, 0.1))
