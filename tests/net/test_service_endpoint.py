"""The TCP query frontend: protocol, error classes, concurrency."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.config import Adam2Config
from repro.obs import JsonlSink, MemorySink, ObserverHub
from repro.service import build_service
from repro.net.service_endpoint import ServiceClient, ServiceEndpoint
from repro.service.protocol import BatchRequest, QueryRequest
from repro.workloads.synthetic import uniform_workload

CONFIG = Adam2Config(points=24, rounds_per_instance=25)

#: request lines json.loads refuses with something other than JSONDecodeError
UNDECODABLE_LINES = [
    pytest.param(b"\x80abc\n", id="not-utf8"),
    pytest.param(b'{"op":"size","id":"\xff"}\n', id="not-utf8-in-a-string"),
    pytest.param(b"[" * 5000 + b"\n", id="nested-past-the-recursion-limit"),
]


def run(coro):
    return asyncio.run(coro)


def make_handle(hub=None, **overrides):
    kwargs = dict(backend="fast", n_nodes=400, seed=5)
    kwargs.update(overrides)
    if hub is not None:
        kwargs["hub"] = hub
    return build_service(CONFIG, uniform_workload(0, 1000), **kwargs)


@pytest.fixture(scope="module")
def handle():
    return make_handle()


class TestQueries:
    def test_round_trip_matches_in_process(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    return (
                        await client.cdf(500.0),
                        await client.quantile(0.5),
                        await client.fraction_between(100.0, 900.0),
                        await client.network_size(),
                    )

        cdf, quantile, fraction, size = run(scenario())
        assert cdf == pytest.approx(handle.cdf(500.0))
        assert quantile == pytest.approx(handle.quantile(0.5))
        assert fraction == pytest.approx(handle.fraction_between(100.0, 900.0))
        assert size == pytest.approx(handle.network_size())

    def test_status_pin_and_history(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    status = await client.status()
                    pinned = await client.request({"op": "pin", "version": 1})
                    history = await client.request({"op": "history"})
                    unpinned = await client.request({"op": "unpin", "version": 1})
                    return status, pinned, history, unpinned

        status, pinned, history, unpinned = run(scenario())
        assert status["backend"] == "fast" and 1 in status["versions"]
        assert pinned == {"ok": True, "pinned": 1, "id": pinned["id"]}
        assert [e["version"] for e in history["history"]] == status["versions"]
        assert unpinned["ok"]

    def test_request_ids_echoed(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    return await client.request({"op": "size", "id": 77})

        assert run(scenario())["id"] == 77


class TestErrors:
    def assert_error(self, handle, payload, code):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    return await client.request(payload)

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"] == code
        assert response["message"]

    def test_unknown_op(self, handle):
        self.assert_error(handle, {"op": "nope"}, "bad_request")

    def test_missing_field(self, handle):
        self.assert_error(handle, {"op": "cdf"}, "bad_request")

    def test_non_numeric_field(self, handle):
        self.assert_error(handle, {"op": "cdf", "x": "wide"}, "bad_request")

    def test_boolean_field_is_not_a_number(self, handle):
        # Regression: bool subclasses int, so a naive isinstance check
        # would serve {"op": "cdf", "x": true} as cdf(1.0).
        self.assert_error(handle, {"op": "cdf", "x": True}, "bad_request")
        self.assert_error(
            handle, {"op": "fraction", "a": False, "b": 2.0}, "bad_request"
        )
        self.assert_error(
            handle, {"op": "cdf", "x": 1.0, "version": True}, "bad_request"
        )

    def test_bad_quantile_level(self, handle):
        self.assert_error(handle, {"op": "quantile", "q": 3.0}, "bad_request")

    def test_evicted_version_is_unavailable(self, handle):
        self.assert_error(
            handle, {"op": "cdf", "x": 1.0, "version": 999}, "unavailable"
        )

    def test_cold_service_is_unavailable(self):
        cold = make_handle(warm_cycles=0)
        self.assert_error(cold, {"op": "cdf", "x": 1.0}, "unavailable")

    def test_invalid_json_line(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", endpoint.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return json.loads(line)

        response = run(scenario())
        assert response["ok"] is False and response["error"] == "bad_request"

    @pytest.mark.parametrize("line", UNDECODABLE_LINES)
    def test_undecodable_line_is_bad_request_and_the_connection_lives(self, line):
        # Regression: json.loads raises UnicodeDecodeError / RecursionError
        # (not JSONDecodeError) for these; the handler used to die, the
        # client got EOF and the request was missing from queries_total.
        handle = make_handle()
        counter = handle.hub.metrics.counter("queries_total")

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                before = counter.snapshot()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", endpoint.port
                )
                writer.write(line)
                first = await reader.readline()
                writer.write(b'{"op":"size"}\n')
                second = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return (first, second, endpoint.handler_errors,
                        counter.snapshot() - before)

        first, second, handler_errors, counted = run(scenario())
        reply = json.loads(first)
        assert reply["ok"] is False and reply["error"] == "bad_request"
        assert reply["message"].startswith("invalid JSON")
        assert json.loads(second)["ok"] is True
        assert handler_errors == 0
        assert counted == 2

    def test_non_object_request(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", endpoint.port
                )
                writer.write(b"[1, 2, 3]\n")
                await writer.drain()
                line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return json.loads(line)

        response = run(scenario())
        assert response["ok"] is False and response["error"] == "bad_request"


    def test_overlong_line_is_answered_then_closed(self, handle):
        # Regression: a line past the stream limit used to kill the
        # handler (ValueError out of readline) instead of answering.
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", endpoint.port
                )
                writer.write(b'{"op":"size","pad":"' + b"x" * 70_000 + b'"}\n')
                await writer.drain()
                line = await reader.readline()
                rest = await reader.read()
                writer.close()
                await writer.wait_closed()
                return json.loads(line), rest, endpoint.handler_errors

        response, rest, handler_errors = run(scenario())
        assert response["ok"] is False and response["error"] == "bad_request"
        assert "too long" in response["message"]
        assert rest == b""  # exactly one reply, then EOF
        assert handler_errors == 0

    def test_line_under_the_limit_is_served(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", endpoint.port
                )
                writer.write(b'{"op":"size"}' + b" " * 60_000 + b"\n")
                await writer.drain()
                line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return json.loads(line)

        response = run(scenario())
        assert response["ok"] is True
        assert response["value"] == pytest.approx(handle.network_size())


class TestObservability:
    def test_every_request_line_is_traced(self, tmp_path):
        trace = tmp_path / "queries.jsonl"
        sink = JsonlSink(trace)
        hub = ObserverHub([sink])
        handle = make_handle(hub=hub)

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    await client.cdf(500.0)
                    await client.cdf(500.0)  # cache hit
                    await client.request({"op": "status"})
                    await client.request({"op": "nope"})
                    # parse failure of an engine op: never reaches the
                    # engine, so the endpoint must trace it itself
                    await client.request({"op": "cdf", "x": "wide"})

        run(scenario())
        sink.close()
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        queries = [e for e in events if e["type"] == "query"]
        assert [q["op"] for q in queries] == [
            "cdf", "cdf", "status", "nope", "cdf"
        ]
        assert [q["cache_hit"] for q in queries] == [
            False, True, False, False, False
        ]
        for failed in queries[-2:]:
            assert failed["ok"] is False
            assert failed["error"] == "bad_request"
        assert all(q["latency_s"] >= 0.0 for q in queries)

    def test_engine_errors_counted_once(self):
        sink = MemorySink()
        handle = make_handle(hub=ObserverHub([sink]))

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    await client.request({"op": "quantile", "q": 9.0})

        run(scenario())
        failures = [e for e in sink.queries if not e.ok]
        assert len(failures) == 1  # the engine's event; no endpoint double


class TestBatch:
    def test_batch_partial_failure_over_the_wire(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    return await client.request({"op": "batch", "ops": [
                        {"op": "cdf", "x": 500.0},
                        {"op": "nope"},
                        {"op": "quantile", "q": 9.0},
                        {"op": "size"},
                    ], "id": 5})

        response = run(scenario())
        assert response["ok"] is True and response["id"] == 5
        oks = [r["ok"] for r in response["results"]]
        assert oks == [True, False, False, True]
        assert response["results"][1]["error"] == "bad_request"
        assert response["results"][0]["value"] == pytest.approx(
            handle.cdf(500.0)
        )

    def test_typed_batch_surface(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    batch = await client.batch([
                        QueryRequest.cdf(500.0),
                        QueryRequest.network_size(),
                    ])
                    return [r.result() for r in batch.results]

        cdf, size = run(scenario())
        assert cdf == pytest.approx(handle.cdf(500.0))
        assert size == pytest.approx(handle.network_size())

    def test_empty_batch_is_bad_request(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    return await client.request({"op": "batch", "ops": []})

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"] == "bad_request"


class TestBinaryFrames:
    def test_negotiated_binary_round_trip(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient(
                    "127.0.0.1", endpoint.port, frame="binary"
                ) as client:
                    assert client.frame == "binary"
                    values = (
                        await client.cdf(500.0),
                        await client.quantile(0.5),
                        await client.network_size(),
                    )
                    status = await client.status()
                    return values, status

        (cdf, quantile, size), status = run(scenario())
        assert cdf == pytest.approx(handle.cdf(500.0))
        assert quantile == pytest.approx(handle.quantile(0.5))
        assert size == pytest.approx(handle.network_size())
        assert status["backend"] == "fast"

    def test_binary_batch_and_errors(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient(
                    "127.0.0.1", endpoint.port, frame="binary"
                ) as client:
                    batch = await client.batch([
                        QueryRequest.cdf(500.0),
                        QueryRequest.quantile(9.0),
                    ])
                    return [(r.ok, r.error) for r in batch.results]

        results = run(scenario())
        assert results[0] == (True, None)
        assert results[1] == (False, "bad_request")

    def test_unknown_frame_name_is_rejected(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    return await client.request(
                        {"op": "frame", "frame": "carrier-pigeon"}
                    )

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"] == "bad_request"


class TestPipelining:
    @pytest.mark.parametrize("frame", ["json", "binary"])
    def test_pipelined_requests_answer_in_order(self, handle, frame):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient(
                    "127.0.0.1", endpoint.port, frame=frame
                ) as client:
                    requests = [
                        QueryRequest.cdf(float(i * 50), request_id=i)
                        for i in range(12)
                    ]
                    responses = await client.pipeline(requests)
                    return [(r.request_id, r.value) for r in responses]

        results = run(scenario())
        assert [request_id for request_id, _ in results] == list(range(12))
        for i, (_, value) in enumerate(results):
            assert value == pytest.approx(handle.cdf(float(i * 50)))

    def test_pipeline_mixes_singles_and_batches(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    responses = await client.pipeline([
                        QueryRequest.cdf(500.0, request_id=1),
                        BatchRequest((
                            QueryRequest.network_size(),
                            QueryRequest.cdf(100.0),
                        ), request_id=2),
                        QueryRequest.network_size(request_id=3),
                    ])
                    return responses

        single, batch, last = run(scenario())
        assert single.request_id == 1 and single.ok
        assert [r.ok for r in batch.results] == [True, True]
        assert last.request_id == 3 and last.ok


class TestConcurrency:
    def test_concurrent_clients_all_answered(self, handle):
        xs = [float(x % 97) for x in range(120)]

        async def one_client(port, share):
            async with ServiceClient("127.0.0.1", port) as client:
                return [await client.call(QueryRequest.cdf(x)) for x in share]

        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                shares = await asyncio.gather(*(
                    one_client(endpoint.port, xs[i::5]) for i in range(5)
                ))
                return shares, endpoint.handler_errors

        shares, handler_errors = run(scenario())
        assert [len(share) for share in shares] == [24] * 5
        assert handler_errors == 0
        for i, share in enumerate(shares):
            for x, response in zip(xs[i::5], share):
                assert response.ok
                assert response.value == pytest.approx(handle.cdf(x))

    def test_sequential_requests_answered_in_order(self, handle):
        async def scenario():
            async with ServiceEndpoint(handle, port=0) as endpoint:
                async with ServiceClient("127.0.0.1", endpoint.port) as client:
                    return [
                        (await client.request({"op": "size", "id": i}))["id"]
                        for i in range(10)
                    ]

        assert run(scenario()) == list(range(10))
