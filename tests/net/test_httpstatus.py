"""The read-only HTTP status surface: routes, errors, lifecycle."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.config import Adam2Config
from repro.errors import NetworkError
from repro.net.httpstatus import StatusServer
from repro.obs import MemorySink, ObserverHub
from repro.service import build_service
from repro.workloads.synthetic import uniform_workload

CONFIG = Adam2Config(points=24, rounds_per_instance=25)


def run(coro):
    return asyncio.run(coro)


def make_handle(**overrides):
    kwargs = dict(backend="fast", n_nodes=400, seed=5)
    kwargs.update(overrides)
    return build_service(CONFIG, uniform_workload(0, 1000), **kwargs)


async def fetch(host, port, target="/status", *, raw_line=None):
    """One GET over a raw stream; returns (status_code, decoded body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        line = raw_line if raw_line is not None else f"GET {target} HTTP/1.1\r\n"
        writer.write(line.encode() + b"Host: test\r\nAccept: */*\r\n\r\n")
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = response.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0]
    assert b"application/json" in head
    assert b"Connection: close" in head
    return int(status_line.split()[1]), json.loads(body)


@pytest.fixture(scope="module")
def handle():
    built = make_handle()
    built.refresh()  # two published versions to exercise /history
    return built


class TestRoutes:
    def test_status_route_matches_handle(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(server.host, server.port, "/status")

        status, body = run(scenario())
        assert status == 200
        assert body["backend"] == "fast"
        assert body["latest"]["version"] == handle.store.latest().version
        assert body["persistence"] is None

    def test_estimate_route_serves_the_polyline(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(server.host, server.port, "/estimate")

        status, body = run(scenario())
        assert status == 200
        snapshot = handle.store.latest()
        xs, ys = snapshot.estimate.polyline()
        assert body["meta"]["version"] == snapshot.version
        assert body["polyline"]["xs"] == xs.tolist()
        assert body["polyline"]["ys"] == ys.tolist()

    def test_estimate_route_serves_a_pinned_past_version(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(
                    server.host, server.port, "/estimate?version=1"
                )

        status, body = run(scenario())
        assert status == 200
        assert body["meta"]["version"] == 1

    def test_history_route_lists_every_version(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(server.host, server.port, "/history")

        status, body = run(scenario())
        assert status == 200
        assert [entry["version"] for entry in body] == [1, 2]

    def test_metrics_route_mirrors_the_hub(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(server.host, server.port, "/metrics")

        status, body = run(scenario())
        assert status == 200
        assert body["counters"]["service_cycles_total"] >= 2


class TestErrors:
    def test_unknown_path_is_404_listing_routes(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(server.host, server.port, "/nope")

        status, body = run(scenario())
        assert status == 404
        assert body["routes"] == ["/status", "/estimate", "/history", "/metrics"]

    def test_post_is_405(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(
                    server.host, server.port,
                    raw_line="POST /status HTTP/1.1\r\n",
                )

        status, body = run(scenario())
        assert status == 405
        assert "GET only" in body["error"]

    def test_malformed_request_line_is_400(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(
                    server.host, server.port, raw_line="garbage\r\n"
                )

        status, body = run(scenario())
        assert status == 400

    def test_non_integer_version_is_400(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(
                    server.host, server.port, "/estimate?version=latest"
                )

        status, body = run(scenario())
        assert status == 400
        assert "integer" in body["error"]

    def test_missing_version_is_503(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                return await fetch(
                    server.host, server.port, "/estimate?version=999"
                )

        status, body = run(scenario())
        assert status == 503
        assert body["error"] == "unavailable"
        assert "999" in body["message"]

    def test_cold_store_is_503_unavailable(self):
        cold = make_handle(warm_cycles=0)

        async def scenario():
            async with StatusServer(cold) as server:
                return await fetch(server.host, server.port, "/estimate")

        status, body = run(scenario())
        assert status == 503
        assert body["error"] == "unavailable"

    def test_request_counters(self):
        hub = ObserverHub([MemorySink()])
        counted = make_handle(hub=hub)

        async def scenario():
            async with StatusServer(counted) as server:
                await fetch(server.host, server.port, "/status")
                await fetch(server.host, server.port, "/nope")

        run(scenario())
        assert hub.metrics.counter("http_requests_total").snapshot() == 2
        assert hub.metrics.counter("http_errors_total").snapshot() == 1


class TestLifecycle:
    def test_double_start_is_refused(self, handle):
        async def scenario():
            async with StatusServer(handle) as server:
                with pytest.raises(NetworkError, match="already started"):
                    await server.start()

        run(scenario())

    def test_port_is_released_on_stop(self, handle):
        async def scenario():
            server = StatusServer(handle)
            await server.start()
            bound = server.port
            await server.stop()
            assert server.port is None
            return bound

        assert run(scenario()) > 0


class TestDurableStatus:
    def test_status_reports_persistence_when_durable(self, tmp_path):
        durable = make_handle(store_dir=tmp_path, warm_cycles=1)
        try:
            async def scenario():
                async with StatusServer(durable) as server:
                    return await fetch(server.host, server.port, "/status")

            status, body = run(scenario())
        finally:
            durable.close()
        assert status == 200
        persistence = body["persistence"]
        assert persistence["restarts"] == 1
        assert persistence["segments"] >= 1
        assert persistence["fsync"] == "rotate"
