"""The multi-worker serving pool: lifecycle, the snapshot feed, parity."""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import threading
import time
import urllib.request

import pytest

from repro.core.config import Adam2Config
from repro.errors import NetworkError
from repro.net import service_worker
from repro.net.service_endpoint import ServiceClient, serve_blocking
from repro.net.service_worker import ServiceWorkerPool, reuseport_available
from repro.obs import MemorySink, ObserverHub
from repro.service import build_service
from repro.service.protocol import QueryRequest
from repro.workloads.synthetic import uniform_workload

CONFIG = Adam2Config(points=24, rounds_per_instance=25)

needs_reuseport = pytest.mark.skipif(
    not reuseport_available(), reason="SO_REUSEPORT is not available"
)


def run(coro):
    return asyncio.run(coro)


def make_handle(**overrides):
    kwargs = dict(backend="fast", n_nodes=400, seed=5)
    kwargs.update(overrides)
    return build_service(CONFIG, uniform_workload(0, 1000), **kwargs)


@pytest.fixture(scope="module")
def handle():
    return make_handle()


@needs_reuseport
class TestPoolLifecycle:
    def test_rejects_bad_arguments(self, handle):
        with pytest.raises(NetworkError):
            ServiceWorkerPool(handle.store, workers=0)

    def test_start_stop_is_clean_and_restartable(self, handle):
        pool = ServiceWorkerPool(handle.store, workers=2)
        with pool:
            assert pool.port is not None
        assert pool.port is None
        with pool:  # a stopped pool can start again
            assert pool.port is not None

    def test_worker_dead_before_ready_is_reported_with_its_exit_code(
        self, handle, monkeypatch
    ):
        """SIGKILL / OOM / a crash at import: no ready message ever comes."""
        monkeypatch.setattr(
            service_worker, "_worker_main", lambda *args: os._exit(3)
        )
        pool = ServiceWorkerPool(handle.store, workers=2)
        subscribers = list(handle.store._subscribers)
        started = time.monotonic()
        # Both workers die; which one the liveness sample sees first is the
        # OS scheduler's call.
        with pytest.raises(NetworkError, match=r"worker [01] died .*exit code 3"):
            pool.start()
        assert time.monotonic() - started < 3.0
        assert pool.port is None
        assert not [
            child for child in multiprocessing.active_children()
            if child.name.startswith("adam2-serve-")
        ]
        assert handle.store._subscribers == subscribers  # feed detached

    def test_double_start_fails_loudly(self, handle):
        pool = ServiceWorkerPool(handle.store, workers=1)
        with pool:
            with pytest.raises(NetworkError):
                pool.start()


@needs_reuseport
class TestServingParity:
    """The pool answers byte-identically to the single endpoint."""

    @pytest.mark.parametrize("frame", ["json", "binary"])
    def test_queries_match_in_process(self, handle, frame):
        async def scenario(port):
            async with ServiceClient("127.0.0.1", port, frame=frame) as client:
                return (
                    await client.cdf(500.0),
                    await client.quantile(0.5),
                    await client.fraction_between(100.0, 900.0),
                    await client.network_size(),
                )

        with ServiceWorkerPool(handle.store, workers=2) as pool:
            cdf, quantile, fraction, size = run(scenario(pool.port))
        assert cdf == pytest.approx(handle.cdf(500.0))
        assert quantile == pytest.approx(handle.quantile(0.5))
        assert fraction == pytest.approx(handle.fraction_between(100.0, 900.0))
        assert size == pytest.approx(handle.network_size())

    def test_batch_partial_failure_over_the_pool(self, handle):
        async def scenario(port):
            async with ServiceClient("127.0.0.1", port) as client:
                return await client.request({"op": "batch", "ops": [
                    {"op": "cdf", "x": 500.0},
                    {"op": "cdf", "x": True},
                    {"op": "size"},
                ]})

        with ServiceWorkerPool(handle.store, workers=2) as pool:
            response = run(scenario(pool.port))
        results = response["results"]
        assert [r["ok"] for r in results] == [True, False, True]
        assert results[1]["error"] == "bad_request"

    def test_status_names_the_serving_worker(self, handle):
        async def scenario(port):
            async with ServiceClient("127.0.0.1", port) as client:
                return await client.status()

        with ServiceWorkerPool(handle.store, workers=2) as pool:
            status = run(scenario(pool.port))
        assert status["serving_mode"] == "reuseport"
        assert status["backend"] == "fast"
        assert isinstance(status["worker"], int)


@needs_reuseport
class TestSnapshotFeed:
    def test_new_versions_reach_the_workers(self):
        handle = make_handle()
        baseline = handle.store.versions()

        async def versions(port, want):
            async with ServiceClient("127.0.0.1", port) as client:
                # The feed is asynchronous: poll until
                # the published version lands in a worker replica.
                for _ in range(100):
                    status = await client.status()
                    if want in status["versions"]:
                        return status["versions"]
                    await asyncio.sleep(0.05)
                return status["versions"]

        with ServiceWorkerPool(handle.store, workers=2) as pool:
            snapshot = handle.refresh()
            seen = run(versions(pool.port, snapshot.version))
        assert snapshot.version in seen
        assert set(baseline) <= set(seen)

    def test_workers_adopt_recovered_snapshots_before_ready(self, tmp_path):
        # Restart path: recovery happens in build_service *before* the
        # pool starts, so worker replicas see the recovered versions in
        # the initial store — the first query after start serves them
        # with no warm-up publish in the new process.
        first = make_handle(store_dir=tmp_path)
        first.refresh()
        want = first.store.latest().version
        expected = first.cdf(500.0)
        first.close()

        restarted = make_handle(store_dir=tmp_path, warm_cycles=0)
        try:
            assert restarted.scheduler.tick == 0  # nothing published here

            async def scenario(port):
                async with ServiceClient("127.0.0.1", port) as client:
                    return await client.status(), await client.cdf(500.0)

            with ServiceWorkerPool(restarted.store, workers=2) as pool:
                status, cdf = run(scenario(pool.port))
        finally:
            restarted.close()
        assert want in status["versions"]
        assert cdf == expected  # bit-identical polyline, not approx

    def test_stopping_unsubscribes_the_feed(self, handle):
        pool = ServiceWorkerPool(handle.store, workers=1)
        with pool:
            pass
        # Publishing after stop must not enqueue into dead feeds.
        handle.refresh()


@needs_reuseport
class TestPooledMeasurement:
    def test_pipeline_through_the_pool(self, handle):
        async def scenario(port):
            async with ServiceClient("127.0.0.1", port, frame="binary") as client:
                requests = [
                    QueryRequest.cdf(float(i), request_id=i) for i in range(10)
                ]
                responses = await client.pipeline(requests)
                return [r.request_id for r in responses]

        with ServiceWorkerPool(handle.store, workers=2) as pool:
            ids = run(scenario(pool.port))
        assert ids == list(range(10))

    def test_overlong_line_is_answered_then_closed(self, handle):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op":"size","pad":"' + b"x" * 70_000 + b'"}\n')
            await writer.drain()
            line = await reader.readline()
            rest = await reader.read()
            writer.close()
            await writer.wait_closed()
            return json.loads(line), rest

        with ServiceWorkerPool(handle.store, workers=1) as pool:
            response, rest = run(scenario(pool.port))
        assert response["ok"] is False and response["error"] == "bad_request"
        assert "too long" in response["message"]
        assert rest == b""


    def test_undecodable_line_is_bad_request_and_the_connection_lives(self, handle):
        # Regression (see the endpoint's twin): the worker's handler died
        # on UnicodeDecodeError / RecursionError out of json.loads.
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for line in (b"\x80abc\n", b"[" * 5000 + b"\n", b'{"op":"size"}\n'):
                writer.write(line)
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return replies

        with ServiceWorkerPool(handle.store, workers=1) as pool:
            not_utf8, too_deep, size = run(scenario(pool.port))
        for reply in (not_utf8, too_deep):
            assert reply["ok"] is False and reply["error"] == "bad_request"
            assert reply["message"].startswith("invalid JSON")
        assert size["ok"] is True
        assert size["value"] == pytest.approx(handle.network_size())


@needs_reuseport
class TestServeBlockingWithWorkers:
    """``serve_blocking(workers=2, http_port=...)``: one call, one loop."""

    def test_pool_status_surface_and_scheduler_together(self):
        hub = ObserverHub([MemorySink()])
        handle = make_handle(hub=hub)
        baseline = handle.store.latest().version
        announced: list[str] = []
        ready = threading.Event()

        def announce(message):
            announced.append(message)
            if message.startswith("status on "):
                ready.set()

        server = threading.Thread(target=serve_blocking, args=(handle,), kwargs=dict(
            port=0, http_port=0, workers=2, max_cycles=4, refresh_every=0.4,
            announce=announce,
        ))
        server.start()
        try:
            assert ready.wait(15.0)
            serving, status_line = announced
            assert serving.endswith("(2 reuseport workers)")
            port = int(serving.split()[2].rsplit(":", 1)[1])
            url = status_line.split()[2]
            assert url.startswith("http://127.0.0.1:") and url.endswith("/status")
            with urllib.request.urlopen(url, timeout=5.0) as reply:
                over_http = json.load(reply)

            async def scenario():
                # A fresh connection per poll: the kernel balances
                # connections, and the snapshot feed is asynchronous.
                workers, newest = set(), baseline
                for _ in range(200):
                    async with ServiceClient("127.0.0.1", port) as client:
                        status = await client.status()
                    workers.add(status["worker"])
                    newest = max(newest, *status["versions"])
                    if workers == {0, 1} and newest > baseline:
                        break
                    await asyncio.sleep(0.02)
                return workers, newest

            workers, newest = run(scenario())
        finally:
            server.join(30.0)
        assert not server.is_alive()
        assert workers == {0, 1}
        # A scheduler cycle of this call published it; a worker served it.
        assert baseline < newest <= handle.store.latest().version
        # /status came from the parent: the handle's own view, counted on
        # the handle's own hub.
        assert over_http["backend"] == "fast" and "worker" not in over_http
        assert hub.metrics.counter("http_requests_total").snapshot() == 1
        assert not [
            child for child in multiprocessing.active_children()
            if child.name.startswith("adam2-serve-")
        ]

    def test_failed_pool_start_still_closes_the_handle(self, tmp_path, monkeypatch):
        def refuse(self):
            raise NetworkError("worker 1 failed to start: address in use")

        monkeypatch.setattr(ServiceWorkerPool, "start", refuse)
        handle = make_handle(store_dir=tmp_path)
        feed = handle.persistence._on_publish
        assert feed in handle.store._subscribers
        with pytest.raises(NetworkError, match="failed to start"):
            serve_blocking(handle, port=0, workers=2, max_cycles=1, announce=None)
        # Closed: detached from the feed, open segment sealed.
        assert feed not in handle.store._subscribers


class TestWithoutReuseport:
    """Hosts without SO_REUSEPORT: the pool refuses, the single loop serves."""

    @pytest.fixture(autouse=True)
    def no_reuseport(self, monkeypatch):
        monkeypatch.setattr(service_worker, "reuseport_available", lambda: False)

    def test_pool_start_raises_and_leaves_no_subscription(self):
        handle = make_handle()
        before = list(handle.store._subscribers)
        with pytest.raises(NetworkError):
            ServiceWorkerPool(handle.store, workers=2).start()
        assert handle.store._subscribers == before

    def test_serve_blocking_falls_back_to_the_single_loop(self):
        handle = make_handle()
        # The refresh cycle may publish mid-test: query a fixed version.
        version = handle.store.latest().version
        expected = handle.cdf(500.0)
        announced: list[str] = []
        bound = threading.Event()

        def announce(message):
            announced.append(message)
            if message.startswith("serving on "):
                bound.set()

        server = threading.Thread(target=serve_blocking, args=(handle,), kwargs=dict(
            port=0, workers=2, max_cycles=1, refresh_every=0.5, announce=announce,
        ))
        server.start()
        try:
            assert bound.wait(10.0)
            port = int(announced[-1].rsplit(":", 1)[1])

            async def scenario():
                async with ServiceClient("127.0.0.1", port) as client:
                    return await client.status(), await client.call(
                        QueryRequest.cdf(500.0, version=version)
                    )

            status, response = run(scenario())
        finally:
            server.join(30.0)
        assert not server.is_alive()
        assert "SO_REUSEPORT unavailable" in announced[0]
        assert "serving_mode" not in status  # the endpoint, not a pool worker
        assert response.ok and response.value == expected
