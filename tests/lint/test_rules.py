"""Per-rule unit tests: one positive and one negative fixture per ADM rule."""

from __future__ import annotations

import textwrap

from repro.lint.engine import lint_source


def codes(source: str, path: str = "src/repro/fastsim/example.py") -> list[str]:
    return [v.code for v in lint_source(textwrap.dedent(source), path=path)]


class TestADM001NoGlobalRng:
    def test_flags_stdlib_global_random(self):
        src = """
            import random

            def pick():
                return random.randint(0, 10)
        """
        assert "ADM001" in codes(src)

    def test_flags_numpy_legacy_global(self):
        src = """
            import numpy as np

            def pick():
                return np.random.randint(0, 10)
        """
        assert "ADM001" in codes(src)

    def test_flags_seedless_default_rng(self):
        src = """
            import numpy as np

            def make():
                return np.random.default_rng()
        """
        violations = lint_source(textwrap.dedent(src), path="src/repro/x.py")
        assert any(v.code == "ADM001" and "seedless" in v.message for v in violations)

    def test_flags_adhoc_seeded_default_rng(self):
        src = """
            import numpy as np

            def make(node_id):
                return np.random.default_rng(abs(hash(("wire", node_id))))
        """
        assert "ADM001" in codes(src)

    def test_allows_construction_inside_rngs_module(self):
        src = """
            import numpy as np

            def make_rng(seed=None):
                return np.random.default_rng(seed)
        """
        assert codes(src, path="src/repro/rngs.py") == []

    def test_allows_threaded_generator(self):
        src = """
            import numpy as np

            def pick(rng: np.random.Generator) -> int:
                return int(rng.integers(0, 10))
        """
        assert "ADM001" not in codes(src)


class TestADM002RngParameter:
    def test_flags_public_function_drawing_from_module_state(self):
        src = """
            from somewhere import shared_rng

            def jitter(x):
                return x + shared_rng.uniform(-1, 1)
        """
        assert "ADM002" in codes(src)

    def test_allows_rng_parameter(self):
        src = """
            def jitter(x, rng):
                return x + rng.uniform(-1, 1)
        """
        assert codes(src) == []

    def test_allows_self_attribute_rng(self):
        src = """
            class Node:
                def step(self):
                    return self.rng.random()
        """
        assert codes(src) == []

    def test_allows_lambda_with_own_rng_parameter(self):
        src = """
            def uniform_workload(low, high):
                return Workload(lambda n, rng: rng.uniform(low, high, size=n))
        """
        assert codes(src) == []

    def test_private_functions_exempt(self):
        src = """
            from somewhere import shared_rng

            def _internal(x):
                return x + shared_rng.uniform(-1, 1)
        """
        assert "ADM002" not in codes(src)


class TestADM003FloatEquality:
    def test_flags_estimate_equality(self):
        src = """
            def agree(a, b):
                return a.fraction == b.fraction
        """
        assert "ADM003" in codes(src)

    def test_flags_estimate_vs_float_literal(self):
        src = """
            def half(state):
                return state.weight == 0.5
        """
        assert "ADM003" in codes(src)

    def test_allows_tolerance_helpers_and_sentinels(self):
        src = """
            import math

            def agree(a, b):
                return math.isclose(a.fraction, b.fraction)

            def fresh(state):
                return state.weight == 0.0

            def nan_guard(p):
                return not (p.fraction == p.fraction)
        """
        assert codes(src) == []


class TestADM004ExchangeConservation:
    def test_flags_unregistered_join_mode(self):
        src = """
            def round_(state, join_mode="symmetric"):
                if join_mode == "leaky":
                    state *= 0.5
        """
        assert "ADM004" in codes(src)

    def test_allows_registered_mode_and_tuple_return(self):
        # ADM004 judges join modes only; an ``exchange`` method and what
        # it returns are no business of the rule.
        src = """
            from repro.core.conservation import register_non_conserving

            register_non_conserving("leaky", "drops half the mass, biases fractions low")

            def round_(state, join_mode="symmetric"):
                if join_mode == "leaky":
                    state *= 0.5

            class Fine:
                def exchange(self, initiator, responder):
                    return 64, 64
        """
        assert codes(src) == []

    def test_symmetric_never_needs_registration(self):
        src = """
            def round_(state, join_mode="symmetric"):
                if join_mode == "symmetric":
                    state += 0
        """
        assert codes(src) == []


class TestADM005NoSwallowedErrors:
    def test_flags_bare_except(self):
        src = """
            def run(fn):
                try:
                    fn()
                except:
                    pass
        """
        assert "ADM005" in codes(src)

    def test_flags_swallowed_simulation_error(self):
        src = """
            from repro.errors import SimulationError

            def run(fn):
                try:
                    fn()
                except SimulationError:
                    pass
        """
        assert "ADM005" in codes(src)

    def test_allows_narrow_handled_exceptions(self):
        src = """
            from repro.errors import ProtocolError

            def run(table, node_id):
                try:
                    return table[node_id]
                except KeyError:
                    raise ProtocolError(f"unknown node {node_id}") from None
        """
        assert codes(src) == []


class TestADM006NoMutableDefaults:
    def test_flags_list_default(self):
        src = """
            def gather(into=[]):
                into.append(1)
                return into
        """
        assert "ADM006" in codes(src)

    def test_allows_none_default(self):
        src = """
            def gather(into=None):
                into = [] if into is None else into
                into.append(1)
                return into
        """
        assert codes(src) == []


class TestADM007NoWallClock:
    def test_flags_wall_clock_in_simulation_module(self):
        src = """
            import time

            def run_round(engine):
                engine.started = time.time()
        """
        assert "ADM007" in codes(src, path="src/repro/fastsim/exchange.py")

    def test_flags_datetime_now(self):
        src = """
            from datetime import datetime

            def stamp(node):
                node.seen = datetime.now()
        """
        assert "ADM007" in codes(src, path="src/repro/fastsim/adam2.py")

    def test_experiment_drivers_exempt(self):
        src = """
            import time

            def run_experiment():
                started = time.time()
                return time.time() - started
        """
        assert codes(src, path="src/repro/experiments/cli.py") == []


class TestADM008NetOutsideRuntime:
    def test_flags_socket_import_outside_net(self):
        src = """
            import socket

            def probe(host):
                return socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        """
        assert "ADM008" in codes(src, path="src/repro/fastsim/exchange.py")

    def test_flags_socket_from_import(self):
        src = """
            from socket import socket

            def probe():
                return socket()
        """
        assert "ADM008" in codes(src, path="src/repro/core/node.py")

    def test_flags_asyncio_endpoint_call(self):
        src = """
            import asyncio

            async def connect(host, port):
                return await asyncio.open_connection(host, port)
        """
        assert "ADM008" in codes(src, path="src/repro/api/backends.py")

    def test_flags_datagram_endpoint_call(self):
        src = """
            async def bind(loop, proto):
                return await loop.create_datagram_endpoint(proto, local_addr=("::", 0))
        """
        assert "ADM008" in codes(src, path="src/repro/obs/profile.py")

    def test_flags_wall_clock_outside_net(self):
        src = """
            import time

            def run_round(engine):
                engine.started = time.monotonic()
        """
        assert "ADM008" in codes(src, path="src/repro/fastsim/exchange.py")

    def test_net_package_exempt(self):
        src = """
            import socket
            import time

            async def bind(loop, proto):
                started = time.monotonic()
                return await loop.create_datagram_endpoint(proto), started
        """
        assert codes(src, path="src/repro/net/transport.py") == []

    def test_drivers_keep_clock_exemption_but_not_sockets(self):
        src = """
            import socket
            import time

            def run_experiment():
                return time.time()
        """
        found = codes(src, path="src/repro/experiments/cli.py")
        assert found == ["ADM008"]  # the socket import, not the clock

    def test_service_package_is_fenced_from_sockets_and_clocks(self):
        """The serving layer is NOT exempt: its TCP frontend must live in
        repro.net (service_endpoint), and latency reads must go through
        repro.obs.wall_clock rather than the host clock directly."""
        src = """
            import asyncio
            import time

            async def serve(handle, host, port):
                started = time.perf_counter()
                return await asyncio.start_server(handle, host, port), started
        """
        found = codes(src, path="src/repro/service/query.py")
        assert found.count("ADM008") == 2  # the endpoint call and the clock

    def test_service_endpoint_module_is_under_the_net_exemption(self):
        src = """
            import asyncio

            async def serve(handler, host, port):
                return await asyncio.start_server(handler, host, port)
        """
        assert codes(src, path="src/repro/net/service_endpoint.py") == []

    def test_service_worker_module_is_under_the_net_exemption(self):
        """The SO_REUSEPORT worker pool opens raw sockets and spawns
        serving processes; it is legal only because it lives in
        repro.net — the same source anywhere else must trip ADM008."""
        src = """
            import socket

            def reuseport_listener(host, port):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                sock.bind((host, port))
                sock.listen(128)
                return sock
        """
        assert codes(src, path="src/repro/net/service_worker.py") == []
        assert "ADM008" in codes(src, path="src/repro/service/worker.py")

    def test_fsync_outside_persist_is_fenced(self):
        src = """
            import os

            def seal(handle):
                handle.flush()
                os.fsync(handle.fileno())
        """
        assert "ADM008" in codes(src, path="src/repro/service/store.py")

    def test_fdatasync_outside_persist_is_fenced(self):
        src = """
            import os

            def seal(fd):
                os.fdatasync(fd)
        """
        assert "ADM008" in codes(src, path="src/repro/obs/sinks.py")

    def test_net_package_is_not_exempt_from_the_durable_fence(self):
        """repro.net owns sockets and clocks, not durability: an fsync
        there is as much a layering leak as anywhere else."""
        src = """
            import os

            def seal(handle):
                os.fsync(handle.fileno())
        """
        assert "ADM008" in codes(src, path="src/repro/net/httpstatus.py")

    def test_persist_package_owns_durable_syncs(self):
        src = """
            import os

            def seal(handle):
                os.fsync(handle.fileno())
                os.fdatasync(handle.fileno())
        """
        assert codes(src, path="src/repro/persist/log.py") == []

    def test_persist_package_is_still_fenced_from_sockets(self):
        """The durability layer is local-disk only: sockets, endpoints
        and raw clocks stay illegal inside repro.persist."""
        src = """
            import socket
            import time

            def probe():
                return socket.socket(), time.monotonic()
        """
        found = codes(src, path="src/repro/persist/log.py")
        assert found.count("ADM008") == 2

    def test_real_service_sources_lint_clean(self):
        from pathlib import Path

        from repro.lint.engine import lint_paths

        service_dir = (
            Path(__file__).resolve().parents[2] / "src" / "repro" / "service"
        )
        report = lint_paths([str(service_dir)])
        assert report.files_checked >= 6
        assert report.violations == [], "\n".join(
            v.format_text() for v in report.violations
        )


class TestSelection:
    def test_select_restricts_rules(self):
        src = """
            import random

            def gather(into=[]):
                return random.random()
        """
        from repro.lint.engine import lint_source as ls

        only_006 = ls(textwrap.dedent(src), select={"ADM006"})
        assert {v.code for v in only_006} == {"ADM006"}
