"""The virtual-time loop's contract (:mod:`repro.net.virtual`).

The jumping clock, the in-memory datagram fabric and the loud failures
that keep a virtual run from hanging, plus the determinism the
``async`` backend rests on: a seed names one run, in-process and across
processes whatever their hash seed.
"""

from __future__ import annotations

import asyncio
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.errors import NetworkError
from repro.net.virtual import VirtualLoop, run_virtual

#: times on a 1/64 s grid: exact in binary, so the clock lands on them
#: exactly, and further apart than the 1 ns by which every asyncio loop
#: may fire a handle early
grid = st.integers(min_value=0, max_value=6400).map(lambda k: k / 64)


class Inbox(asyncio.DatagramProtocol):
    def __init__(self) -> None:
        self.received: list[tuple[bytes, tuple[str, int]]] = []

    def datagram_received(self, data: bytes, addr: tuple[str, int]) -> None:
        self.received.append((data, addr))


def test_an_hour_of_timers_costs_no_wall_time():
    async def main():
        loop = asyncio.get_running_loop()
        fired = loop.create_future()
        loop.call_later(3600, lambda: fired.set_result(loop.time()))
        return await fired

    started = time.perf_counter()
    assert run_virtual(main()) == 3600.0
    assert time.perf_counter() - started < 1.0


def test_an_idle_loop_raises_instead_of_blocking():
    async def main():
        await asyncio.get_running_loop().create_future()  # nobody resolves it

    with pytest.raises(NetworkError, match="idle"):
        run_virtual(main())


def test_a_real_fd_cannot_be_watched():
    loop = VirtualLoop()  # registers (and later drops) its own self-pipe
    left, right = socket.socketpair()
    try:
        with pytest.raises(NetworkError, match="real file descriptor"):
            loop.add_reader(left.fileno(), lambda: None)
    finally:
        left.close()
        right.close()
        loop.close()


def test_datagrams_to_unknown_or_closed_addresses_are_dropped():
    async def main():
        loop = asyncio.get_running_loop()
        a, inbox_a = await loop.create_datagram_endpoint(Inbox, local_addr=("127.0.0.1", 0))
        b, inbox_b = await loop.create_datagram_endpoint(Inbox, local_addr=("127.0.0.1", 0))
        here, there = a.get_extra_info("sockname"), b.get_extra_info("sockname")
        a.sendto(b"hello", there)
        a.sendto(b"nobody", ("127.0.0.1", 9))
        await asyncio.sleep(0)
        assert inbox_b.received == [(b"hello", here)]
        a.sendto(b"in flight", there)
        b.close()  # before the datagram lands
        a.sendto(b"after", there)
        await asyncio.sleep(0)
        assert inbox_b.received == [(b"hello", here)]
        assert inbox_a.received == []
        with pytest.raises(OSError):
            await loop.create_datagram_endpoint(Inbox, local_addr=here)
        a.close()

    run_virtual(main())


# ----------------------------------------------------------------------
# Event order
# ----------------------------------------------------------------------


def fire_all(times: list[float], until: float) -> list[tuple[float, float]]:
    """``(scheduled, loop.time())`` per handle that fired by ``until``."""
    fired: list[tuple[float, float]] = []

    async def main():
        loop = asyncio.get_running_loop()
        for at in times:
            loop.call_at(at, lambda at=at: fired.append((at, loop.time())))
        await asyncio.sleep(until)

    run_virtual(main())
    return fired


@given(st.lists(grid, min_size=1, max_size=50))
def test_events_fire_in_nondecreasing_time(times):
    fired = fire_all(times, max(times))
    assert sorted(at for at, _ in fired) == sorted(times)
    clock = [now for _, now in fired]
    assert clock == sorted(clock)
    assert all(now == at for at, now in fired)


@given(st.lists(grid, min_size=1, max_size=30), grid)
def test_deadline_splits_events_exactly(times, deadline):
    assert len(fire_all(times, deadline)) == sum(1 for t in times if t <= deadline)


# ----------------------------------------------------------------------
# A seed names one run
# ----------------------------------------------------------------------

RUN = """
import hashlib, json
from repro.api import run
from repro.core.config import Adam2Config
from repro.net.cluster import LocalCluster
from repro.net.virtual import run_virtual
from repro.rngs import make_rng
from repro.workloads import boinc_workload

config = Adam2Config(points=12, rounds_per_instance=20)
digest = hashlib.sha256()
for options in (
    {},
    {"drop_rate": 0.05, "delay_range": (0.005, 0.08), "reorder_rate": 0.05},
    {"crash_nodes": 5, "drop_rate": 0.02},
):
    result = run(config, boinc_workload("ram"), backend="async", n_nodes=64,
                 instances=2, seed=29, **options)
    for summary in result.instances:
        digest.update(summary.fractions.tobytes())
        digest.update(repr((summary.errors_entire, summary.errors_points,
                            summary.messages, summary.bytes, summary.reached)).encode())
    digest.update(json.dumps(result.extras["net_counters"], sort_keys=True).encode())

async def join_after_crash():
    # The joiner never meets the crashed nodes; the survivors keep them
    # until timeouts raise suspicion (small enough that several do).
    values = boinc_workload("ram").sample(16, make_rng(30))
    async with LocalCluster(values, config, make_rng(31), drop_rate=0.02) as cluster:
        await cluster.trigger_instance()
        await cluster.run_rounds(6)
        cluster.crash(15)
        cluster.crash(3)
        joiner = await cluster.join(512.0)
        await cluster.run_rounds(19)
        await cluster.drain()
        await cluster.trigger_instance(joiner.node_id)
        await cluster.run_rounds(25)
        await cluster.drain()
        for node in cluster.adam2_nodes():
            for record in node.completed:
                digest.update(record.estimate.fractions.tobytes())
                digest.update(repr((record.system_size, record.round)).encode())
        digest.update(json.dumps(cluster.counters(), sort_keys=True).encode())

run_virtual(join_after_crash())
print(digest.hexdigest())
"""

#: ``RUN``'s digest.  It changes only when a change to the daemon means
#: to change seeded ``async`` results, and that change says so.
PINNED = "301579d9821777bd238d9f0ce712e3fd9d3206717eb2e4a5a6db8f2aa36281c5"


def test_a_seeded_async_run_is_bit_identical_across_hash_seeds():
    src = str(Path(repro.__file__).resolve().parents[1])
    digests = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", RUN], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests
    # ... and in this process, whatever its hash seed
    scope: dict[str, object] = {}
    exec(RUN.replace("print(digest.hexdigest())", "out = digest.hexdigest()"), scope)
    assert digests == {scope["out"]}


def test_seeded_async_runs_match_the_pinned_digest():
    """No fault, drop + delay + reorder, crashes, and a join after a
    crash: every seeded run reproduces the recorded results exactly."""
    scope: dict[str, object] = {}
    exec(RUN.replace("print(digest.hexdigest())", "out = digest.hexdigest()"), scope)
    assert scope["out"] == PINNED
