"""PeerDirectory: a view of a shared member table draws exactly like a
sorted scan over one record per peer."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.config import Adam2Config
from repro.errors import NetworkError
from repro.net.cluster import LocalCluster
from repro.net.peers import MemberTable, PeerDirectory
from repro.net.virtual import run_virtual
from repro.rngs import make_rng


class Records:
    """The definition: one ``[address, failures]`` record per peer,
    scanned in sorted order on every draw."""

    def __init__(self, directory: PeerDirectory) -> None:
        self.threshold = directory.suspicion_threshold
        self.probe_rate = directory.probe_rate
        self.records: dict[int, list] = {}

    def add(self, peer_id: int, address: tuple[str, int]) -> None:
        record = self.records.get(peer_id)
        if record is None:
            self.records[peer_id] = [address, 0]
        else:
            record[0] = address

    def mark_alive(self, peer_id: int) -> None:
        if peer_id in self.records:
            self.records[peer_id][1] = 0

    def mark_failure(self, peer_id: int) -> None:
        if peer_id in self.records:
            self.records[peer_id][1] += 1

    def scan(self, suspected: bool) -> list[int]:
        return sorted(
            peer_id for peer_id, (_, failures) in self.records.items()
            if (failures >= self.threshold) is suspected
        )

    def select(self, rng: np.random.Generator) -> int | None:
        """``select`` as originally written: two sorted scans per draw."""
        healthy, suspected = self.scan(False), self.scan(True)
        if healthy and suspected and self.probe_rate > 0.0 and rng.random() < self.probe_rate:
            return suspected[int(rng.integers(0, len(suspected)))]
        pool = healthy or suspected
        if not pool:
            return None
        return pool[int(rng.integers(0, len(pool)))]

    def sample(self, count: int, rng: np.random.Generator) -> list[int]:
        pool = self.scan(False) or self.scan(True)
        if not pool or count <= 0:
            return []
        if len(pool) > count:
            pool = [pool[int(i)] for i in rng.choice(len(pool), size=count, replace=False)]
        return pool


def step(
    directory: PeerDirectory, model: Records, rng: np.random.Generator, id_space: int
) -> None:
    """One random membership or liveness transition, applied to both."""
    peer_id = int(rng.integers(0, id_space))
    action = int(rng.integers(0, 9))
    address = ("127.0.0.1", 1000 + int(rng.integers(0, 50)))
    if peer_id == directory.owner:
        directory.table.add(peer_id, address)  # its own bind: never a peer
    elif action <= 1:  # add, or re-add under a new address
        directory.add(peer_id, address)
        model.add(peer_id, address)
    elif action == 2:  # another daemon binds: the table grows under the view
        directory.table.add(peer_id, address)
        if peer_id in directory:
            model.add(peer_id, address)
    elif action == 3:
        assert (peer_id in directory) == (peer_id in model.records)
        if peer_id in directory:
            directory.remove(peer_id)
            del model.records[peer_id]
    elif action <= 5:
        directory.mark_alive(peer_id)  # unknown ids are ignored
        model.mark_alive(peer_id)
    else:
        directory.mark_failure(peer_id)
        model.mark_failure(peer_id)


def heal(directory: PeerDirectory, model: Records) -> None:
    """Re-add every member the view excluded and clear all evidence:
    the view is the whole table again."""
    for peer_id, address in directory.table.addresses.items():
        if peer_id != directory.owner:
            directory.add(peer_id, address)
            model.add(peer_id, address)
            directory.mark_alive(peer_id)
            model.mark_alive(peer_id)


class TestIndexEqualsScan:
    def test_random_interleaving_keeps_lists_equal_to_the_scan(self):
        rng = make_rng(2024)
        directory = PeerDirectory(MemberTable(), owner=5, suspicion_threshold=2)
        model = Records(directory)
        for _ in range(3000):
            step(directory, model, rng, id_space=24)
            assert directory.healthy_ids() == model.scan(False)
            assert directory.suspected_ids() == model.scan(True)
            assert directory.peer_ids() == sorted(model.records)
            assert len(directory) == len(model.records)

    def test_select_and_sample_draw_like_the_scan(self):
        """Same ids, same order: identically seeded generators pick the
        same peers at the same addresses and stay in step (probe path
        and the shared-list fast path included), wherever the owner
        sits in the table, or with no owner."""
        for owner in (None, 0, 7, 40):
            self.draw_like_the_scan(owner)

    @staticmethod
    def draw_like_the_scan(owner: int | None) -> None:
        steps = make_rng(7)
        fast, slow = make_rng(99), make_rng(99)
        directory = PeerDirectory(
            MemberTable(), owner=owner, suspicion_threshold=1, probe_rate=0.3
        )
        model = Records(directory)
        probes = fast_draws = 0
        for index in range(1500):
            if index % 25 == 0:
                heal(directory, model)
            else:
                step(directory, model, steps, id_space=16)
            table = directory.table
            fast_draws += (
                not directory.suspected_ids()
                and len(directory) == len(table.ids) - (owner in table.addresses) > 0
            )
            picked = directory.select(fast)
            assert picked == model.select(slow)
            if picked is not None:
                assert directory.table.addresses[picked] == model.records[picked][0]
                probes += model.records[picked][1] >= 1 and bool(model.scan(False))
            if index % 10 == 0:
                count = int(steps.integers(0, 8))
                sampled = directory.sample(count, fast)
                assert sampled == model.sample(count, slow)
                assert [directory.table.addresses[i] for i in sampled] == [
                    model.records[i][0] for i in sampled
                ]
        assert probes > 20  # the liveness-probe branch really ran
        assert fast_draws > 20  # ... and so did the draw from the shared list
        assert fast.random() == slow.random()

    def test_returned_lists_are_the_callers_own(self):
        directory = PeerDirectory(suspicion_threshold=1)
        for peer_id in (3, 1, 2):
            directory.add(peer_id, ("127.0.0.1", 1000 + peer_id))
        directory.healthy_ids().clear()
        assert directory.healthy_ids() == [1, 2, 3]
        directory.mark_failure(2)
        directory.healthy_ids().clear()
        directory.suspected_ids().append(77)
        assert directory.healthy_ids() == [1, 3]
        assert directory.suspected_ids() == [2]
        assert directory.table.ids == [1, 2, 3]

    def test_readding_a_peer_keeps_its_suspicion(self):
        directory = PeerDirectory(suspicion_threshold=1)
        directory.add(5, ("127.0.0.1", 1005))
        directory.mark_failure(5)
        directory.add(5, ("127.0.0.1", 2005))
        assert directory.table.addresses[5] == ("127.0.0.1", 2005)
        assert directory.suspected_ids() == [5] and directory.healthy_ids() == []


class TestSharedTable:
    def test_views_share_members_but_not_evidence(self):
        table = MemberTable()
        views = [PeerDirectory(table, owner, suspicion_threshold=1) for owner in range(3)]
        for owner in range(3):
            table.add(owner, ("127.0.0.1", 1000 + owner))
        assert [v.healthy_ids() for v in views] == [[1, 2], [0, 2], [0, 1]]
        views[0].mark_failure(2)
        assert views[0].suspected_ids() == [2] and views[1].suspected_ids() == []
        table.add(3, ("127.0.0.1", 1003))  # a joiner binds
        assert views[0].healthy_ids() == [1, 3]
        assert views[1].healthy_ids() == [0, 2, 3]

    def test_an_excluded_member_is_never_drawn(self):
        table = MemberTable()
        for member in range(4):
            table.add(member, ("127.0.0.1", 1000 + member))
        joiner = PeerDirectory(table, 3)
        joiner.remove(1)  # left before the joiner arrived
        rng = make_rng(3)
        assert {joiner.select(rng) for _ in range(60)} == {0, 2}
        assert 1 not in joiner and len(joiner) == 2
        assert joiner.mark_failure(1) is False
        with pytest.raises(NetworkError):
            joiner.remove(1)
        joiner.add(1, ("127.0.0.1", 2001))  # back under a new address
        assert joiner.healthy_ids() == [0, 1, 2]

    def test_the_owner_is_never_a_peer(self):
        directory = PeerDirectory(MemberTable(), 4)
        with pytest.raises(NetworkError):
            directory.add(4, ("127.0.0.1", 1))
        directory.table.add(4, ("127.0.0.1", 1))  # its own bind
        assert 4 not in directory and directory.select(make_rng(0)) is None
        assert directory.sample(3, make_rng(0)) == []


def start_peak_bytes(n: int) -> int:
    """Peak traced allocation inside ``LocalCluster.start`` for ``n`` daemons."""
    cluster = LocalCluster(np.arange(n, dtype=float), Adam2Config(points=6), make_rng(1))

    async def main() -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            await cluster.start()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            cluster.close()

    return run_virtual(main())


def test_cluster_start_is_linear_in_the_population():
    """No per-pair object: 4x the daemons costs about 4x the memory
    (a full mesh of directories measured 15.8x)."""
    assert start_peak_bytes(800) / start_peak_bytes(200) < 6
