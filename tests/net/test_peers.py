"""PeerDirectory: the maintained id index equals a scan of the records."""

from __future__ import annotations

import numpy as np

from repro.net.peers import PeerDirectory, PeerRecord
from repro.rngs import make_rng


def scan(directory: PeerDirectory, suspected: bool) -> list[int]:
    """The definition: sort the ids whose record has that suspicion state."""
    return sorted(
        peer_id for peer_id in directory.peer_ids()
        if directory.get(peer_id).suspected is suspected
    )


def scan_select(directory: PeerDirectory, rng: np.random.Generator) -> PeerRecord | None:
    """``select`` as originally written: two sorted scans per draw."""
    healthy, suspected = scan(directory, False), scan(directory, True)
    if healthy and suspected and directory.probe_rate > 0.0 and rng.random() < directory.probe_rate:
        return directory.get(suspected[int(rng.integers(0, len(suspected)))])
    pool = healthy or suspected
    if not pool:
        return None
    return directory.get(pool[int(rng.integers(0, len(pool)))])


def scan_sample(directory: PeerDirectory, count: int, rng: np.random.Generator) -> list[PeerRecord]:
    pool = scan(directory, False) or scan(directory, True)
    if not pool or count <= 0:
        return []
    if len(pool) > count:
        pool = [pool[int(i)] for i in rng.choice(len(pool), size=count, replace=False)]
    return [directory.get(peer_id) for peer_id in pool]


def step(directory: PeerDirectory, rng: np.random.Generator, id_space: int) -> None:
    """One random membership or liveness transition."""
    peer_id = int(rng.integers(0, id_space))
    action = int(rng.integers(0, 8))
    if action <= 1:  # add, or re-add under a new address
        directory.add(peer_id, ("127.0.0.1", 1000 + int(rng.integers(0, 50))))
    elif action == 2:
        if peer_id in directory:
            directory.remove(peer_id)
    elif action <= 4:
        directory.mark_alive(peer_id)  # unknown ids are ignored
    else:
        directory.mark_failure(peer_id)


class TestIndexEqualsScan:
    def test_random_interleaving_keeps_lists_equal_to_the_scan(self):
        rng = make_rng(2024)
        directory = PeerDirectory(suspicion_threshold=2)
        for _ in range(3000):
            step(directory, rng, id_space=24)
            assert directory.healthy_ids() == scan(directory, False)
            assert directory.suspected_ids() == scan(directory, True)
            assert directory.peer_ids() == sorted(
                directory.healthy_ids() + directory.suspected_ids()
            )

    def test_select_and_sample_draw_like_the_scan(self):
        """Same ids, same order: identically seeded generators pick the
        same peers and stay in step (probe path included)."""
        steps = make_rng(7)
        fast, slow = make_rng(99), make_rng(99)
        directory = PeerDirectory(suspicion_threshold=1, probe_rate=0.3)
        probes = 0
        for index in range(1500):
            step(directory, steps, id_space=16)
            picked = directory.select(fast)
            assert picked is scan_select(directory, slow)
            probes += picked is not None and picked.suspected and bool(directory.healthy_ids())
            if index % 10 == 0:
                count = int(steps.integers(0, 8))
                sampled = directory.sample(count, fast)
                expected = scan_sample(directory, count, slow)
                assert [r.peer_id for r in sampled] == [r.peer_id for r in expected]
        assert probes > 20  # the liveness-probe branch really ran
        assert fast.random() == slow.random()

    def test_returned_lists_are_the_callers_own(self):
        directory = PeerDirectory(suspicion_threshold=1)
        for peer_id in (3, 1, 2):
            directory.add(peer_id, ("127.0.0.1", 1000 + peer_id))
        directory.mark_failure(2)
        directory.healthy_ids().clear()
        directory.suspected_ids().append(77)
        assert directory.healthy_ids() == [1, 3]
        assert directory.suspected_ids() == [2]

    def test_readding_a_peer_keeps_its_suspicion(self):
        directory = PeerDirectory(suspicion_threshold=1)
        directory.add(5, ("127.0.0.1", 1005))
        directory.mark_failure(5)
        directory.add(5, ("127.0.0.1", 2005))
        assert directory.get(5).address == ("127.0.0.1", 2005)
        assert directory.suspected_ids() == [5] and directory.healthy_ids() == []
