"""The peer directory: who a node daemon can gossip with, and who it trusts.

A real peer can crash, hang, or sit behind a lossy path; the directory
tracks a *failure suspicion* count per peer so the gossip timer stops
wasting periods (and retry budgets) on dead peers while still probing
them occasionally for recovery:

* every completed exchange resets the peer to healthy;
* every request timeout increments its consecutive-failure count;
* at ``suspicion_threshold`` consecutive failures the peer is
  *suspected* and excluded from normal selection;
* with probability ``probe_rate`` a selection deliberately picks a
  suspected peer anyway — the liveness probe that lets a recovered peer
  (or a healed path) rejoin the gossip.

This is deliberately simpler than a full SWIM-style failure detector:
gossip tolerates false suspicion (the peer just receives less traffic),
so cheap local evidence is enough.

Selection runs every gossip tick; membership and suspicion change
rarely.  The sorted healthy / suspected id lists are therefore an index
that a transition (new peer, removal, first suspicion, recovery) only
invalidates and the next draw rebuilds in one pass: the same ids in the
same order as a sorted scan, so a seeded generator picks the same peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NetworkError

__all__ = ["PeerDirectory", "PeerRecord"]


@dataclass(slots=True)
class PeerRecord:
    """Directory entry for one remote peer."""

    peer_id: int
    address: tuple[str, int]
    #: consecutive failed exchanges since the last success
    failures: int = 0
    #: whether the failure count crossed the suspicion threshold
    suspected: bool = False
    #: total exchanges completed with this peer (diagnostics)
    successes: int = 0


@dataclass(slots=True)
class PeerDirectory:
    """Liveness-aware peer bookkeeping for one node daemon.

    Args:
        suspicion_threshold: consecutive failures before a peer is
            suspected.
        probe_rate: probability a selection picks a suspected peer to
            probe for recovery (when any healthy peer exists).
    """

    suspicion_threshold: int = 3
    probe_rate: float = 0.05
    _peers: dict[int, PeerRecord] = field(default_factory=dict)
    #: sorted (healthy, suspected) ids; ``None`` after a transition
    _index: tuple[list[int], list[int]] | None = None

    def __post_init__(self) -> None:
        if self.suspicion_threshold < 1:
            raise NetworkError("suspicion threshold must be >= 1")
        if not 0.0 <= self.probe_rate <= 1.0:
            raise NetworkError(f"probe rate {self.probe_rate} must be in [0, 1]")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add(self, peer_id: int, address: tuple[str, int]) -> None:
        """Register (or re-address) a peer."""
        record = self._peers.get(peer_id)
        if record is None:
            self._peers[peer_id] = PeerRecord(peer_id=peer_id, address=address)
            self._index = None
        else:
            record.address = address

    def remove(self, peer_id: int) -> None:
        """Forget a peer (administrative leave)."""
        if self._peers.pop(peer_id, None) is None:
            raise NetworkError(f"unknown peer {peer_id}")
        self._index = None

    def get(self, peer_id: int) -> PeerRecord:
        record = self._peers.get(peer_id)
        if record is None:
            raise NetworkError(f"unknown peer {peer_id}")
        return record

    def __len__(self) -> int:
        return len(self._peers)

    def __contains__(self, peer_id: object) -> bool:
        return peer_id in self._peers

    def peer_ids(self) -> list[int]:
        """All registered peer ids (healthy and suspected), sorted."""
        return sorted(self._peers)

    def healthy_ids(self) -> list[int]:
        """Peers currently below the suspicion threshold, sorted."""
        return list(self._pools()[0])

    def suspected_ids(self) -> list[int]:
        """Peers currently suspected of having failed, sorted."""
        return list(self._pools()[1])

    def _pools(self) -> tuple[list[int], list[int]]:
        """The ``(healthy, suspected)`` index, rebuilt after a transition."""
        index = self._index
        if index is None:
            healthy: list[int] = []
            suspected: list[int] = []
            for peer_id in sorted(self._peers):
                (suspected if self._peers[peer_id].suspected else healthy).append(peer_id)
            index = self._index = (healthy, suspected)
        return index

    # ------------------------------------------------------------------
    # Liveness evidence
    # ------------------------------------------------------------------

    def mark_alive(self, peer_id: int) -> None:
        """A message from (or completed exchange with) the peer arrived."""
        record = self._peers.get(peer_id)
        if record is None:
            return  # evidence about a peer we no longer track
        record.failures = 0
        record.successes += 1
        if record.suspected:
            record.suspected = False
            self._index = None

    def mark_failure(self, peer_id: int) -> bool:
        """An exchange with the peer timed out; returns suspicion state."""
        record = self._peers.get(peer_id)
        if record is None:
            return False
        record.failures += 1
        if record.failures >= self.suspicion_threshold and not record.suspected:
            record.suspected = True
            self._index = None
        return record.suspected

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select(self, rng: np.random.Generator) -> PeerRecord | None:
        """Pick a gossip partner: uniform over healthy peers, with an
        occasional probe of a suspected one; ``None`` when empty."""
        healthy, suspected = self._pools()
        if healthy and suspected and self.probe_rate > 0.0 and rng.random() < self.probe_rate:
            return self._peers[suspected[int(rng.integers(0, len(suspected)))]]
        pool = healthy or suspected
        if not pool:
            return None
        return self._peers[pool[int(rng.integers(0, len(pool)))]]

    def sample(self, count: int, rng: np.random.Generator) -> list[PeerRecord]:
        """Up to ``count`` distinct healthy peers (for bootstrap sampling)."""
        healthy, suspected = self._pools()
        pool = healthy or suspected
        if not pool or count <= 0:
            return []
        if len(pool) > count:
            picks = rng.choice(len(pool), size=count, replace=False)
            pool = [pool[int(i)] for i in picks]
        return [self._peers[pid] for pid in pool]
