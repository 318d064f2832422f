"""Membership and the peer directory: who a node daemon can gossip with,
and who it trusts.

A :class:`MemberTable` holds who is in the system: the sorted member ids
and their addresses.  A ``LocalCluster`` keeps one for all its daemons
(each daemon's bind appends to it); a standalone daemon or a
process-mode node owns a private one.  Nothing in it is per pair, so a
cluster's membership costs O(N), not O(N²).

A :class:`PeerDirectory` is one daemon's view of a table: every member
but the daemon itself, minus the peers it must not draw — members that
left before it joined, and any it took out with :meth:`remove`.  On top
of the view it keeps sparse liveness evidence, for the few peers it has
any about: a real peer can crash, hang, or sit behind a lossy path, so
the directory tracks a *failure suspicion* count per peer and the gossip
timer stops wasting periods (and retry budgets) on dead peers while
still probing them occasionally for recovery:

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
rarely.  The healthy pool is always the view's ids in sorted order, so a
seeded generator picks the same peers whatever the representation.  A
directory with no suspected or excluded peer draws straight from the
table's list, skipping its own position (cached until the table
changes); one with some keeps a private healthy list that a transition
(new member, removal, first suspicion, recovery) only invalidates and
the next draw rebuilds in one pass.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.errors import NetworkError

__all__ = ["MemberTable", "PeerDirectory"]


class MemberTable:
    """The members of one system: sorted ids and their addresses."""

    __slots__ = ("ids", "addresses", "version")

    def __init__(self) -> None:
        #: member ids, sorted
        self.ids: list[int] = []
        self.addresses: dict[int, tuple[str, int]] = {}
        #: bumped whenever ``ids`` changes (views rebuild lazily)
        self.version = 0

    def add(self, member_id: int, address: tuple[str, int]) -> None:
        """Register (or re-address) a member; appending a new highest id is O(1)."""
        if member_id not in self.addresses:
            if self.ids and member_id < self.ids[-1]:
                insort(self.ids, member_id)
            else:
                self.ids.append(member_id)
            self.version += 1
        self.addresses[member_id] = address


class PeerDirectory:
    """Liveness-aware view of a :class:`MemberTable` for one node daemon.

    Args:
        table: the membership this directory views (default: a private
            one, filled by :meth:`add`).
        owner: the daemon's own id, never drawn.
        suspicion_threshold: consecutive failures before a peer is
            suspected.
        probe_rate: probability a selection picks a suspected peer to
            probe for recovery (when any healthy peer exists).
    """

    __slots__ = (
        "table", "owner", "suspicion_threshold", "probe_rate",
        "_failures", "_suspected", "_excluded",
        "_version", "_healthy", "_skip", "_size",
    )

    def __init__(
        self,
        table: MemberTable | None = None,
        owner: int | None = None,
        *,
        suspicion_threshold: int = 3,
        probe_rate: float = 0.05,
    ) -> None:
        if suspicion_threshold < 1:
            raise NetworkError("suspicion threshold must be >= 1")
        if not 0.0 <= probe_rate <= 1.0:
            raise NetworkError(f"probe rate {probe_rate} must be in [0, 1]")
        self.table = table if table is not None else MemberTable()
        self.owner = owner
        self.suspicion_threshold = suspicion_threshold
        self.probe_rate = probe_rate
        #: consecutive failures, only for peers with at least one
        self._failures: dict[int, int] = {}
        #: sorted ids whose failure count reached the threshold
        self._suspected: list[int] = []
        #: members this view must not draw
        self._excluded: set[int] = set()
        #: table version the cache below was built at; -1 after a transition
        self._version = -1
        #: the private healthy list, or None: draw from ``table.ids``
        self._healthy: list[int] | None = None
        #: the owner's position in ``table.ids`` (its length when absent)
        self._skip = 0
        #: peers in the view
        self._size = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add(self, peer_id: int, address: tuple[str, int]) -> None:
        """Register (or re-address) a peer in the table; a peer this
        view had removed becomes drawable again, with no evidence."""
        if peer_id == self.owner:
            raise NetworkError("a node cannot be its own peer")
        self.table.add(peer_id, address)
        if peer_id in self._excluded:
            self._excluded.discard(peer_id)
            self._version = -1

    def remove(self, peer_id: int) -> None:
        """Stop drawing a peer (administrative leave, or a member that
        left before this daemon joined); the table keeps it."""
        if peer_id not in self:
            raise NetworkError(f"unknown peer {peer_id}")
        self._excluded.add(peer_id)
        if self._failures.pop(peer_id, 0) >= self.suspicion_threshold:
            self._suspected.remove(peer_id)
        self._version = -1

    def __len__(self) -> int:
        if self._version != self.table.version:
            self._refresh()
        return self._size

    def __contains__(self, peer_id: object) -> bool:
        return (
            peer_id != self.owner
            and peer_id in self.table.addresses
            and peer_id not in self._excluded
        )

    def peer_ids(self) -> list[int]:
        """All peers in the view (healthy and suspected), sorted."""
        return [i for i in self.table.ids if i in self]

    def healthy_ids(self) -> list[int]:
        """Peers currently below the suspicion threshold, sorted."""
        if self._version != self.table.version:
            self._refresh()
        if self._healthy is not None:
            return list(self._healthy)
        ids, skip = self.table.ids, self._skip
        return ids[:skip] + ids[skip + 1:]

    def suspected_ids(self) -> list[int]:
        """Peers currently suspected of having failed, sorted."""
        return list(self._suspected)

    def _refresh(self) -> None:
        """Re-derive the cache after a table change or a transition."""
        table = self.table
        ids = table.ids
        skip = len(ids)
        if self.owner in table.addresses:
            skip = bisect_left(ids, self.owner)
        self._version = table.version
        self._skip = skip
        self._size = len(ids) - (skip < len(ids)) - len(self._excluded)
        if self._suspected or self._excluded:
            drop = self._excluded.union(self._suspected)
            self._healthy = [i for i in ids if i not in drop and i != self.owner]
        else:
            self._healthy = None

    # ------------------------------------------------------------------
    # Liveness evidence
    # ------------------------------------------------------------------

    def mark_alive(self, peer_id: int) -> None:
        """A message from (or completed exchange with) the peer arrived."""
        # Only peers in the view ever get an entry, so an unknown id is
        # a no-op here.
        if self._failures.pop(peer_id, 0) >= self.suspicion_threshold:
            self._suspected.remove(peer_id)
            self._version = -1

    def mark_failure(self, peer_id: int) -> bool:
        """An exchange with the peer timed out; returns suspicion state."""
        if peer_id not in self:
            return False  # evidence about a peer we no longer track
        failures = self._failures.get(peer_id, 0) + 1
        self._failures[peer_id] = failures
        if failures == self.suspicion_threshold:
            insort(self._suspected, peer_id)
            self._version = -1
        return failures >= self.suspicion_threshold

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def select(self, rng: np.random.Generator) -> int | None:
        """Pick a gossip partner's id: uniform over healthy peers, with
        an occasional probe of a suspected one; ``None`` when empty."""
        if self._version != self.table.version:
            self._refresh()
        healthy = self._healthy
        if healthy is None:  # nobody suspected or excluded
            if not self._size:
                return None
            index = int(rng.integers(0, self._size))
            return self.table.ids[index if index < self._skip else index + 1]
        suspected = self._suspected
        if healthy and suspected and self.probe_rate > 0.0 and rng.random() < self.probe_rate:
            return suspected[int(rng.integers(0, len(suspected)))]
        pool = healthy or suspected
        if not pool:
            return None
        return pool[int(rng.integers(0, len(pool)))]

    def sample(self, count: int, rng: np.random.Generator) -> list[int]:
        """Up to ``count`` distinct healthy peers' ids (for bootstrap sampling)."""
        if self._version != self.table.version:
            self._refresh()
        if self._healthy is None:
            size, skip, ids = self._size, self._skip, self.table.ids
            if not size or count <= 0:
                return []
            if size > count:
                picks = rng.choice(size, size=count, replace=False)
                return [ids[i if i < skip else i + 1] for i in map(int, picks)]
            return self.healthy_ids()
        pool = self._healthy or self._suspected
        if not pool or count <= 0:
            return []
        if len(pool) > count:
            picks = rng.choice(len(pool), size=count, replace=False)
            return [pool[int(i)] for i in picks]
        return list(pool)
