"""Gossip exchange kernels over array state.

State layout shared by both kernels:

* ``averaged`` — shape ``(n, k)``: all quantities that merge by averaging
  (interpolation fractions, verification fractions, the size weight).
* ``extremes`` — shape ``(n, 2)``: per-node (minimum, maximum) estimates,
  merging by min/max.
* ``joined`` — shape ``(n,)`` bool: whether the node has seen the
  instance.  **Invariant**: an unjoined node's rows hold exactly its
  initial state (indicator fractions, weight 0, own-value extremes), so
  joining is simply flipping the flag and exchanging.

Two kernels:

* :func:`sequential_round` — every node initiates one push–pull exchange
  with a uniformly random other node, sequentially in a random order
  (PeerSim cycle-driven semantics; a node's later exchanges see earlier
  effects).  This is the reference kernel — and the *naive baseline* of
  the N-scaling benchmark: a Python loop over nodes, unusable beyond a
  few tens of thousands of nodes.
* :func:`matching_round` — one random perfect matching per round, all
  pairs exchange simultaneously (fully vectorised).  Converges
  exponentially with a slightly smaller per-round factor (each node takes
  part in exactly one exchange per round instead of two on average);
  the only kernel that reaches million-node populations.

Both kernels accept an optional :class:`ExchangeBuffers`: preallocated
per-round scratch (partner permutations, gather row buffers) reused
across rounds and instances, so no round allocates memory proportional
to ``n``.  Every gather into that scratch is ``np.take(..., out=...,
mode="clip")``: the default ``mode="raise"`` fills a temporary the size
of ``out`` and copies it over, and the indices here are slices of a
permutation the kernel drew itself, so no bounds check is lost.
Buffered and unbuffered paths consume the generator identically (an
in-place shuffle over a copied identity is exactly what
``rng.permutation`` does internally, and the partner draw is the same
``rng.integers`` call), so enabling buffers never changes a seeded
run — a property the tests assert bit-for-bit.

**Pair order.**  With buffers and every node joined, the matching round
does not scatter the averaged rows back to their nodes: it writes the
``n/2`` pair means contiguously into rows ``[0, n/2)``, copies them into
``[n/2, 2·(n/2))`` and moves an odd node out to the last row, then
records where each node now lives in the buffers' node→row index
``row_of``.  While that index is not the identity, row ``i`` of the
state is *not* node ``i``; :meth:`ExchangeBuffers.settle` is the one way
back to node order.  Every reader or writer of state rows by node id
either goes through ``row_of`` or runs after ``settle`` (the kernel's
partial path settles first itself).

Both kernels implement the two join semantics discussed in DESIGN.md:
``literal`` (paper Fig. 1: the joiner merges, the contacted peer ignores
the empty reply — not mass-conserving) and ``symmetric`` (the joiner
initialises first and a normal exchange follows — mass-conserving).

The ``literal`` mode is *registered* as non-mass-conserving below rather
than silently exempted: every join under it duplicates the contacted
peer's averaged mass (the joiner absorbs half of the peer's state while
the peer keeps all of it), so the column sums the convergence proof
relies on inflate with each join.  Concretely, size weights gain mass —
``sum(w)`` grows beyond 1 and per-node size estimates ``1/w`` are biased
low — and fraction columns are pulled towards the values of nodes that
joined early, over-weighting the initiator's neighbourhood.  The runtime
sanitizer (:mod:`repro.lint.sanitizer`) skips the mass-equality check
for registered modes by declaration, while still enforcing per-node
range and monotonicity invariants.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.core.config import LITERAL_JOIN_BIAS
from repro.core.conservation import register_non_conserving

__all__ = [
    "ExchangeBuffers",
    "matching_round",
    "random_partners",
    "sequential_round",
]

register_non_conserving("literal", LITERAL_JOIN_BIAS)


class ExchangeBuffers:
    """Preallocated per-round scratch for the exchange kernels.

    One instance is sized for a fixed population ``n`` and state width
    (columns of the ``averaged`` matrix) and reused for every round of
    every instance: the permutation and partner draws fill preallocated
    index buffers in place, and the matching kernel gathers pair rows
    into preallocated row buffers (``np.take(..., out=..., mode="clip")``)
    instead of allocating ``(n/2, width)`` temporaries four times per
    round.

    The buffers also own the node→row index ``row_of`` of the state they
    drive (see the module docstring): the identity after
    :meth:`reset_order` and :meth:`settle`, a permutation after a
    steady-state matching round.

    The buffered and unbuffered paths consume the generator identically
    (`shuffle` over a copied identity is exactly what ``permutation``
    does internally), so enabling buffers never changes a seeded run.
    """

    def __init__(self, n: int, width: int, dtype: np.dtype | type = np.float64):
        if n < 2:
            raise SimulationError("need at least 2 nodes to gossip")
        if width < 1:
            raise SimulationError("state width must be at least 1")
        self.n = int(n)
        self.width = int(width)
        self.dtype = np.dtype(dtype)
        self._identity = np.arange(self.n, dtype=np.intp)
        self.order = np.empty(self.n, dtype=np.intp)
        self.partners = np.empty(self.n, dtype=np.int64)
        self._ge = np.empty(self.n, dtype=bool)
        # Node→row index of the driven state, and index scratch for the
        # drawn nodes' rows (steady round) or active pairs (masked round).
        self.row_of = self._identity.copy()
        self._paired = False
        self._draw_rows = np.empty(self.n, dtype=np.intp)
        half = self.n // 2
        # Matching-kernel row scratch: gathered pair rows and extremes.
        self.rows_a = np.empty((half, self.width), dtype=self.dtype)
        self.rows_b = np.empty((half, self.width), dtype=self.dtype)
        self.ext_a = np.empty((half, 2), dtype=self.dtype)
        self.ext_b = np.empty((half, 2), dtype=self.dtype)

    @classmethod
    def ensure(
        cls,
        current: "ExchangeBuffers | None",
        n: int,
        width: int,
        dtype: np.dtype | type = np.float64,
    ) -> "ExchangeBuffers":
        """Reuse ``current`` when it matches, else allocate fresh scratch."""
        resolved = np.dtype(dtype)
        if (
            current is not None
            and current.n == n
            and current.width == width
            and current.dtype == resolved
        ):
            return current
        return cls(n, width, resolved)

    def compatible(self, averaged: np.ndarray) -> bool:
        """Whether this scratch matches a state matrix's shape and dtype."""
        return (
            averaged.shape[0] == self.n
            and averaged.shape[1] == self.width
            and averaged.dtype == self.dtype
        )

    def permutation(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform random permutation of ``0..n-1``, allocation-free.

        Identical stream consumption to ``rng.permutation(n)``: copy the
        identity, shuffle in place.
        """
        order = self.order
        order[:] = self._identity
        rng.shuffle(order)
        return order

    def uniform_partners(self, rng: np.random.Generator, order: np.ndarray) -> np.ndarray:
        """Uniform partner (≠ self) per node, adjusted in place.

        The draw itself is the same ``rng.integers`` call as the
        unbuffered path (NumPy has no ``out=`` form for bounded integer
        draws), copied into the preallocated buffer; the ≥-shift that
        keeps a node from gossiping with itself then runs in place
        instead of materialising two comparison temporaries.
        """
        partners = self.partners
        partners[:] = rng.integers(0, self.n - 1, size=self.n)
        np.greater_equal(partners, order, out=self._ge)
        np.add(partners, self._ge, out=partners)
        return partners

    def reset_order(self) -> None:
        """The driven state was refilled in node order: ``row_of`` := identity."""
        if self._paired:
            self.row_of[:] = self._identity
            self._paired = False

    def pair_up(self, averaged: np.ndarray, extremes: np.ndarray, perm: np.ndarray) -> int:
        """Steady-state matching round over an all-joined state, in pair order.

        Pair ``i`` is nodes ``(perm[i], perm[h + i])`` with ``h = n // 2``.
        Both sides are gathered through ``row_of``; the mean lands in row
        ``i`` and is copied to row ``h + i`` (extremes alike), an odd
        node out moves to the last row, and ``row_of`` follows with one
        integer scatter.  Same pairs, same ``(a + b) · 0.5`` as a
        node-order round, so the values are bit-identical; no state row
        is fancy-scattered.
        """
        half = self.n // 2
        rows = self._draw_rows
        np.take(self.row_of, perm, out=rows, mode="clip")
        rows_a, rows_b, ext_a, ext_b = self.rows_a, self.rows_b, self.ext_a, self.ext_b
        np.take(averaged, rows[:half], axis=0, out=rows_a, mode="clip")
        np.take(averaged, rows[half : 2 * half], axis=0, out=rows_b, mode="clip")
        np.take(extremes, rows[:half], axis=0, out=ext_a, mode="clip")
        np.take(extremes, rows[half : 2 * half], axis=0, out=ext_b, mode="clip")
        if self.n % 2:
            # Every paired row is gathered, so the last row is free.
            averaged[-1] = averaged[rows[-1]]
            extremes[-1] = extremes[rows[-1]]
        means = averaged[:half]
        np.add(rows_a, rows_b, out=means)
        means *= 0.5
        averaged[half : 2 * half] = means
        bounds = extremes[:half]
        np.minimum(ext_a[:, 0], ext_b[:, 0], out=bounds[:, 0])
        np.maximum(ext_a[:, 1], ext_b[:, 1], out=bounds[:, 1])
        extremes[half : 2 * half] = bounds
        self.row_of[perm] = self._identity
        self._paired = True
        return half

    def settle(self, averaged: np.ndarray, extremes: np.ndarray) -> None:
        """Restore node order (row ``i`` holds node ``i``); no-op when it holds.

        Gathers through ``row_of`` into the row scratch, copies back,
        and resets the index.  Callers: the kernel's partial path, and
        whoever reads state rows by node id after steady rounds (result
        assembly, tracked errors, the sanitizer, shard stats and
        finish).
        """
        if not self._paired:
            return
        half = self.n // 2
        row_of = self.row_of
        for state, front, back in (
            (averaged, self.rows_a, self.rows_b),
            (extremes, self.ext_a, self.ext_b),
        ):
            last = state[row_of[-1]].copy()
            np.take(state, row_of[:half], axis=0, out=front, mode="clip")
            np.take(state, row_of[half : 2 * half], axis=0, out=back, mode="clip")
            state[:half] = front
            state[half : 2 * half] = back
            state[-1] = last
        self.reset_order()


def random_partners(
    n: int,
    rng: np.random.Generator,
    buffers: ExchangeBuffers | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Random node order and a uniform partner (≠ self) for each.

    With ``buffers`` the permutation is shuffled in place into the
    preallocated index buffer (the order stream is identical to the
    unbuffered path) and the partner draw fills preallocated scratch —
    no per-round allocation.  Without buffers, fresh arrays are drawn
    exactly as the original implementation did.
    """
    if n < 2:
        raise SimulationError("need at least 2 nodes to gossip")
    if buffers is not None and buffers.n == n:
        order = buffers.permutation(rng)
        partners = buffers.uniform_partners(rng, order)
        return order, partners
    order = rng.permutation(n)
    partners = rng.integers(0, n - 1, size=n)
    partners = partners + (partners >= order)
    return order, partners


def sequential_round(
    averaged: np.ndarray,
    extremes: np.ndarray,
    joined: np.ndarray,
    rng: np.random.Generator,
    join_mode: str = "symmetric",
    excluded: np.ndarray | None = None,
    buffers: ExchangeBuffers | None = None,
) -> int:
    """One sequential push–pull round; returns exchanges that carried data.

    Nodes flagged in ``excluded`` ignore the instance entirely (paper
    §VII-G: nodes that enter the system mid-instance): an exchange with
    an excluded peer is a no-op for both sides.
    """
    n = averaged.shape[0]
    order, partners = random_partners(n, rng, buffers)
    literal = join_mode == "literal"
    active = 0
    for i in range(n):
        p = int(order[i])
        q = int(partners[i])
        if excluded is not None and (excluded[p] or excluded[q]):
            continue
        jp = joined[p]
        jq = joined[q]
        if not (jp or jq):
            continue
        active += 1
        if literal and jp != jq:
            # Only the joiner updates; the informed peer keeps its state.
            j, s = (p, q) if not jp else (q, p)
            averaged[j] += averaged[s]
            averaged[j] *= 0.5
            lo = min(extremes[j, 0], extremes[s, 0])
            hi = max(extremes[j, 1], extremes[s, 1])
            extremes[j, 0] = lo
            extremes[j, 1] = hi
            joined[j] = True
            continue
        mean = (averaged[p] + averaged[q]) * 0.5
        averaged[p] = mean
        averaged[q] = mean
        lo = min(extremes[p, 0], extremes[q, 0])
        hi = max(extremes[p, 1], extremes[q, 1])
        extremes[p, 0] = lo
        extremes[p, 1] = hi
        extremes[q, 0] = lo
        extremes[q, 1] = hi
        joined[p] = True
        joined[q] = True
    return active


def matching_round(
    averaged: np.ndarray,
    extremes: np.ndarray,
    joined: np.ndarray,
    rng: np.random.Generator,
    join_mode: str = "symmetric",
    excluded: np.ndarray | None = None,
    buffers: ExchangeBuffers | None = None,
) -> int:
    """One random-matching round (vectorised); returns active exchanges.

    With compatible ``buffers`` and every node joined (the steady state
    an instance spends most of its rounds in), the round is
    :meth:`ExchangeBuffers.pair_up`: permutation in place, pair rows
    gathered through ``row_of`` into the scratch without a buffer, the
    means written contiguously in pair order — no allocation and no
    fancy scatter of state rows.  Otherwise (spreading phase, churn
    exclusions) the state is settled back to node order first and the
    active pairs are gathered and scattered by node id.
    """
    n = averaged.shape[0]
    if n < 2:
        raise SimulationError("need at least 2 nodes to gossip")
    scratch = buffers if buffers is not None and buffers.compatible(averaged) else None
    perm = scratch.permutation(rng) if scratch is not None else rng.permutation(n)
    if scratch is not None and excluded is None and joined.all():
        return scratch.pair_up(averaged, extremes, perm)
    if scratch is not None:
        scratch.settle(averaged, extremes)
    half = n // 2
    a = perm[:half]
    b = perm[half : 2 * half]

    active = joined[a]
    active |= joined[b]
    if excluded is not None:
        active &= ~excluded[a]
        active &= ~excluded[b]
    count = int(np.count_nonzero(active))
    if count == 0:
        return 0
    if scratch is not None:
        # Compact the active pairs into the index scratch through one
        # index array instead of two mask-indexed copies.
        pairs = np.flatnonzero(active)
        a = np.take(a, pairs, out=scratch._draw_rows[:count], mode="clip")
        b = np.take(b, pairs, out=scratch._draw_rows[count : 2 * count], mode="clip")
    else:
        a = a[active]
        b = b[active]
    if join_mode == "literal":
        both = joined[a] & joined[b]
        one = ~both  # exactly one joined (none-joined pairs were dropped)
        if one.any():
            ao, bo = a[one], b[one]
            joiner = np.where(joined[ao], bo, ao)
            source = np.where(joined[ao], ao, bo)
            averaged[joiner] = (averaged[joiner] + averaged[source]) * 0.5
            lo = np.minimum(extremes[joiner, 0], extremes[source, 0])
            hi = np.maximum(extremes[joiner, 1], extremes[source, 1])
            extremes[joiner, 0] = lo
            extremes[joiner, 1] = hi
            joined[joiner] = True
        a = a[both]
        b = b[both]
        if a.size == 0:
            return count
    if scratch is not None:
        # Partial-activity path (spreading phase, churn exclusions):
        # same unbuffered take/out over size-m views of the row scratch.
        m = a.size
        rows_a = scratch.rows_a[:m]
        rows_b = scratch.rows_b[:m]
        np.take(averaged, a, axis=0, out=rows_a, mode="clip")
        np.take(averaged, b, axis=0, out=rows_b, mode="clip")
        np.add(rows_a, rows_b, out=rows_a)
        rows_a *= 0.5
        averaged[a] = rows_a
        averaged[b] = rows_a
        ext_a = scratch.ext_a[:m]
        ext_b = scratch.ext_b[:m]
        np.take(extremes, a, axis=0, out=ext_a, mode="clip")
        np.take(extremes, b, axis=0, out=ext_b, mode="clip")
        np.minimum(ext_a[:, 0], ext_b[:, 0], out=ext_a[:, 0])
        np.maximum(ext_a[:, 1], ext_b[:, 1], out=ext_a[:, 1])
        extremes[a] = ext_a
        extremes[b] = ext_a
    else:
        mean = (averaged[a] + averaged[b]) * 0.5
        averaged[a] = mean
        averaged[b] = mean
        lo = np.minimum(extremes[a, 0], extremes[b, 0])
        hi = np.maximum(extremes[a, 1], extremes[b, 1])
        extremes[a, 0] = lo
        extremes[a, 1] = hi
        extremes[b, 0] = lo
        extremes[b, 1] = hi
    joined[a] = True
    joined[b] = True
    return count
