"""Vectorised large-N simulator for parameter sweeps.

PeerSim's cycle-driven mode on NumPy arrays, so the paper's sweeps
(system sizes up to 1,000,000 nodes, dozens of configurations) run in
seconds; :func:`repro.core.node.gossip_exchange` is one exchange of the
sequential round in object form, and the tests' exact oracle for it.
The node daemons of :mod:`repro.net` run the same protocol one object
per peer.  All nodes of an aggregation instance
share one threshold vector, so the per-node state is one batched
``(N, λ)`` matrix (:class:`~repro.fastsim.state.BatchState`, reused
across instances) and a gossip round is a pass of a kernel over
preallocated scratch (:class:`~repro.fastsim.exchange.ExchangeBuffers`).
Populations beyond one process's appetite run through the
multiprocessing shard driver (:class:`~repro.fastsim.shard.ShardedAdam2`).
"""

from repro.fastsim.adam2 import Adam2Simulation, FastInstanceResult, FastRunResult
from repro.fastsim.churn import FastChurn
from repro.fastsim.equidepth import EquiDepthSimulation, EquiDepthPhaseResult
from repro.fastsim.exchange import ExchangeBuffers, matching_round, sequential_round
from repro.fastsim.shard import ShardedAdam2, ShardInstanceResult, ShardRunResult
from repro.fastsim.state import BatchState, resolve_dtype

__all__ = [
    "Adam2Simulation",
    "FastInstanceResult",
    "FastRunResult",
    "FastChurn",
    "EquiDepthSimulation",
    "EquiDepthPhaseResult",
    "ExchangeBuffers",
    "BatchState",
    "ShardedAdam2",
    "ShardInstanceResult",
    "ShardRunResult",
    "sequential_round",
    "matching_round",
    "resolve_dtype",
]
