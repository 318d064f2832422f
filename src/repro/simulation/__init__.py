"""Round-based gossip simulation engine (PeerSim replacement).

The paper evaluates Adam2 in PeerSim's cycle-driven mode: in every round
each node initiates one gossip exchange with a random overlay neighbour,
exchanges proceed sequentially within the round, and protocols get a
per-round timer tick.  This package reproduces that model with
object-per-node fidelity; the vectorised large-N engine lives in
:mod:`repro.fastsim`.
"""

from repro.simulation.churn import ChurnModel, NoChurn, ReplacementChurn
from repro.simulation.engine import Engine, Protocol
from repro.simulation.network import NetworkAccounting
from repro.simulation.node_base import SimNode
from repro.simulation.runner import build_engine, run_until

__all__ = [
    "Engine",
    "Protocol",
    "SimNode",
    "NetworkAccounting",
    "ChurnModel",
    "NoChurn",
    "ReplacementChurn",
    "build_engine",
    "run_until",
]
