"""Event-driven (asynchronous) gossip simulation.

The paper evaluates Adam2 in synchronous rounds, but deployments have no
global clock: each node gossips on its own timer (period ± jitter) and
messages take real time to travel — §VII-F notes the gossip period is
bounded below by the message round-trip time.  This package provides a
discrete-event engine with per-node clocks and a latency model, plus an
Adam2 adapter, so the protocol can be exercised under asynchrony: request
and response are separate delayed deliveries, states drift between
snapshot and merge, and instances terminate on local TTL counts rather
than global rounds.  The headline result — exponential convergence at the
interpolation points — survives unchanged, which is what justifies the
round-based evaluation.
"""

from repro.asyncsim.events import EventQueue
from repro.asyncsim.engine import AsyncEngine, AsyncProtocol, LatencyModel
from repro.asyncsim.adam2 import AsyncAdam2

__all__ = ["EventQueue", "AsyncEngine", "AsyncProtocol", "LatencyModel", "AsyncAdam2"]
