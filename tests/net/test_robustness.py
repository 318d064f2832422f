"""Robustness: the node-daemon runtime under loss and crash failures.

A 32-node cluster runs one aggregation instance with 5% injected
datagram loss while two nodes fail-stop mid-instance.  It runs on
virtual time (``backend="async"``): the daemons, transport and retries
are the ``net`` backend's, and a loaded host cannot skew the timers.  The
surviving cluster must still converge — every live node terminates with
a max CDF error below 0.05 at the interpolation points — and the
mass-conservation sanitizer brackets every merge along the way (the
per-delivery invariant holds even when replies are lost, which is
exactly why the transport's at-most-once dedup matters).
"""

from __future__ import annotations

from repro.api import run
from repro.core.config import Adam2Config
from repro.workloads.synthetic import uniform_workload

N_NODES = 32
CRASHES = 2
CONFIG = Adam2Config(points=16, rounds_per_instance=35)
WORKLOAD = uniform_workload(0, 1000)


def test_converges_under_loss_and_crashes():
    # sanitize=True: any mass-conservation / range / monotonicity
    # violation raises InvariantViolation and fails the test outright.
    result = run(
        CONFIG, WORKLOAD, backend="async",
        n_nodes=N_NODES, instances=1, seed=21,
        gossip_period=0.02,
        sanitize=True,
        drop_rate=0.05,
        crash_nodes=CRASHES,
        crash_round=18,
        transport_options={"request_timeout": 0.08, "max_retries": 3},
    )
    summary = result.instances[0]
    counters = result.extras["net_counters"]

    # The fault model actually fired: datagrams were dropped and the
    # retry/suspicion machinery worked through them.
    assert counters["dropped"] > 0
    assert counters["retries"] > 0
    assert counters["push_failures"] > 0  # crashed peers exhaust retries

    # Every surviving node terminated the instance...
    assert summary.reached == N_NODES - CRASHES
    # ...and the surviving estimate converged: max CDF error at the
    # interpolation points below 0.05 despite loss and churn.
    assert summary.errors_points.maximum < 0.05, (
        f"max CDF error {summary.errors_points.maximum:.4f} under "
        f"5% loss + {CRASHES} crashes"
    )
    # The whole-range error (interpolation gaps included) stays well
    # away from the reached-nobody degenerate value of 1.0.
    assert summary.errors_entire.maximum < 0.2
