"""Backend parity: the same spec converges to the same answer everywhere.

The two simulated backends share no substrate code — the fast backend
is a vectorised matrix loop, the async backend runs the net node daemons
(wire codec, retrying transport, jittered per-node clocks) on virtual
time.  Agreement between them on the *converged* estimate is therefore
an end-to-end check of both.  (``net`` is ``async`` on real sockets:
tests/net/test_parity.py compares those two.  The exact check of the
exchange itself is tests/core/test_exchange_oracle.py.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run
from repro.core.config import Adam2Config
from repro.workloads import lognormal_workload

WORKLOAD = lognormal_workload()
N_NODES = 200
CONFIG = Adam2Config(points=10, rounds_per_instance=30)


@pytest.fixture(scope="module")
def results():
    return {
        backend: run(CONFIG, WORKLOAD, backend=backend, n_nodes=N_NODES, seed=17)
        for backend in ("fast", "async")
    }


@pytest.mark.parametrize("backend", ["fast", "async"])
def test_each_backend_converges(results, backend):
    final = results[backend].final
    assert final.reached == N_NODES
    # 30 rounds of epidemic averaging leave only interpolation error:
    # at the interpolation points themselves the estimate is near-exact,
    # while the entire-CDF error is bounded by the 10-point grid.  The
    # async backend terminates on local clocks with messages in flight,
    # so a small residue remains at the points.
    points_budget = 0.02 if backend == "async" else 1e-3
    assert final.errors_points.maximum < points_budget
    assert final.errors_entire.maximum < 0.2
    assert final.errors_entire.average < 0.05


@pytest.mark.parametrize("other", ["async"])
def test_estimates_match_fast_backend(results, other):
    """Same seed → same sampled population → near-identical CDF points."""
    fast = results["fast"].estimate
    alt = results[other].estimate
    # Thresholds are picked from each backend's own sampled population;
    # with the same seed the populations are drawn from the same
    # distribution, so compare the estimated CDFs on the fast grid.
    # Each backend draws its own 200-node population from the workload,
    # so the comparison is bounded by sampling noise (~1.36·sqrt(2/N)
    # for a two-sample KS deviation), not by protocol error.
    fast_fractions = np.asarray(fast.fractions)
    alt_at = np.interp(fast.thresholds, alt.thresholds, np.asarray(alt.fractions))
    assert np.max(np.abs(fast_fractions - alt_at)) < 0.2
    assert np.mean(np.abs(fast_fractions - alt_at)) < 0.08


def test_traffic_accounting_consistent(results):
    for backend, result in results.items():
        final = result.final
        assert final.messages > 0, backend
        # Payloads scale with the synopsis: at least one float per point.
        assert final.bytes >= final.messages, backend
