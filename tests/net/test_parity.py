"""Real sockets against virtual time: ``net`` estimates what ``async``
estimates, and the daemon's delivery over bytes is the core's receive step.

``async`` is the ``net`` backend's own code on virtual time: both run
the same daemons, transport and codec, and spawn their population from
the same seed in the same order, so they aggregate the *same* 32
attribute values.  What differs is the substrate — kernel sockets and
the wall clock against the in-memory fabric and the jumping clock — so
on a loss-free localhost cluster the real-socket run must land within
2x of the virtual run's final CDF max-error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run
from repro.core.config import Adam2Config
from repro.core.node import Adam2Node
from repro.net.codec import MSG_PULL, MSG_PUSH
from repro.net.node import NodeDaemon
from repro.rngs import make_rng, spawn
from repro.workloads.synthetic import uniform_workload

N_NODES = 32
CONFIG = Adam2Config(points=10, rounds_per_instance=30)
WORKLOAD = uniform_workload(0, 1000)
SEED = 17


def test_net_matches_async_within_2x():
    async_result = run(
        CONFIG, WORKLOAD, backend="async",
        n_nodes=N_NODES, instances=1, seed=SEED,
    )
    net_result = run(
        CONFIG, WORKLOAD, backend="net",
        n_nodes=N_NODES, instances=1, seed=SEED,
        gossip_period=0.02,
        transport_options={"request_timeout": 0.1, "max_retries": 3},
    )

    async_summary = async_result.instances[0]
    net_summary = net_result.instances[0]

    # Same seed, same spawn order: both substrates sampled the same
    # population, so their ground truths are identical.
    assert net_summary.reached == N_NODES
    assert net_result.extras["net_counters"]["decode_errors"] == 0

    async_err = async_summary.errors_entire.maximum
    net_err = net_summary.errors_entire.maximum
    assert 0.0 < async_err < 1.0
    assert net_err <= 2.0 * async_err, (
        f"net backend err_max {net_err:.4f} exceeds twice the virtual-time "
        f"run's {async_err:.4f} on a loss-free cluster"
    )


def test_net_estimate_brackets_the_population():
    result = run(
        CONFIG, WORKLOAD, backend="net",
        n_nodes=N_NODES, instances=1, seed=SEED + 1,
        gossip_period=0.02,
        transport_options={"request_timeout": 0.1, "max_retries": 3},
    )
    estimate = result.estimate
    assert estimate is not None
    # Gossiped extrema are exact min/max over the population.
    assert 0.0 <= estimate.minimum <= estimate.maximum <= 1000.0
    assert estimate.system_size is not None
    assert 16 <= estimate.system_size <= 64  # weight-based size near N=32


# ----------------------------------------------------------------------
# One receive step: the same delivery, message by message
# ----------------------------------------------------------------------

def _fields(state):
    return (
        state.h.thresholds.tolist(), state.h.fractions.tolist(),
        state.h.minimum, state.h.maximum,
        state.v_thresholds.tolist(), state.v_fractions.tolist(),
        state.weight, state.count_average, state.ttl,
    )


def _table(states):
    """Order-preserving comparable form of an ``{iid: InstanceState}`` map."""
    return [(iid, _fields(state)) for iid, state in states.items()]


@pytest.mark.parametrize("sanitize", [False, True])
def test_a_delivery_over_bytes_leaves_the_core_receive_steps_state_and_reply(sanitize):
    """A push handed (socket-free) to a ``NodeDaemon`` joins, skips,
    merges and replies exactly as the core's receive step applied in
    memory to a twin ``Adam2Node``: the codec round trip, the pre-merge
    pull records and the piggyback lose nothing and reorder nothing."""
    config = Adam2Config(points=6, verification_points=3, rounds_per_instance=20)
    values = np.array([10.0, 40.0])
    rng = make_rng(5)

    daemon = NodeDaemon(7, values, config, spawn(rng), sanitize=sanitize)
    core = Adam2Node(7, values, config, make_rng(0))
    codec = daemon.codec

    first = Adam2Node(1, 70.0, config, spawn(rng))
    second = Adam2Node(2, 5.0, config, spawn(rng))
    pool = np.array([5.0, 20.0, 45.0, 60.0, 80.0, 95.0])
    x = first.start_instance(neighbour_values=pool)
    y = second.start_instance(neighbour_values=pool * 2)
    expiring = second.start_instance(neighbour_values=pool / 2)
    second.instances[expiring].ttl = 1

    def deliver(sender: Adam2Node, msg_id: int):
        payload = {iid: state.snapshot() for iid, state in sender.instances.items()}
        reply = {}
        core.receive(payload, before_merge=lambda iid, local: reply.update({iid: local.snapshot()}))
        reply.update({
            iid: state for iid, state in core.instances.items()
            if iid not in reply and iid not in payload
        })
        push = codec.encode_states(MSG_PUSH, sender.node_id, msg_id, sender.instances)
        pull = codec.decode(daemon.handle_request(codec.decode(push), codec))
        assert pull.kind == MSG_PULL
        assert _table(pull.states) == _table(reply)
        assert _table(daemon.adam2.instances) == _table(core.instances)
        return pull.states

    # unknown instance: joined; the reply is the state as joined
    reply = deliver(first, 1)
    assert list(reply) == [x] and reply[x].weight == 0.0
    # a second sender: y joined, the expiring one skipped, x piggybacked
    reply = deliver(second, 2)
    assert list(reply) == [y, x]
    assert set(core.instances) == {x, y}
    # known instance: plain merge, the reply is the pre-merge state
    before = core.instances[x].snapshot()
    first.instances[x].ttl -= 3
    reply = deliver(first, 3)
    assert list(reply) == [x, y]
    assert _fields(reply[x]) == _fields(before)
    assert core.instances[x].weight == (before.weight + 1.0) / 2
