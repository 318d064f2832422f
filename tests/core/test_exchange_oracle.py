"""``gossip_exchange`` is the exact oracle of ``fastsim.sequential_round``.

The object form (one :class:`~repro.core.node.Adam2Node` per peer, one
:func:`~repro.core.node.gossip_exchange` per drawn pair) and the array
form (one row per peer, one pass of the vectorised simulator's
reference kernel) run the same push–pull exchanges in the same order
from twin generators, and both compute each merge with the same
correctly rounded float operations (``(a + b) / 2`` is ``(a + b) * 0.5``
in IEEE arithmetic), so the two must agree bit for bit, in either join
mode: a one-ulp change in either MERGE fails here.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import Adam2Config
from repro.core.instance import InstanceState
from repro.core.node import Adam2Node, gossip_exchange
from repro.fastsim.exchange import random_partners, sequential_round
from repro.rngs import make_rng, spawn

CONFIG = Adam2Config(points=12, rounds_per_instance=40, verification_points=5)
ROUNDS = 12


def population(n, rng):
    """Multi-value peers (1–3 values each), so the count column moves too."""
    return [rng.lognormal(3.0, 1.0, size=int(rng.integers(1, 4))) for _ in range(n)]


def wire(values, rng, config=CONFIG):
    return [Adam2Node(i, v, config, spawn(rng)) for i, v in enumerate(values)]


def row(state):
    """One peer's averaged quantities in the array form's column order."""
    return np.concatenate((
        state.h.fractions, state.v_fractions, [state.weight, state.count_average],
    ))


def array_form(nodes, template):
    """``(averaged, extremes, joined)``: an unjoined row holds its initial state."""
    states = [
        node.instances.get(template.instance_id)
        or InstanceState.initial(
            template.instance_id, node.values, template.h.thresholds,
            template.v_thresholds, template.ttl, initiator=False,
        )
        for node in nodes
    ]
    averaged = np.stack([row(state) for state in states])
    extremes = np.asarray([[s.h.minimum, s.h.maximum] for s in states])
    joined = np.asarray([template.instance_id in node.instances for node in nodes])
    return averaged, extremes, joined


def object_round(nodes, rng):
    order, partners = random_partners(len(nodes), rng)
    for p, q in zip(order, partners):
        gossip_exchange(nodes[int(p)], nodes[int(q)])


@pytest.mark.parametrize("join_mode", ["symmetric", "literal"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [50, 300])
def test_gossip_exchange_matches_sequential_round_bit_for_bit(n, seed, join_mode):
    rng = make_rng(seed)
    values = population(n, rng)
    nodes = wire(values, rng, dataclasses.replace(CONFIG, join_mode=join_mode))
    initiator = nodes[int(rng.integers(0, n))]
    iid = initiator.start_instance(neighbour_values=np.concatenate(values[:8]))
    template = initiator.instances[iid]
    averaged, extremes, joined = array_form(nodes, template)

    object_rng, array_rng = make_rng(100 + seed), make_rng(100 + seed)
    for _ in range(ROUNDS):
        object_round(nodes, object_rng)
        sequential_round(averaged, extremes, joined, array_rng, join_mode)
        expected = array_form(nodes, template)
        np.testing.assert_array_equal(joined, expected[2])
        np.testing.assert_array_equal(averaged, expected[0])
        np.testing.assert_array_equal(extremes, expected[1])
    # The comparison is not vacuous: the instance spread and mixed.
    assert joined.all()
    assert np.unique(averaged[:, -2]).size > 1

