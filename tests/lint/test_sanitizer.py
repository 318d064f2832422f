"""Runtime sanitizer integration: injected invariant violations must be
caught on every backend, and declared non-conserving modes must be
whitelisted by declaration, not silently."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run
from repro.core.config import Adam2Config
from repro.core.conservation import (
    NON_CONSERVING_MODES,
    is_mass_conserving,
    non_conserving_reason,
)
from repro.core.node import Adam2Node, gossip_exchange
from repro.fastsim.adam2 import Adam2Simulation
from repro.fastsim.exchange import random_partners, sequential_round
from repro.lint.sanitizer import (
    ENV_FLAG,
    FastsimSanitizer,
    InvariantViolation,
    checked_delivery,
    sanitize_enabled,
)
from repro.rngs import make_rng, spawn
from repro.workloads.synthetic import uniform_workload

CONFIG = Adam2Config(points=6, rounds_per_instance=8)


# ---------------------------------------------------------------------
# Flag resolution and mode registry
# ---------------------------------------------------------------------


def test_env_var_switches_sanitizer_on(monkeypatch):
    monkeypatch.delenv(ENV_FLAG, raising=False)
    assert not sanitize_enabled()
    monkeypatch.setenv(ENV_FLAG, "1")
    assert sanitize_enabled()
    assert not sanitize_enabled(False)  # explicit flag wins over env
    monkeypatch.setenv(ENV_FLAG, "0")
    assert not sanitize_enabled()
    assert sanitize_enabled(True)


def test_literal_join_mode_is_registered_by_declaration():
    assert not is_mass_conserving("literal")
    assert "literal" in NON_CONSERVING_MODES
    reason = non_conserving_reason("literal")
    assert reason is not None and "mass" in reason
    assert is_mass_conserving("symmetric")


# ---------------------------------------------------------------------
# Fastsim backend
# ---------------------------------------------------------------------


def _fast_sim(**kwargs) -> Adam2Simulation:
    return Adam2Simulation(
        uniform_workload(0, 1000), n_nodes=24, config=kwargs.pop("config", CONFIG),
        seed=7, sanitize=True, **kwargs,
    )


def test_fastsim_clean_run_passes():
    result = _fast_sim().run_instance()
    assert result.joined.any()


def test_fastsim_detects_mass_leak():
    sim = _fast_sim()
    inner = sim.kernel

    def leaky_kernel(averaged, extremes, joined, rng, join_mode="symmetric", excluded=None, buffers=None):
        active = inner(averaged, extremes, joined, rng, join_mode, excluded=excluded, buffers=buffers)
        averaged[:, 0] += 1e-3  # create fraction mass out of thin air
        return active

    sim.kernel = leaky_kernel
    with pytest.raises(InvariantViolation) as exc:
        sim.run_instance()
    assert exc.value.invariant == "mass-conservation"
    assert exc.value.backend == "fastsim"
    assert exc.value.round_index == 0


def test_fastsim_detects_non_monotone_estimate():
    # Literal mode: the mass check is whitelisted by declaration, so the
    # injected non-monotone interpolation points are what gets caught.
    sim = _fast_sim(config=Adam2Config(points=6, rounds_per_instance=8, join_mode="literal"))
    inner = sim.kernel

    def scrambling_kernel(averaged, extremes, joined, rng, join_mode="symmetric", excluded=None, buffers=None):
        active = inner(averaged, extremes, joined, rng, join_mode, excluded=excluded, buffers=buffers)
        averaged[0, 0] = 0.9  # F(t_0) > F(t_1): no longer a CDF
        averaged[0, 1] = 0.1
        return active

    sim.kernel = scrambling_kernel
    with pytest.raises(InvariantViolation) as exc:
        sim.run_instance()
    assert exc.value.invariant == "monotone-cdf"


def test_fastsim_literal_join_mode_is_whitelisted():
    config = Adam2Config(points=6, rounds_per_instance=8, join_mode="literal")
    result = _fast_sim(config=config).run_instance()
    assert result.joined.any()


def test_fastsim_detects_weight_violation():
    sim = _fast_sim(config=Adam2Config(points=6, rounds_per_instance=8, join_mode="literal"))
    inner = sim.kernel

    def inflating_kernel(averaged, extremes, joined, rng, join_mode="symmetric", excluded=None, buffers=None):
        active = inner(averaged, extremes, joined, rng, join_mode, excluded=excluded, buffers=buffers)
        averaged[0, -1] = 1.5  # a size weight above 1 is impossible
        return active

    sim.kernel = inflating_kernel
    with pytest.raises(InvariantViolation) as exc:
        sim.run_instance()
    assert exc.value.invariant == "weight-sum"


def test_fastsim_sanitizer_unit_checks():
    sanitizer = FastsimSanitizer()
    averaged = np.asarray([[0.2, 0.6, 0.0], [0.4, 0.8, 1.0]])
    sanitizer.begin_instance(averaged, "symmetric", instance=0)
    sanitizer.after_round(averaged, k=2, round_index=0)  # untouched: fine
    averaged[0, 1] += 0.1  # keeps the row monotone, breaks column mass
    with pytest.raises(InvariantViolation):
        sanitizer.after_round(averaged, k=2, round_index=1)
    sanitizer.rebaseline(averaged)  # declare the mutation legitimate
    sanitizer.after_round(averaged, k=2, round_index=2)


# ---------------------------------------------------------------------
# Per-delivery checks over a cycle-driven loop of Adam2Node peers
# ---------------------------------------------------------------------


def _checked_rounds(exchange, rounds: int, n: int = 16) -> list[Adam2Node]:
    """Run one instance over ``n`` peers, each ``exchange`` bracketed on
    both sides by the daemons' per-delivery check: each peer's state
    afterwards must be the mean of its own and the other's state before."""
    rng = make_rng(3)
    nodes = [
        Adam2Node(i, value, CONFIG, spawn(rng))
        for i, value in enumerate(uniform_workload(0, 1000).sample(n, rng))
    ]
    nodes[0].start_instance(neighbour_values=np.concatenate([p.values for p in nodes]))
    for round_ in range(rounds):
        order, partners = random_partners(n, rng)
        for p, q in zip(order, partners):
            initiator, responder = nodes[int(p)], nodes[int(q)]
            push = {iid: s.snapshot() for iid, s in initiator.instances.items()}
            pull = {iid: s.snapshot() for iid, s in responder.instances.items()}
            with checked_delivery(initiator, pull, backend="net", round_index=round_):
                with checked_delivery(responder, push, backend="net", round_index=round_):
                    exchange(initiator, responder, round_)
        for node in nodes:
            node.end_of_round(round_)
    return nodes


def _leaky_exchange(initiator, responder, round_):
    """``gossip_exchange`` that then inflates the initiator's fraction mass."""
    count = gossip_exchange(initiator, responder, round_)
    for state in initiator.instances.values():
        state.h.fractions = state.h.fractions * 1.01 + 1e-4
    return count


def test_simulation_engine_detects_mass_leak():
    with pytest.raises(InvariantViolation) as exc:
        _checked_rounds(_leaky_exchange, CONFIG.rounds_per_instance)
    assert exc.value.invariant == "mass-conservation"


def test_simulation_engine_clean_run_passes():
    nodes = _checked_rounds(gossip_exchange, CONFIG.rounds_per_instance + 2)
    assert all(node.current_estimate is not None for node in nodes)


# ---------------------------------------------------------------------
# Node-daemon backends (async = net on virtual time)
# ---------------------------------------------------------------------


def _leak_on(side: str):
    """An ``Adam2Node.receive`` that inflates local fraction mass after
    the real receive step, on one side of the push-pull exchange: the
    responder handles a push (it passes ``before_merge``), the initiator
    a pull (it does not)."""
    receive = Adam2Node.receive

    def leaky(self, states, round_=0, before_merge=None):
        receive(self, states, round_, before_merge)
        if (before_merge is not None) == (side == "responder"):
            for state in self.instances.values():
                state.h.fractions = state.h.fractions * 1.1 + 1e-3

    return leaky


def _daemon_run(backend: str, **options):
    return run(
        CONFIG, uniform_workload(0, 1000), backend=backend, n_nodes=16, seed=11,
        sanitize=True, **options,
    )


def test_asyncsim_detects_mass_leak(monkeypatch):
    monkeypatch.setattr(Adam2Node, "receive", _leak_on("responder"))
    with pytest.raises(InvariantViolation) as exc:
        _daemon_run("async", delay_range=(0.005, 0.03))
    assert exc.value.invariant == "mass-conservation"
    assert exc.value.backend == "net"


def test_asyncsim_clean_run_passes():
    result = _daemon_run("async", delay_range=(0.005, 0.03))
    assert result.final.reached > 0
    assert result.extras["net_counters"]["push_errors"] == 0


@pytest.mark.parametrize("side", ["responder", "initiator"])
def test_net_run_fails_on_a_mass_leak(monkeypatch, side):
    """A violation in a transport callback reaches run()'s caller, from
    either side of the exchange, instead of a push-error count."""
    monkeypatch.setattr(Adam2Node, "receive", _leak_on(side))
    with pytest.raises(InvariantViolation) as exc:
        _daemon_run("net", gossip_period=0.01)
    assert exc.value.invariant == "mass-conservation"
    assert exc.value.backend == "net"


# ---------------------------------------------------------------------
# Sequential kernel sanity under instrumentation (regression guard)
# ---------------------------------------------------------------------


def test_sequential_kernel_conserves_mass_under_sanitizer():
    rng = make_rng(0)
    values = rng.uniform(0, 100, size=32)
    thresholds = np.linspace(0, 100, 5)
    averaged = np.concatenate(
        ((values[:, None] <= thresholds[None, :]).astype(float), np.zeros((32, 1))), axis=1
    )
    averaged[0, -1] = 1.0
    joined = np.zeros(32, dtype=bool)
    joined[0] = True
    extremes = np.stack((values, values), axis=1)

    sanitizer = FastsimSanitizer()
    sanitizer.begin_instance(averaged, "symmetric")
    for round_index in range(10):
        sequential_round(averaged, extremes, joined, rng)
        sanitizer.after_round(averaged, k=5, round_index=round_index)
