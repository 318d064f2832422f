"""Convenience helpers for building and running engines."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.rngs import spawn
from repro.overlay.base import Overlay
from repro.overlay.random_graph import FullMeshOverlay, RandomGraphOverlay
from repro.overlay.cyclon import CyclonOverlay
from repro.overlay.peer_sampling import PeerSamplingOverlay
from repro.simulation.engine import Engine, Protocol
from repro.workloads.base import AttributeWorkload

__all__ = ["build_engine", "run_until"]


def build_engine(
    workload: AttributeWorkload,
    n_nodes: int,
    protocols: list[Protocol],
    rng: np.random.Generator,
    overlay: str | Overlay = "mesh",
    degree: int = 20,
    churn=None,
    loss_rate: float = 0.0,
    sanitize: bool | None = None,
    obs=None,
) -> Engine:
    """Build an engine with an initial population drawn from a workload.

    Args:
        workload: source of attribute values.
        n_nodes: initial population size.
        protocols: protocols to register.
        rng: experiment root generator (children are spawned from it).
        overlay: ``"mesh"`` (idealised uniform sampling), ``"random"``
            (static random graph of ``degree``), ``"sampling"``
            (Newscast peer sampling with view size ``degree``),
            ``"cyclon"`` (Cyclon shuffle peer sampling), or a
            ready :class:`~repro.overlay.base.Overlay` instance.
        degree: link/view size for the graph overlays.
        churn: optional churn model.
        sanitize: enable the invariant sanitizer (default: follow the
            ``ADAM2_SANITIZE`` env var).
        obs: observability hub (:class:`repro.obs.ObserverHub`).
    """
    if n_nodes < 2:
        raise SimulationError("need at least 2 nodes")
    ids = list(range(n_nodes))
    if isinstance(overlay, Overlay):
        overlay_obj = overlay
    elif overlay == "mesh":
        overlay_obj = FullMeshOverlay(ids)
    elif overlay == "random":
        overlay_obj = RandomGraphOverlay(ids, degree=degree, rng=spawn(rng))
    elif overlay == "sampling":
        overlay_obj = PeerSamplingOverlay(ids, capacity=degree, rng=spawn(rng))
    elif overlay == "cyclon":
        overlay_obj = CyclonOverlay(ids, capacity=degree, rng=spawn(rng))
    else:
        raise SimulationError(f"unknown overlay kind {overlay!r}")
    engine = Engine(
        overlay=overlay_obj,
        protocols=protocols,
        rng=spawn(rng),
        churn=churn,
        loss_rate=loss_rate,
        sanitize=sanitize,
        obs=obs,
    )
    values = workload.sample(n_nodes, spawn(rng))
    engine.populate(values)
    return engine


def run_until(engine: Engine, predicate: Callable[[Engine], bool], max_rounds: int = 10_000) -> int:
    """Run rounds until ``predicate(engine)`` holds; returns rounds run.

    Raises:
        SimulationError: if the predicate never holds within
            ``max_rounds`` rounds.
    """
    for executed in range(max_rounds):
        if predicate(engine):
            return executed
        engine.run_round()
    if predicate(engine):
        return max_rounds
    raise SimulationError(f"predicate not satisfied within {max_rounds} rounds")
