"""Shared experiment scaffolding: scales, attributes, defaults.

The paper's evaluations use 100,000 nodes.  Running every figure at that
size is possible with the ``matching`` kernel but takes hours in pure
Python, so experiments default to a laptop scale that preserves every
qualitative result (the protocol's accuracy is size-independent — that is
Fig. 11's point).  Set ``REPRO_SCALE=paper`` to run full-size, or
``REPRO_SCALE=quick`` for CI-speed smoke runs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.api import RunResult, get_backend
from repro.api import run as api_run
from repro.core.config import Adam2Config
from repro.errors import ConfigurationError
from repro.obs.observer import ObserverHub
from repro.workloads import boinc_workload
from repro.workloads.base import AttributeWorkload

__all__ = [
    "Scale",
    "get_scale",
    "attribute_workloads",
    "run_adam2",
    "run_context",
    "active_backend",
    "DEFAULT_ATTRIBUTES",
]

DEFAULT_ATTRIBUTES = ("cpu", "ram")


@dataclass(frozen=True, slots=True)
class Scale:
    """Size parameters for an experiment tier."""

    name: str
    n_nodes: int
    rounds_per_instance: int
    exchange: str
    node_sample: int


_SCALES = {
    "quick": Scale("quick", 400, 20, "sequential", 24),
    "laptop": Scale("laptop", 1500, 30, "sequential", 48),
    "paper": Scale("paper", 100_000, 30, "matching", 64),
}


def get_scale(name: str | None = None) -> Scale:
    """Resolve the experiment scale (explicit arg > env var > laptop)."""
    name = name or os.environ.get("REPRO_SCALE", "laptop")
    try:
        return _SCALES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {name!r}; expected one of {sorted(_SCALES)}"
        ) from None


def attribute_workloads(attributes: tuple[str, ...] = DEFAULT_ATTRIBUTES) -> list[tuple[str, AttributeWorkload]]:
    """Resolve attribute names into (name, workload) pairs."""
    return [(name, boinc_workload(name)) for name in attributes]


# ----------------------------------------------------------------------
# Backend-agnostic execution (the repro.api facade)
# ----------------------------------------------------------------------

#: process-wide run context set by the CLI: observability hub + backend
_CONTEXT: dict[str, object] = {"hub": None, "backend": None}


def active_backend() -> str:
    """The backend experiments run on (CLI ``--backend`` or ``"fast"``)."""
    return str(_CONTEXT["backend"] or "fast")


@contextmanager
def run_context(hub: ObserverHub | None = None, backend: str | None = None) -> Iterator[None]:
    """Attach an observability hub and/or backend to all nested runs.

    The CLI wraps each experiment in this so ``--trace``, ``--metrics-out``
    and ``--backend`` apply to every :func:`run_adam2` call the experiment
    makes, without threading parameters through every runner signature.
    """
    if backend is not None:
        get_backend(backend)  # unknown names fail before any work runs
    previous = dict(_CONTEXT)
    _CONTEXT["hub"] = hub if hub is not None else previous["hub"]
    _CONTEXT["backend"] = backend if backend is not None else previous["backend"]
    try:
        yield
    finally:
        _CONTEXT.update(previous)


def run_adam2(
    config: Adam2Config,
    workload: AttributeWorkload,
    *,
    n_nodes: int,
    instances: int = 1,
    rounds: int | None = None,
    seed: int = 0,
    scale: Scale | None = None,
    backend: str | None = None,
    **options: object,
) -> RunResult:
    """Run Adam2 through the :func:`repro.api.run` facade.

    Experiments call this instead of constructing a simulator directly,
    so the CLI can reroute them to another backend or attach observers.
    ``scale`` injects the tier's ``exchange``/``node_sample`` defaults —
    but only when the selected backend supports those options, so
    fast-specific knobs never leak into the async/net daemons.
    Backend-specific options the target backend does not support still
    fail loudly (a runner pinning ``backend="fast"`` documents that it
    needs fast-only features).
    """
    name = backend or active_backend()
    engine = get_backend(name)
    if scale is not None:
        for key, value in (("exchange", scale.exchange), ("node_sample", scale.node_sample)):
            if key in engine.supported_options:
                options.setdefault(key, value)
    return api_run(
        config,
        workload,
        backend=name,
        n_nodes=n_nodes,
        instances=instances,
        rounds=rounds,
        seed=seed,
        hub=_CONTEXT["hub"],  # type: ignore[arg-type]
        **options,
    )
