"""The backend-agnostic run API.

:func:`run` is the single entry point for executing the Adam2 protocol on
any simulation substrate::

    from repro.api import run
    from repro.core.config import Adam2Config
    from repro.workloads.synthetic import uniform_workload

    result = run(
        Adam2Config(points=30, rounds_per_instance=40),
        uniform_workload(0, 1000),
        backend="fast",           # or "async" / "net"
        n_nodes=10_000,
        instances=3,
        seed=7,
    )
    print(result.final_errors)

Backends register themselves in a process-wide registry; observability is
attached by passing :mod:`repro.obs` observers (or a pre-built
:class:`~repro.obs.ObserverHub`), and every backend reduces its outcome
to the same :class:`~repro.api.result.RunResult` shape.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.api.backends import Backend, FastBackend, RunSpec
from repro.api.result import InstanceSummary, RunResult
from repro.core.config import Adam2Config
from repro.errors import ConfigurationError
from repro.obs.events import RunCompleted, RunStarted
from repro.obs.observer import ObserverHub, RunObserver
from repro.workloads.base import AttributeWorkload

if TYPE_CHECKING:  # runtime import would be circular (repro.service uses run)
    from repro.service.handle import ServiceHandle

__all__ = [
    "Backend",
    "InstanceSummary",
    "RunResult",
    "RunSpec",
    "get_backend",
    "list_backends",
    "register_backend",
    "run",
    "serve",
]

_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Register (or replace) a backend under its ``name``."""
    if not backend.name or backend.name == Backend.name:
        raise ConfigurationError("backend must define a distinctive name")
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> Backend:
    """Look up a registered backend; unknown names fail loudly.

    The error names every registered backend so the caller never has to
    guess what ``backend=`` accepts.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        registered = ", ".join(repr(known) for known in list_backends()) or "(none)"
        raise ConfigurationError(
            f"unknown backend {name!r}; registered backends: {registered}"
        ) from None


def list_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_REGISTRY)


register_backend(FastBackend())

# The node-daemon backends register themselves on import (a plain module
# import, so the bootstrap works whichever of repro.api / repro.net is
# imported first) and make ``backend="net"`` and ``"async"`` work out of
# the box.
import repro.net.backend  # noqa: E402,F401  (registry bootstrap)


def run(
    config: Adam2Config,
    workload: AttributeWorkload,
    *,
    backend: str = "fast",
    n_nodes: int = 1000,
    instances: int = 1,
    rounds: int | None = None,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    observers: Iterable[RunObserver] = (),
    hub: ObserverHub | None = None,
    instrument: bool = False,
    **options: object,
) -> RunResult:
    """Run the Adam2 protocol on a registered backend.

    Args:
        config: protocol parameters shared by all peers.
        workload: attribute distribution of the population.
        backend: registered backend name (``"fast"`` for the vectorised
            simulator, ``"net"`` for the node daemons on real sockets,
            or ``"async"`` for the same daemons on virtual time).
        n_nodes: population size.
        instances: consecutive aggregation instances to run.
        rounds: instance-duration override; folded into the config's
            ``rounds_per_instance`` so TTL semantics match on every
            backend (default: keep the config's value).
        seed: experiment seed; every backend is deterministic given it.
        rng: alternative to ``seed`` — a generator from which the seed is
            drawn (mutually exclusive with a non-default ``seed``).
        observers: :class:`~repro.obs.RunObserver` subscribers.  The
            facade does **not** close them — the caller owns their
            lifecycle, so one sink can span several runs.
        hub: a pre-built hub (overrides ``observers``/``instrument``).
        instrument: enable wall-clock span timing for profiling.
        **options: backend-specific options; unsupported keys raise
            :class:`~repro.errors.ConfigurationError`.
    """
    if rng is not None:
        if seed != 0:
            raise ConfigurationError("pass either seed or rng, not both")
        seed = int(rng.integers(0, 2**31 - 1))
    engine = get_backend(backend)
    engine.validate_options(options)
    if rounds is not None:
        if rounds < 1:
            raise ConfigurationError(f"need at least one round, got {rounds}")
        config = dataclasses.replace(config, rounds_per_instance=rounds)

    if hub is None:
        hub = ObserverHub(observers, instrument=instrument)
    if hub.probes_enabled:
        hub.run_started(RunStarted(
            backend=backend,
            n_nodes=n_nodes,
            instances=instances,
            rounds=config.rounds_per_instance,
            seed=seed,
            points=config.points,
        ))

    spec = RunSpec(
        workload=workload,
        n_nodes=n_nodes,
        config=config,
        instances=instances,
        seed=seed,
        options=dict(options),
    )
    with hub.span("run"):
        result = engine.run(spec, hub)

    if hub.probes_enabled:
        hub.run_completed(RunCompleted(
            instances=len(result.instances),
            messages=sum(s.messages for s in result.instances),
            bytes=sum(s.bytes for s in result.instances),
        ))
    if hub.enabled:
        result.metrics = hub.snapshot()
    return result


def serve(
    config: Adam2Config,
    workload: AttributeWorkload,
    *,
    backend: str = "fast",
    n_nodes: int = 1000,
    seed: int = 0,
    **options: object,
) -> "ServiceHandle":
    """Build a continuous estimation service over :func:`run`.

    The counterpart of :func:`run` for standing workloads: instead of one
    result, you get a :class:`repro.service.ServiceHandle` whose
    scheduler keeps publishing fresh estimates (``handle.refresh()``)
    and whose query engine answers ``cdf``/``quantile``/
    ``fraction_between``/``network_size`` from the latest versioned
    snapshot.  Remaining keyword arguments are forwarded to
    :func:`repro.service.build_service` (``policy``, ``drift``,
    ``cache_size``, ``warm_cycles``, ``hub``, ``options``, ...).
    Passing ``store_dir`` makes the service *durable*: every published
    snapshot is written behind to an append-only log there
    (:mod:`repro.persist`) and a restarted service recovers the logged
    history before serving — see also ``fsync``, ``retention`` and
    ``compact_every``.

    To put the handle on the network, hand it to
    :func:`repro.net.service_endpoint.serve_blocking` — with
    ``workers > 1`` it serves from an ``SO_REUSEPORT`` worker-process
    pool (:class:`repro.net.service_worker.ServiceWorkerPool`) fed by
    the store's snapshot feed; clients may negotiate the binary frame
    codec and batch queries (see :mod:`repro.service.protocol`).
    """
    # Late import: repro.service drives this module's run(), so importing
    # it at module level would be circular.
    from repro.service import build_service

    return build_service(
        config, workload, backend=backend, n_nodes=n_nodes, seed=seed,
        **options,  # type: ignore[arg-type]
    )
