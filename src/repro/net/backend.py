"""The ``net`` and ``async`` backends: the Adam2 node daemon, on real
sockets or on virtual time.

Adapts the localhost cluster harness to the :func:`repro.api.run`
contract.  ``run(config, workload, backend="net")`` executes the
workload/seed/config over genuine UDP datagrams with real timers,
retries and (optionally) injected faults, under :func:`asyncio.run`.
``backend="async"`` is the same code under
:func:`~repro.net.virtual.run_virtual`: the daemons, transport, codec
and fault injector run unchanged on a jumping clock and an in-memory
datagram fabric — a deterministic discrete-event simulation of the
deployed protocol, with per-node jittered clocks, latency
(``delay_range``) and loss (``drop_rate``).  Both share every option
and default, and for a fixed seed sample the same node population.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Coroutine, Hashable

from repro.api.backends import Backend, RunSpec, drive_instances
from repro.api.result import RunResult
from repro.errors import ConfigurationError
from repro.net.cluster import LocalCluster
from repro.net.virtual import run_virtual
from repro.obs.observer import ObserverHub
from repro.rngs import make_rng, spawn

__all__ = ["NetBackend"]


class NetBackend(Backend):
    """The node-daemon runtime (in-process localhost cluster).

    Args:
        name: registry name.
        runner: what runs the cluster coroutine to completion —
            :func:`asyncio.run` (real sockets and clock) or
            :func:`~repro.net.virtual.run_virtual` (virtual time).
    """

    supported_options = frozenset({
        "gossip_period", "period_jitter", "neighbour_sample", "node_sample",
        "sanitize", "drain_periods", "drop_rate", "delay_range", "reorder_rate",
        "max_datagram", "max_inflight", "transport_options",
        "crash_nodes", "crash_round",
    })

    def __init__(
        self,
        name: str = "net",
        runner: Callable[[Coroutine[Any, Any, RunResult]], RunResult] = asyncio.run,
    ):
        self.name = name
        self._runner = runner

    def run(self, spec: RunSpec, hub: ObserverHub) -> RunResult:
        crash_nodes = int(spec.options.get("crash_nodes", 0))
        if not 0 <= crash_nodes <= spec.n_nodes - 2:
            raise ConfigurationError(
                f"cannot crash {crash_nodes} of {spec.n_nodes} nodes"
            )
        return self._runner(self._run_cluster(spec, hub, crash_nodes))

    async def _run_cluster(
        self, spec: RunSpec, hub: ObserverHub, crash_nodes: int
    ) -> RunResult:
        rng = make_rng(spec.seed)
        measure_rng = spawn(rng)
        cluster_rng = spawn(rng)
        # The third spawn samples the population: a seed names the same
        # attribute values on real sockets and on virtual time.
        cluster = LocalCluster(
            spec.workload.sample(spec.n_nodes, spawn(rng)),
            spec.config,
            cluster_rng,
            **spec.given("gossip_period", "period_jitter", "neighbour_sample",
                         "sanitize", "drop_rate", "delay_range", "reorder_rate",
                         "max_datagram", "max_inflight", "transport_options"),
        )
        crash_round = spec.options.get(
            "crash_round", max(1, spec.config.rounds_per_instance // 2)
        )

        async def step(index: int, round_index: int, instance_id: Hashable) -> None:
            if crash_nodes and index == 0 and round_index == crash_round:
                self._crash(cluster, crash_nodes, instance_id)
            with hub.span("round"):
                await cluster.run_rounds(1)

        async with cluster:
            # In-flight pulls land after the last timer fire: settle first.
            result = await drive_instances(
                self.name, spec, hub, measure_rng,
                trigger=cluster.trigger_instance,
                step=step,
                nodes=cluster.adam2_nodes,
                traffic=cluster.traffic,
                population=cluster.attribute_values,
                drain_periods=cluster.drain_periods(),
                settle=cluster.drain,
            )
            result.extras["net_counters"] = cluster.counters()
        return result

    @staticmethod
    def _crash(cluster: LocalCluster, count: int, instance_id: Any) -> None:
        """Fail-stop ``count`` live non-initiator nodes (highest ids first)."""
        initiator = instance_id[0] if isinstance(instance_id, tuple) else None
        victims = [
            daemon.node_id
            for daemon in reversed(cluster.live_daemons())
            if daemon.node_id != initiator
        ][:count]
        for node_id in victims:
            cluster.crash(node_id)


# Self-registration keeps the bootstrap cycle-free: this module only
# needs repro.api's registry functions, which are defined before the
# facade imports this module back.
from repro.api import register_backend  # noqa: E402  (registry bootstrap)

register_backend(NetBackend())
register_backend(NetBackend("async", run_virtual))
