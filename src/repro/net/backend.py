"""The ``net`` backend: the Adam2 protocol over real UDP sockets.

Adapts the localhost cluster harness to the :func:`repro.api.run`
contract so ``run(config, workload, backend="net")`` executes the same
workload/seed/config as the simulators, but over genuine datagrams with
real timers, retries, and (optionally) injected faults.  Population
sampling mirrors the async backend's generator spawn order exactly, so
for a fixed seed both backends estimate the same node population —
the basis of the simulator/network parity test.
"""

from __future__ import annotations

import asyncio
from typing import Any, Hashable

from repro.api.backends import Backend, RunSpec, drive_instances
from repro.api.result import RunResult
from repro.errors import ConfigurationError
from repro.net.cluster import LocalCluster
from repro.obs.observer import ObserverHub
from repro.rngs import make_rng, spawn

__all__ = ["NetBackend"]


class NetBackend(Backend):
    """The real-network runtime (in-process localhost cluster)."""

    name = "net"
    supported_options = frozenset({
        "gossip_period", "period_jitter", "neighbour_sample", "node_sample",
        "sanitize", "drain_periods", "drop_rate", "delay_range", "reorder_rate",
        "max_datagram", "max_inflight", "transport_options",
        "crash_nodes", "crash_round",
    })

    def run(self, spec: RunSpec, hub: ObserverHub) -> RunResult:
        crash_nodes = int(spec.options.get("crash_nodes", 0))
        if not 0 <= crash_nodes <= spec.n_nodes - 2:
            raise ConfigurationError(
                f"cannot crash {crash_nodes} of {spec.n_nodes} nodes"
            )
        return asyncio.run(self._run_cluster(spec, hub, crash_nodes))

    async def _run_cluster(
        self, spec: RunSpec, hub: ObserverHub, crash_nodes: int
    ) -> RunResult:
        rng = make_rng(spec.seed)
        measure_rng = spawn(rng)
        cluster_rng = spawn(rng)
        # Identical spawn order to the async backend: the third spawn
        # samples the population, so the same seed yields the same
        # attribute values on both substrates (the parity invariant).
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
                period_jitter=cluster.period_jitter,
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
