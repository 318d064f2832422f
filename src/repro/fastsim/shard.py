"""Multiprocessing shard driver for the fast simulator.

Partitions the population across worker processes so gossip state larger
than one core's appetite (or, with enough cores, one machine's share of
it) can still run round-synchronously:

* each worker owns one contiguous shard — a private
  :class:`~repro.fastsim.state.BatchState` slice plus
  :class:`~repro.fastsim.exchange.ExchangeBuffers` scratch — and runs
  the intra-shard gossip (one :func:`~repro.fastsim.exchange.matching_round`
  per round) entirely locally;
* per round, only a *sampled* set of cross-shard partner rows travels
  over ``multiprocessing`` queues (the same explicit, picklable feed
  discipline as :mod:`repro.net.service_worker`): each shard contributes
  ``shard_mix · shard_size`` uniformly drawn rows, the coordinator runs
  one matching round over the pooled rows — reusing the very kernel
  whose symmetry makes the step mass-conserving — and scatters the
  averaged rows back.

Mass accounting under sharding: a shard's column sums legitimately change
every round (cross pairs move mass between shards), so workers check only
local per-row invariants (:func:`repro.lint.sanitizer.check_shard_invariants`)
while the coordinator asserts *global* conservation over the summed
shard masses (:func:`repro.lint.sanitizer.check_mass_totals`).

The driver intentionally supports the static-population regime only
(no churn, no drift, no per-round convergence traces): it exists for
N-scaling, where those features' per-round full-state access would
defeat the partitioning.  Error metrics are computed from additive
per-shard partials (see :func:`repro.fastsim.adam2.points_residual_stats`)
plus one coordinator-side node sample, never a full-state gather.
"""

from __future__ import annotations

import multiprocessing
import queue
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.rngs import derive, make_rng, spawn
from repro.types import ErrorPair
from repro.core.cdf import EmpiricalCDF, EstimatedCDF
from repro.core.config import Adam2Config, bootstrap_sample_size
from repro.fastsim.adam2 import (
    assemble_error_pairs,
    entire_domain_stats,
    points_residual_stats,
    select_instance_points,
)
from repro.fastsim.exchange import ExchangeBuffers, matching_round
from repro.fastsim.state import BatchState, resolve_dtype
from repro.metrics.error import error_grid
from repro.obs.events import InstanceCompleted, InstanceStarted, RoundSample
from repro.obs.observer import NULL_HUB, ObserverHub
from repro.workloads.base import AttributeWorkload

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext

__all__ = [
    "ShardInstanceResult",
    "ShardRunResult",
    "ShardedAdam2",
    "partition_population",
]

#: default fraction of each shard contributing cross-shard rows per round
DEFAULT_SHARD_MIX = 0.125

#: cap on cross rows per shard per round — bounds queue traffic at large N
#: (168-byte float64 rows: 4096 rows ≈ 0.7 MB each way per shard per round)
CROSS_ROW_CAP = 4096

_JOIN_TIMEOUT = 10.0
#: how long the coordinator waits for a reply before looking for dead workers
_REPLY_POLL = 0.5


def partition_population(n: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` shard bounds, sizes differing by ≤ 1.

    Every shard must hold at least two nodes (a matching round needs a
    pair), which bounds the shard count for tiny populations.
    """
    if shards < 1:
        raise ConfigurationError("need at least one shard")
    if n < 2 * shards:
        raise ConfigurationError(
            f"population of {n} cannot fill {shards} shards with >= 2 nodes each"
        )
    base, extra = divmod(n, shards)
    bounds = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


# ---------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------


def _shard_worker_main(
    shard_id: int,
    seed: int,
    values: np.ndarray,
    width: int,
    dtype_name: str,
    join_mode: str,
    sanitize: bool,
    commands: Any,
    results: Any,
) -> None:
    """One shard's event loop: react to coordinator commands until ``None``.

    All state the worker needs arrives through explicit picklable args
    and queue messages; nothing is shared.  The worker's gossip stream is
    derived deterministically from the run seed and its shard id, so a
    seeded sharded run is reproducible regardless of scheduling.
    """
    from repro.lint.sanitizer import check_shard_invariants

    dtype = resolve_dtype(dtype_name)
    n = int(values.size)
    rng = derive(seed, "shard-gossip", shard_id)
    cross_rng = derive(seed, "shard-cross", shard_id)
    batch = BatchState(n, width, dtype)
    buffers = ExchangeBuffers(n, width, dtype)
    k = 0

    try:
        while True:
            command = commands.get()
            if command is None:
                break
            op = command[0]
            if op == "begin":
                _, all_t, k, initiator, want_stats = command
                batch.begin_instance(values, all_t.astype(np.float64), initiator)
                buffers.reset_order()
                results.put((
                    "mass", shard_id, batch.averaged.sum(axis=0, dtype=np.float64)
                ))
            elif op == "cross":
                count = min(int(command[1]), n)
                idx = cross_rng.choice(n, size=count, replace=False)
                # Local steady rounds leave the state in pair order:
                # node rows are looked up through the buffers' index.
                rows = buffers.row_of[idx]
                results.put((
                    "cross",
                    shard_id,
                    idx,
                    batch.averaged[rows],
                    batch.extremes[rows],
                    batch.joined[idx],
                ))
            elif op == "apply":
                _, idx, cross_rows, ext, joined_rows, round_index = command
                rows = buffers.row_of[idx]
                batch.averaged[rows] = cross_rows
                batch.extremes[rows] = ext
                batch.joined[idx] = joined_rows
                active = matching_round(
                    batch.averaged, batch.extremes, batch.joined, rng,
                    join_mode, buffers=buffers,
                )
                if sanitize or want_stats:
                    buffers.settle(batch.averaged, batch.extremes)
                if sanitize:
                    check_shard_invariants(
                        batch.averaged, k,
                        round_index=round_index, instance=shard_id,
                    )
                # The aggregate scans below cost a full pass over the
                # shard state; ship them only when someone will look
                # (sanitizer mass check, observer probes) so the quiet
                # path stays pure round work.
                col_sums = (
                    batch.averaged.sum(axis=0, dtype=np.float64) if sanitize else None
                )
                reached = int(batch.joined.sum())
                frac_sum = frac_sumsq = None
                if want_stats:
                    frac = batch.averaged[batch.joined, :k]
                    frac_sum = frac.sum(axis=0, dtype=np.float64)
                    frac_sumsq = np.square(frac, dtype=np.float64).sum(axis=0)
                    if col_sums is None:
                        col_sums = batch.averaged.sum(axis=0, dtype=np.float64)
                results.put((
                    "round", shard_id, int(active), col_sums,
                    reached, frac_sum, frac_sumsq,
                ))
            elif op == "finish":
                _, true_at_t, sample_idx = command
                buffers.settle(batch.averaged, batch.extremes)
                joined = batch.joined
                reached = int(joined.sum())
                frac = np.clip(batch.averaged[joined, :k], 0.0, 1.0)
                points_max, points_sum = points_residual_stats(frac, true_at_t)
                payload = {
                    "reached": reached,
                    "missing": n - reached,
                    "points_max": points_max,
                    "points_sum": points_sum,
                    "frac_sum": frac.sum(axis=0, dtype=np.float64),
                    "weight_sum": float(
                        batch.averaged[joined, -1].sum(dtype=np.float64)
                    ),
                    "minimum": float(batch.extremes[joined, 0].min()) if reached else np.inf,
                    "maximum": float(batch.extremes[joined, 1].max()) if reached else -np.inf,
                    "sample_fractions": batch.averaged[sample_idx, :k].astype(np.float64),
                    "sample_joined": batch.joined[sample_idx].copy(),
                    "sample_minima": batch.extremes[sample_idx, 0].astype(np.float64),
                    "sample_maxima": batch.extremes[sample_idx, 1].astype(np.float64),
                }
                results.put(("finish", shard_id, payload))
            else:  # pragma: no cover - protocol bug
                results.put(("error", shard_id, f"unknown command {op!r}"))
                break
    except Exception as exc:  # pragma: no cover - surfaced by coordinator
        results.put(("error", shard_id, f"{type(exc).__name__}: {exc}"))


# ---------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------


@dataclass
class ShardInstanceResult:
    """Outcome of one sharded aggregation instance.

    Unlike :class:`repro.fastsim.adam2.FastInstanceResult` this carries
    no per-node arrays — at the population sizes the shard driver exists
    for, the consensus estimate plus aggregate error pairs are the
    result; full state stays inside the workers.
    """

    instance_index: int
    thresholds: np.ndarray
    v_thresholds: np.ndarray
    estimate: EstimatedCDF
    errors_entire: ErrorPair
    errors_points: ErrorPair
    reached: int
    n_nodes: int
    shards: int
    cross_rows_total: int
    messages_total: int = 0
    bytes_total: int = 0

    def mean_estimate(self) -> EstimatedCDF:
        return self.estimate


@dataclass
class ShardRunResult:
    """Outcome of a multi-instance sharded campaign."""

    instances: list[ShardInstanceResult] = field(default_factory=list)

    @property
    def final(self) -> ShardInstanceResult:
        if not self.instances:
            raise SimulationError("no instances were run")
        return self.instances[-1]

    @property
    def estimate(self) -> EstimatedCDF:
        return self.final.estimate

    @property
    def final_errors(self) -> ErrorPair:
        return self.final.errors_entire

    def errors_by_instance(self) -> tuple[list[float], list[float]]:
        return (
            [r.errors_entire.maximum for r in self.instances],
            [r.errors_entire.average for r in self.instances],
        )


# ---------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------


class ShardedAdam2:
    """Coordinator of a population partitioned across worker processes.

    Args:
        workload: attribute distribution for the population.
        n_nodes: population size.
        config: protocol parameters.
        seed: run seed; sharded runs are deterministic given it (worker
            streams derive from it and the shard id).
        shards: worker process count; every shard needs ≥ 2 nodes.
        shard_mix: fraction of each shard's nodes contributing to the
            cross-shard exchange pool per round (the only inter-process
            traffic; higher mixes converge faster and ship more rows).
        neighbour_sample: neighbour values visible to the coordinator's
            threshold selection.
        node_sample: node subsample for entire-domain error metrics,
            gathered across shards proportionally.
        sanitize: run invariant checks (default: ``ADAM2_SANITIZE``) —
            local row invariants inside each worker, global mass
            conservation at the coordinator.
        dtype: shard state precision (``float32`` halves queue traffic
            and worker memory).
        obs: observability hub; per-round probes are assembled from the
            workers' aggregate replies, so observers cost no extra
            state gathers.

    Use as a context manager, or call :meth:`close` — worker processes
    outlive individual instances so consecutive instances reuse them.
    """

    def __init__(
        self,
        workload: AttributeWorkload,
        n_nodes: int,
        config: Adam2Config,
        seed: int = 0,
        shards: int = 2,
        shard_mix: float = DEFAULT_SHARD_MIX,
        neighbour_sample: int | None = None,
        node_sample: int = 64,
        sanitize: bool | None = None,
        dtype: str = "float64",
        obs: ObserverHub | None = None,
    ):
        if not 0.0 < shard_mix <= 1.0:
            raise ConfigurationError(f"shard_mix must be in (0, 1], got {shard_mix}")
        self.workload = workload
        self.config = config
        self.n_nodes = n_nodes
        self.seed = seed
        self.shards = shards
        self.shard_mix = shard_mix
        self.bounds = partition_population(n_nodes, shards)
        self.dtype = resolve_dtype(dtype)
        self.rng = make_rng(seed)
        self._value_rng = spawn(self.rng)
        self._select_rng = spawn(self.rng)
        self._measure_rng = spawn(self.rng)
        self._cross_rng = spawn(self.rng)
        self.values = workload.sample(n_nodes, self._value_rng)
        self.neighbour_sample = bootstrap_sample_size(config, neighbour_sample)
        self.node_sample = node_sample
        from repro.lint.sanitizer import sanitize_enabled

        self._sanitize = sanitize_enabled(sanitize)
        self._obs = obs if obs is not None else NULL_HUB
        self.previous: EstimatedCDF | None = None
        self.instances_run = 0
        self._width = config.points + config.verification_points + 1
        self._processes: list[Any] = []
        self._commands: list[Any] = []
        self._results: Any = None

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ShardedAdam2":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _mp_context(self) -> "BaseContext":
        methods = multiprocessing.get_all_start_methods()
        # fork is cheapest and inherits nothing we rely on (all worker
        # state travels through explicit, picklable args).
        return multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )

    def _ensure_workers(self) -> None:
        if self._processes:
            return
        ctx = self._mp_context()
        self._results = ctx.Queue()
        for shard_id, (start, stop) in enumerate(self.bounds):
            commands = ctx.Queue()
            process = ctx.Process(
                target=_shard_worker_main,
                args=(
                    shard_id,
                    self.seed,
                    self.values[start:stop].copy(),
                    self._width,
                    self.dtype.name,
                    self.config.join_mode,
                    self._sanitize,
                    commands,
                    self._results,
                ),
                daemon=True,
                name=f"adam2-shard-{shard_id}",
            )
            process.start()
            self._commands.append(commands)
            self._processes.append(process)

    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        for commands in self._commands:
            try:
                commands.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue closed
                pass
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
        self._processes = []
        self._commands = []
        self._results = None

    # -- collection helpers --------------------------------------------

    def _collect(self, tag: str) -> list[tuple[Any, ...]]:
        """One reply of kind ``tag`` from every shard, in shard order."""
        replies: list[tuple[Any, ...] | None] = [None] * self.shards
        for _ in range(self.shards):
            message = self._next_reply()
            if message[0] == "error":
                raise SimulationError(f"shard {message[1]} failed: {message[2]}")
            if message[0] != tag:  # pragma: no cover - protocol bug
                raise SimulationError(
                    f"expected {tag!r} reply, got {message[0]!r} from shard {message[1]}"
                )
            replies[message[1]] = message
        return [r for r in replies if r is not None]

    def _next_reply(self) -> tuple[Any, ...]:
        """The next worker message; a worker that died silently fails the run."""
        while True:
            # Sampled before the wait: whatever a worker wrote before it
            # died is readable by now, so a queue that then stays empty
            # means it went without reporting (SIGKILL, the OOM killer).
            dead = [
                (shard_id, process.exitcode)
                for shard_id, process in enumerate(self._processes)
                if not process.is_alive()
            ]
            try:
                return self._results.get(timeout=_REPLY_POLL)
            except queue.Empty:
                if dead:
                    self.close()
                    shard_id, exitcode = dead[0]
                    raise SimulationError(
                        f"shard {shard_id} worker died without reporting "
                        f"(exit code {exitcode})"
                    ) from None

    # -- the instance loop ---------------------------------------------

    def run_instance(
        self,
        rounds: int | None = None,
        selection: str | None = None,
        bootstrap: str | None = None,
    ) -> ShardInstanceResult:
        """Execute one aggregation instance across the shards."""
        rounds = rounds if rounds is not None else self.config.rounds_per_instance
        if rounds < 1:
            raise ConfigurationError("an instance needs at least one round")
        self._ensure_workers()
        cfg = self.config
        n = self.n_nodes

        thresholds, v_thresholds = select_instance_points(
            cfg, self.previous, self.values, self._select_rng,
            neighbour_sample=self.neighbour_sample,
            selection=selection, bootstrap=bootstrap,
        )
        k = thresholds.size
        all_t = np.concatenate((thresholds, v_thresholds))

        initiator = int(self._select_rng.integers(0, n))
        shard_of_initiator, local_initiator = self._locate(initiator)
        want_stats = self._obs.probes_enabled
        for shard_id, commands in enumerate(self._commands):
            commands.put((
                "begin", all_t, k,
                local_initiator if shard_id == shard_of_initiator else None,
                want_stats,
            ))
        masses = self._collect("mass")
        expected_mass = np.sum([m[2] for m in masses], axis=0)

        hub = self._obs
        probes = hub if hub.probes_enabled else None
        if probes is not None:
            probes.instance_started(InstanceStarted(
                instance=self.instances_run,
                thresholds=tuple(float(t) for t in thresholds),
                v_thresholds=tuple(float(t) for t in v_thresholds),
            ))

        messages = 0
        cross_rows_total = 0
        from repro.lint.sanitizer import check_mass_totals

        for round_index in range(rounds):
            with hub.span("round"):
                cross_active, cross_rows = self._cross_exchange(round_index)
                stats = self._collect("round")
            cross_rows_total += cross_rows
            local_active = sum(s[2] for s in stats)
            messages += 2 * (local_active + cross_active)
            if self._sanitize:
                total_mass = np.sum([s[3] for s in stats], axis=0)
                check_mass_totals(
                    total_mass, expected_mass,
                    backend="fastsim.shard",
                    round_index=round_index,
                    instance=self.instances_run,
                    dtype=self.dtype,
                )
            if probes is not None:
                probes.round_sample(self._round_sample(
                    stats, k, round_index, 2 * (local_active + cross_active)
                ))

        result = self._finish(thresholds, v_thresholds, rounds, messages, cross_rows_total)
        if probes is not None:
            probes.instance_completed(InstanceCompleted(
                instance=self.instances_run,
                rounds=rounds,
                reached=result.reached,
                err_max=result.errors_entire.maximum,
                err_avg=result.errors_entire.average,
                messages=messages,
                bytes=result.bytes_total,
            ))
        self.previous = result.estimate
        self.instances_run += 1
        return result

    def run_instances(
        self,
        count: int,
        rounds: int | None = None,
        selection: str | None = None,
        bootstrap: str | None = None,
    ) -> ShardRunResult:
        """Run several consecutive instances over the same worker pool."""
        if count < 1:
            raise ConfigurationError("need at least one instance")
        run = ShardRunResult()
        for _ in range(count):
            run.instances.append(
                self.run_instance(rounds=rounds, selection=selection, bootstrap=bootstrap)
            )
        return run

    # -- internals -----------------------------------------------------

    def _locate(self, index: int) -> tuple[int, int]:
        for shard_id, (start, stop) in enumerate(self.bounds):
            if start <= index < stop:
                return shard_id, index - start
        raise SimulationError(f"node {index} outside every shard")  # pragma: no cover

    def _cross_counts(self) -> list[int]:
        """Cross rows per shard: ``shard_mix`` of the shard, capped.

        The cap bounds queue traffic (pickling dominates past a few
        thousand rows per shard); large shards start with proportionally
        tiny inter-shard variance, so a bounded sample still mixes the
        partitions well inside an instance's round budget.
        """
        return [
            max(2, min(int((stop - start) * self.shard_mix), CROSS_ROW_CAP))
            for start, stop in self.bounds
        ]

    def _cross_exchange(self, round_index: int) -> tuple[int, int]:
        """One coordinator-mediated exchange over pooled cross-shard rows.

        Gathers each shard's sampled rows, runs one symmetric matching
        round over the pooled matrix — mass-conserving by the kernel's
        own symmetry — and scatters the averaged rows back to their
        shards, which then run their local round.  Returns (active
        exchanges, rows shipped).
        """
        counts = self._cross_counts()
        for commands, count in zip(self._commands, counts):
            commands.put(("cross", count))
        replies = self._collect("cross")

        rows = np.concatenate([r[3] for r in replies], axis=0)
        ext = np.concatenate([r[4] for r in replies], axis=0)
        joined = np.concatenate([r[5] for r in replies], axis=0)
        active = 0
        if rows.shape[0] >= 2:
            active = matching_round(
                rows, ext, joined, self._cross_rng, self.config.join_mode
            )
        offset = 0
        for (_, shard_id, idx, *_rest), commands in zip(replies, self._commands):
            span = idx.shape[0]
            commands.put((
                "apply",
                idx,
                rows[offset : offset + span],
                ext[offset : offset + span],
                joined[offset : offset + span],
                round_index,
            ))
            offset += span
        return int(active), int(rows.shape[0])

    def _round_sample(
        self, stats: list[tuple[Any, ...]], k: int, round_index: int, round_messages: int
    ) -> RoundSample:
        """Global round probe assembled from per-shard aggregate replies.

        Workers report (Σx, Σx²) over their joined fraction rows, so the
        coordinator reconstructs the exact global mean/std without any
        row gather — the shard counterpart of the single-process probe.
        """
        reached = sum(s[4] for s in stats)
        total = np.sum([s[3] for s in stats], axis=0)
        spread = 0.0
        if reached > 1:
            frac_sum = np.sum([s[5] for s in stats], axis=0)
            frac_sumsq = np.sum([s[6] for s in stats], axis=0)
            mean = frac_sum / reached
            variance = np.maximum(frac_sumsq / reached - mean**2, 0.0)
            spread = float(np.sqrt(variance).mean())
        return RoundSample(
            instance=self.instances_run,
            round=round_index + 1,
            mass_sum=float(total[:k].sum()),
            weight_sum=float(total[-1]),
            reached=reached,
            spread=spread,
            convergence_rate=None,
            messages=round_messages,
            bytes=round_messages * self.config.message_bytes(),
        )

    def _finish(
        self,
        thresholds: np.ndarray,
        v_thresholds: np.ndarray,
        rounds: int,
        messages: int,
        cross_rows_total: int,
    ) -> ShardInstanceResult:
        """Assemble errors and the consensus estimate from shard partials."""
        truth = EmpiricalCDF(self.values)
        grid = error_grid(truth.minimum, truth.maximum)
        true_at_t = truth.evaluate(thresholds)
        k = thresholds.size

        sample = min(self.node_sample, self.n_nodes)
        global_sample = self._measure_rng.choice(self.n_nodes, size=sample, replace=False)
        for shard_id, (start, stop) in enumerate(self.bounds):
            local = global_sample[(global_sample >= start) & (global_sample < stop)] - start
            self._commands[shard_id].put(("finish", true_at_t, local))
        replies = self._collect("finish")
        parts = [r[2] for r in replies]

        reached = sum(p["reached"] for p in parts)
        missing = sum(p["missing"] for p in parts)
        points_max = max(p["points_max"] for p in parts)
        points_sum = sum(p["points_sum"] for p in parts)

        sample_joined = np.concatenate([p["sample_joined"] for p in parts])
        entire_max, entire_avg = 0.0, 0.0
        if sample_joined.any():
            sample_fractions = np.concatenate(
                [p["sample_fractions"] for p in parts], axis=0
            )[sample_joined]
            sample_minima = np.concatenate([p["sample_minima"] for p in parts])[sample_joined]
            sample_maxima = np.concatenate([p["sample_maxima"] for p in parts])[sample_joined]
            entire_max, entire_avg = entire_domain_stats(
                thresholds, sample_fractions, sample_minima, sample_maxima,
                truth.evaluate(grid), grid,
            )
        entire, points = assemble_error_pairs(
            reached, missing, points_max, points_sum, entire_max, entire_avg
        )

        if reached == 0:
            raise SimulationError("the sharded instance reached no node")
        frac_mean = np.sum([p["frac_sum"] for p in parts], axis=0) / reached
        weight_sum = float(sum(p["weight_sum"] for p in parts))
        estimate = EstimatedCDF(
            thresholds=thresholds,
            fractions=np.clip(frac_mean[:k], 0.0, 1.0),
            minimum=float(min(p["minimum"] for p in parts)),
            maximum=float(max(p["maximum"] for p in parts)),
            system_size=reached / weight_sum if weight_sum > 0 else None,
        )
        return ShardInstanceResult(
            instance_index=self.instances_run,
            thresholds=thresholds,
            v_thresholds=v_thresholds,
            estimate=estimate,
            errors_entire=entire,
            errors_points=points,
            reached=reached,
            n_nodes=self.n_nodes,
            shards=self.shards,
            cross_rows_total=cross_rows_total,
            messages_total=messages,
            bytes_total=messages * self.config.message_bytes(),
        )
