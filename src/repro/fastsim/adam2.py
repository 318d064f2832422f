"""Vectorised Adam2 simulation.

All peers of an aggregation instance share the initiator's threshold
vector, so the entire instance state is three arrays: a dense matrix of
averaged quantities (interpolation fractions, verification fractions, and
the size weight), a per-node extremes matrix, and a joined mask.  A gossip
round is a pass of one of the :mod:`repro.fastsim.exchange` kernels.

The hot path is built around one **batched state tensor per run**: a
single preallocated ``(N, λ)`` matrix (:class:`repro.fastsim.state.BatchState`,
``λ = k + v + 1`` columns over all thresholds) refilled in place for each
consecutive instance, driven through preallocated exchange scratch
(:class:`repro.fastsim.exchange.ExchangeBuffers` — in-place partner
permutations, gather/scatter row buffers).  In the steady state a round
allocates nothing proportional to ``N``, which is what lets the
``matching`` kernel reach million-node populations; the optional
``float32`` mode halves the memory traffic on top.  The multiprocessing
shard driver (:mod:`repro.fastsim.shard`) partitions this same state
across worker processes for populations beyond one core.

Churn semantics (paper §VII-G): replaced nodes get fresh attribute values
from the same distribution; nodes that enter during an instance ignore it
(they are *excluded* from the running instance and from its evaluation
metrics), and are bootstrapped with estimates from their neighbours.
Ground truth for a single instance is the population present at instance
start, so the measured error isolates what churn does to the aggregation
itself (mass loss from departed peers) rather than sampling noise from
replacement values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.rngs import make_rng, spawn
from repro.types import ErrorPair
from repro.core.cdf import EmpiricalCDF, EstimatedCDF
from repro.core.config import Adam2Config, bootstrap_sample_size
from repro.core.confidence import estimate_errors_matrix, select_verification_points
from repro.core.interpolation import interpolate_matrix
from repro.core.selection import get_selection
from repro.fastsim.churn import FastChurn
from repro.fastsim.exchange import ExchangeBuffers, matching_round, sequential_round
from repro.fastsim.state import BatchState, resolve_dtype
from repro.metrics.error import error_grid
from repro.metrics.convergence import ConvergenceTrace
from repro.obs.bridges import RateTracker
from repro.obs.events import InstanceCompleted, InstanceStarted, RoundSample
from repro.obs.observer import NULL_HUB, ObserverHub
from repro.workloads.base import AttributeWorkload

__all__ = [
    "Adam2Simulation",
    "FastInstanceResult",
    "FastRunResult",
    "assemble_error_pairs",
    "entire_domain_stats",
    "points_residual_stats",
    "select_instance_points",
]

_KERNELS = {"sequential": sequential_round, "matching": matching_round}


# ----------------------------------------------------------------------
# Error aggregation (shared with the shard driver)
# ----------------------------------------------------------------------
# The paper's two error metrics decompose into per-row statistics that
# combine additively, which is what lets the multiprocessing shard
# driver compute them without gathering the full (N, k) state: each
# shard reports (max, sum-of-row-means, count) partials and the parent
# assembles the same numbers this module computes single-process.


def points_residual_stats(fractions: np.ndarray, true_at_t: np.ndarray) -> tuple[float, float]:
    """Residual partials at the interpolation points over a row block.

    Returns ``(max |frac − truth|, sum over rows of mean |frac − truth|)``
    for the (already clipped) fraction rows of reached nodes.  The
    residual is built in one ``(rows, k)`` scratch.
    """
    if fractions.shape[0] == 0:
        return 0.0, 0.0
    residual = np.subtract(fractions, true_at_t[None, :])
    np.abs(residual, out=residual)
    return float(residual.max()), float(residual.mean(axis=1).sum())


def entire_domain_stats(
    thresholds: np.ndarray,
    fractions: np.ndarray,
    minima: np.ndarray,
    maxima: np.ndarray,
    truth_on_grid: np.ndarray,
    grid: np.ndarray,
) -> tuple[float, float]:
    """Entire-domain residual stats (max, mean) over sampled node rows."""
    estimates = interpolate_matrix(thresholds, fractions, minima, maxima, grid)
    residual = np.abs(estimates - truth_on_grid[None, :])
    return float(residual.max(axis=1).max()), float(residual.mean(axis=1).mean())


def assemble_error_pairs(
    n_reached: int,
    missing: int,
    points_max: float,
    points_avg_sum: float,
    entire_max: float,
    entire_avg_mean: float,
) -> tuple[ErrorPair, ErrorPair]:
    """Combine residual partials into the paper's (entire, points) pairs.

    Eligible nodes the instance has not reached count error 1 (their
    approximation is undefined — the paper's early-round plateau at 1).
    """
    total = n_reached + missing
    if total == 0:
        raise SimulationError("no eligible nodes to evaluate")
    if n_reached == 0:
        return ErrorPair(1.0, 1.0), ErrorPair(1.0, 1.0)
    points = ErrorPair(
        maximum=1.0 if missing else points_max,
        average=(points_avg_sum + missing) / total,
    )
    entire = ErrorPair(
        maximum=1.0 if missing else entire_max,
        average=(entire_avg_mean * n_reached + missing) / total,
    )
    return entire, points


def select_instance_points(
    config: Adam2Config,
    previous: EstimatedCDF | None,
    values: np.ndarray,
    select_rng: np.random.Generator,
    *,
    neighbour_sample: int,
    selection: str | None = None,
    bootstrap: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Choose an instance's interpolation and verification thresholds.

    The initiator refines ``previous`` (its estimate from the last
    completed instance) when it has one, else falls back to the
    bootstrap heuristic over a neighbour-value sample.  Shared by the
    single-process simulator (per-initiator previous estimates) and the
    shard driver (consensus previous estimate held by the coordinator).
    """
    pool_size = min(neighbour_sample, values.size)
    neighbour_values = values[
        select_rng.choice(values.size, size=pool_size, replace=False)
    ]
    if previous is None:
        heuristic = bootstrap or config.bootstrap
    else:
        heuristic = selection or config.selection
    thresholds = get_selection(heuristic).select(
        config.points, previous, select_rng, neighbour_values=neighbour_values
    )
    if previous is not None:
        lo, hi = previous.minimum, previous.maximum
    else:
        lo, hi = float(neighbour_values.min()), float(neighbour_values.max())
    v_thresholds = select_verification_points(
        config.verification_points, config.verification_target, previous, lo, hi
    )
    return np.sort(thresholds), np.sort(v_thresholds)


@dataclass
class FastInstanceResult:
    """Outcome of one aggregation instance in the fast simulator.

    Error pairs aggregate over the participating nodes exactly as in the
    paper: ``Err_m = max_p Err_m(p)`` and ``Err_a = avg_p Err_a(p)``.
    """

    instance_index: int
    thresholds: np.ndarray
    v_thresholds: np.ndarray
    fractions: np.ndarray
    v_fractions: np.ndarray
    weights: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    joined: np.ndarray
    participants: np.ndarray
    truth: EmpiricalCDF
    errors_entire: ErrorPair
    errors_points: ErrorPair
    trace: ConvergenceTrace | None = None
    confidence_sample: np.ndarray | None = None
    est_errm: np.ndarray | None = None
    est_erra: np.ndarray | None = None
    true_errm: np.ndarray | None = None
    true_erra: np.ndarray | None = None
    messages_total: int = 0
    bytes_total: int = 0

    def mean_estimate(self) -> EstimatedCDF:
        """The consensus estimate (node estimates agree to ~1e-5)."""
        mask = self.joined & self.participants
        if not mask.any():
            raise SimulationError("no participant completed the instance")
        return EstimatedCDF(
            thresholds=self.thresholds,
            fractions=self.fractions[mask].mean(axis=0, dtype=np.float64),
            minimum=float(self.minimum[mask].min()),
            maximum=float(self.maximum[mask].max()),
            system_size=float(np.median(self.size_estimates())) if self.weights[mask].max() > 0 else None,
        )

    def size_estimates(self) -> np.ndarray:
        """Per-node system-size estimates ``1/w`` (positive weights only)."""
        mask = self.joined & (self.weights > 0)
        if not mask.any():
            raise SimulationError("the initiator weight reached no surviving node")
        return 1.0 / self.weights[mask]


@dataclass
class FastRunResult:
    """Outcome of a multi-instance campaign."""

    instances: list[FastInstanceResult] = field(default_factory=list)

    @property
    def final(self) -> FastInstanceResult:
        if not self.instances:
            raise SimulationError("no instances were run")
        return self.instances[-1]

    @property
    def estimate(self) -> EstimatedCDF:
        return self.final.mean_estimate()

    @property
    def final_errors(self) -> ErrorPair:
        return self.final.errors_entire

    def errors_by_instance(self) -> tuple[list[float], list[float]]:
        """(max errors, avg errors) per instance — the Fig. 7 series."""
        return (
            [r.errors_entire.maximum for r in self.instances],
            [r.errors_entire.average for r in self.instances],
        )


class Adam2Simulation:
    """Run Adam2 over a synthetic population, vectorised.

    Args:
        workload: attribute distribution for the population (and for
            churn replacements).
        n_nodes: population size (constant under replacement churn).
        config: protocol parameters.
        seed: experiment seed; every run is deterministic given it.
        exchange: ``"sequential"`` (PeerSim-style, reference) or
            ``"matching"`` (fully vectorised, for very large n).
        churn_rate: fraction of nodes replaced per round (0 disables).
        neighbour_sample: neighbour attribute values visible to an
            initiator for the neighbour-based bootstrap.
        node_sample: node subsample size for the expensive entire-domain
            error metrics (the cross-node spread is ~1e-5, see §VII-A).
        sanitize: run the invariant sanitizer after every round
            (default: follow the ``ADAM2_SANITIZE`` env var).
        dtype: state precision, ``"float64"`` (reference) or
            ``"float32"`` (half the per-round memory traffic; the
            sanitizer scales its mass tolerance to the dtype).
        obs: observability hub (:mod:`repro.obs`); per-round probes and
            lifecycle events are emitted only when observers are
            attached, so the default costs one branch per round.
    """

    def __init__(
        self,
        workload: AttributeWorkload,
        n_nodes: int,
        config: Adam2Config,
        seed: int = 0,
        exchange: str = "sequential",
        churn_rate: float = 0.0,
        neighbour_sample: int | None = None,
        node_sample: int = 64,
        sanitize: bool | None = None,
        dtype: str = "float64",
        obs: ObserverHub | None = None,
    ):
        if n_nodes < 2:
            raise ConfigurationError("need at least 2 nodes")
        if exchange not in _KERNELS:
            raise ConfigurationError(f"unknown exchange kernel {exchange!r}; expected one of {sorted(_KERNELS)}")
        self.workload = workload
        self.config = config
        self.n_nodes = n_nodes
        self.kernel = _KERNELS[exchange]
        self.dtype = resolve_dtype(dtype)
        self.rng = make_rng(seed)
        self._value_rng = spawn(self.rng)
        self._gossip_rng = spawn(self.rng)
        self._select_rng = spawn(self.rng)
        self._measure_rng = spawn(self.rng)
        self._drift_rng = spawn(self.rng)
        self.values = workload.sample(n_nodes, self._value_rng)
        self.churn = (
            FastChurn(churn_rate, workload, spawn(self.rng)) if churn_rate > 0 else None
        )
        self.neighbour_sample = bootstrap_sample_size(config, neighbour_sample)
        self.node_sample = node_sample
        from repro.lint.sanitizer import FastsimSanitizer, sanitize_enabled

        self._sanitizer = FastsimSanitizer() if sanitize_enabled(sanitize) else None
        self._obs = obs if obs is not None else NULL_HUB
        # The (N, λ) batch and exchange scratch are sized on the first
        # instance (λ depends on the selected thresholds) and reused for
        # every one after: the steady-state instance allocates nothing
        # proportional to n beyond its result arrays.
        self._batch: BatchState | None = None
        self._buffers: ExchangeBuffers | None = None
        # Post-instance per-node estimate state (shared thresholds).
        self.prev_thresholds: np.ndarray | None = None
        self.prev_fractions: np.ndarray | None = None
        self.prev_minimum: np.ndarray | None = None
        self.prev_maximum: np.ndarray | None = None
        self.has_estimate = np.zeros(n_nodes, dtype=bool)
        self.instances_run = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def true_cdf(self) -> EmpiricalCDF:
        """Ground truth over the current live population."""
        return EmpiricalCDF(self.values)

    def run_instance(
        self,
        rounds: int | None = None,
        selection: str | None = None,
        bootstrap: str | None = None,
        track: bool = False,
        track_every: int = 1,
        confidence_sample: int | None = None,
        drift=None,
    ) -> FastInstanceResult:
        """Execute one full aggregation instance.

        Args:
            rounds: instance duration (default: config TTL).
            selection: refinement heuristic override (default: config).
            bootstrap: first-instance heuristic override (default: config).
            track: record a per-round :class:`ConvergenceTrace` (Fig. 6).
            track_every: measure every this many rounds when tracking.
            confidence_sample: additionally compute true per-node errors
                for this many nodes to evaluate confidence estimation
                (Fig. 14); requires ``config.verification_points > 0``.
            drift: optional :class:`repro.workloads.dynamic.DriftModel`
                mutating the population's values every round (§VII-F).
                Nodes evaluate their attribute only when they join, so
                already-joined contributions are *not* re-evaluated; the
                reported errors compare against the population at
                instance *end* (the error therefore includes how far the
                CDF moved during the instance, as the paper describes).
        """
        rounds = rounds if rounds is not None else self.config.rounds_per_instance
        if rounds < 1:
            raise ConfigurationError("an instance needs at least one round")
        n = self.n_nodes
        cfg = self.config

        initiator = int(self._select_rng.integers(0, n))
        thresholds, v_thresholds = self._select_points(initiator, selection, bootstrap)
        k = thresholds.size
        v = v_thresholds.size

        all_t = np.concatenate((thresholds, v_thresholds))
        # Columns: k interpolation fractions, v verification fractions, weight.
        batch = self._batch = BatchState.ensure(self._batch, n, k + v + 1, self.dtype)
        buffers = self._buffers = ExchangeBuffers.ensure(
            self._buffers, n, batch.width, batch.dtype
        )
        batch.begin_instance(self.values, all_t, initiator)
        buffers.reset_order()
        averaged = batch.averaged
        extremes = batch.extremes
        joined = batch.joined
        excluded = batch.excluded
        participants = batch.participants

        start_values = self.values.copy()
        truth = EmpiricalCDF(start_values)
        grid = error_grid(truth.minimum, truth.maximum)
        trace = ConvergenceTrace() if track else None
        messages = 0
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.begin_instance(averaged, cfg.join_mode, instance=self.instances_run)
        hub = self._obs
        probes = hub if hub.probes_enabled else None
        rate_tracker = RateTracker() if probes is not None else None
        if probes is not None:
            probes.instance_started(InstanceStarted(
                instance=self.instances_run,
                thresholds=tuple(float(t) for t in thresholds),
                v_thresholds=tuple(float(t) for t in v_thresholds),
            ))

        for round_index in range(rounds):
            if drift is not None and not drift.is_static:
                self.values = drift.apply(self.values, self._drift_rng)
                # Unreached nodes evaluate their attribute at join time:
                # keep their pending indicator rows in sync with the
                # drifted values (paper §VII-F).
                batch.refresh_pending(self.values, all_t)
                truth = EmpiricalCDF(self.values)
                grid = error_grid(truth.minimum, truth.maximum)
            if self.churn is not None:
                self.churn.apply(
                    batch, self.values, all_t,
                    self.prev_fractions, self.prev_minimum, self.prev_maximum,
                    self.has_estimate,
                )
            if sanitizer is not None and (self.churn is not None or (drift is not None and not drift.is_static)):
                # Churn resets rows and drift re-evaluates pending ones —
                # legitimate external mass changes; rebase the invariant.
                sanitizer.rebaseline(averaged)
            with hub.span("round"):
                active = self.kernel(
                    averaged, extremes, joined, self._gossip_rng, cfg.join_mode,
                    excluded=excluded if self.churn is not None else None,
                    buffers=buffers,
                )
            # After a steady round the state is in pair order (see
            # repro.fastsim.exchange); node-indexed readers settle it
            # first or look rows up through ``buffers.row_of``.  Churn
            # and drift above never meet pair order: churn forces the
            # masked path, and drift touches only unjoined rows, which a
            # steady round leaves none of.
            if sanitizer is not None:
                buffers.settle(averaged, extremes)
                sanitizer.after_round(averaged, k, round_index)
            # An exchange with an excluded peer carries no instance data;
            # approximate the active count accordingly for accounting.
            messages += 2 * active
            if probes is not None:
                probes.round_sample(self._round_sample(
                    averaged[buffers.row_of[joined]], k, round_index, 2 * active, rate_tracker
                ))
            if track and (round_index + 1) % track_every == 0:
                buffers.settle(averaged, extremes)
                entire, points = self._instance_errors(
                    averaged[:, :k], extremes, joined, participants & ~excluded, thresholds, truth, grid
                )
                trace.record(round_index + 1, entire, points)

        buffers.settle(averaged, extremes)
        fractions = np.clip(averaged[:, :k], 0.0, 1.0)
        v_fractions = np.clip(averaged[:, k : k + v], 0.0, 1.0) if v else np.empty((n, 0))
        # The batch tensor is reused by the next instance: results must
        # own copies of everything they keep (clip already copies).
        weights = averaged[:, -1].copy()
        eligible = participants & ~excluded
        entire, points = self._instance_errors(
            fractions, extremes, joined, eligible, thresholds, truth, grid, clipped=True
        )
        result = FastInstanceResult(
            instance_index=self.instances_run,
            thresholds=thresholds,
            v_thresholds=v_thresholds,
            fractions=fractions,
            v_fractions=v_fractions,
            weights=weights,
            minimum=extremes[:, 0].copy(),
            maximum=extremes[:, 1].copy(),
            joined=joined.copy(),
            participants=eligible,
            truth=truth,
            errors_entire=entire,
            errors_points=points,
            trace=trace,
            messages_total=messages,
            bytes_total=messages * cfg.message_bytes(),
        )
        if v and confidence_sample:
            self._evaluate_confidence(result, confidence_sample, grid)

        if probes is not None:
            probes.instance_completed(InstanceCompleted(
                instance=self.instances_run,
                rounds=rounds,
                reached=int((joined & eligible).sum()),
                err_max=entire.maximum,
                err_avg=entire.average,
                messages=messages,
                bytes=result.bytes_total,
            ))
        self._commit_estimates(result, excluded)
        self.instances_run += 1
        return result

    def run_instances(
        self,
        count: int,
        rounds: int | None = None,
        selection: str | None = None,
        bootstrap: str | None = None,
        track_all: bool = False,
    ) -> FastRunResult:
        """Run several consecutive instances (paper Figs. 5, 7, 10, 13)."""
        if count < 1:
            raise ConfigurationError("need at least one instance")
        run = FastRunResult()
        for _ in range(count):
            run.instances.append(
                self.run_instance(rounds=rounds, selection=selection, bootstrap=bootstrap, track=track_all)
            )
        return run

    def system_errors(self, node_sample: int | None = None) -> ErrorPair:
        """Error of the *current* estimates of all nodes vs the live truth.

        This is the Fig. 13 metric: after several instances under churn,
        every node (including churned-in nodes, which were bootstrapped by
        neighbours) holds an estimate; aggregate its error against the
        current population.
        """
        if self.prev_fractions is None:
            raise SimulationError("no instance has completed yet")
        truth = self.true_cdf()
        grid = error_grid(truth.minimum, truth.maximum)
        n = self.n_nodes
        sample = min(node_sample or self.node_sample, n)
        idx = self._measure_rng.choice(n, size=sample, replace=False)
        estimates = interpolate_matrix(
            self.prev_thresholds,
            self.prev_fractions[idx],
            self.prev_minimum[idx],
            self.prev_maximum[idx],
            grid,
        )
        residual = np.abs(estimates - truth.evaluate(grid)[None, :])
        return ErrorPair(
            maximum=float(residual.max(axis=1).max()),
            average=float(residual.mean(axis=1).mean()),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _round_sample(
        self,
        rows: np.ndarray,
        k: int,
        round_index: int,
        round_messages: int,
        tracker: RateTracker,
    ) -> RoundSample:
        """Per-round observability probe over the joined rows (node order).

        The weight column sums to 1.0 over joined nodes under the
        symmetric exchange (the conservation diagnostic); the fraction
        mass grows as the instance reaches new nodes and is conserved
        once fully spread.  The spread is the epidemic-averaging variance
        diagnostic whose per-round decay factor the paper's convergence
        claims are about.
        """
        reached = rows.shape[0]
        mass_sum = float(rows[:, :k].sum(dtype=np.float64))
        weight_sum = float(rows[:, -1].sum(dtype=np.float64))
        spread = float(rows[:, :k].std(axis=0).mean()) if reached > 1 else 0.0
        return RoundSample(
            instance=self.instances_run,
            round=round_index + 1,
            mass_sum=mass_sum,
            weight_sum=weight_sum,
            reached=reached,
            spread=spread,
            convergence_rate=tracker.rate(self.instances_run, spread),
            messages=round_messages,
            bytes=round_messages * self.config.message_bytes(),
        )

    def _select_points(
        self, initiator: int, selection: str | None, bootstrap: str | None
    ) -> tuple[np.ndarray, np.ndarray]:
        previous = None
        if self.has_estimate[initiator] and self.prev_fractions is not None:
            previous = EstimatedCDF(
                self.prev_thresholds,
                self.prev_fractions[initiator],
                float(self.prev_minimum[initiator]),
                float(self.prev_maximum[initiator]),
            )
        return select_instance_points(
            self.config,
            previous,
            self.values,
            self._select_rng,
            neighbour_sample=self.neighbour_sample,
            selection=selection,
            bootstrap=bootstrap,
        )

    def _instance_errors(
        self,
        fractions: np.ndarray,
        extremes: np.ndarray,
        joined: np.ndarray,
        eligible: np.ndarray,
        thresholds: np.ndarray,
        truth: EmpiricalCDF,
        grid: np.ndarray,
        clipped: bool = False,
    ) -> tuple[ErrorPair, ErrorPair]:
        """Aggregate errors over eligible nodes, counting error 1 for
        eligible nodes the instance has not reached (their approximation
        is undefined — the paper's early-round plateau at 1).

        ``clipped`` says ``fractions`` is already clipped to [0, 1]; when
        every row is reached it is then used as it is, without a copy.
        """
        reached = joined & eligible
        missing = int((eligible & ~joined).sum())
        n_reached = int(reached.sum())
        if n_reached + missing == 0:
            raise SimulationError("no eligible nodes to evaluate")
        if n_reached == 0:
            return assemble_error_pairs(0, missing, 0.0, 0.0, 0.0, 0.0)

        frac = fractions if n_reached == fractions.shape[0] else fractions[reached]
        if not clipped:
            frac = np.clip(frac, 0.0, 1.0)
        points_max, points_avg_sum = points_residual_stats(
            frac, truth.evaluate(thresholds)
        )

        idx_pool = np.flatnonzero(reached)
        if idx_pool.size > self.node_sample:
            idx = idx_pool[self._measure_rng.choice(idx_pool.size, size=self.node_sample, replace=False)]
        else:
            idx = idx_pool
        entire_max, entire_avg_mean = entire_domain_stats(
            thresholds, fractions[idx], extremes[idx, 0], extremes[idx, 1],
            truth.evaluate(grid), grid,
        )
        return assemble_error_pairs(
            n_reached, missing, points_max, points_avg_sum, entire_max, entire_avg_mean
        )

    def _evaluate_confidence(self, result: FastInstanceResult, sample: int, grid: np.ndarray) -> None:
        reached = np.flatnonzero(result.joined & result.participants)
        if reached.size == 0:
            raise SimulationError("no node completed the instance")
        if reached.size > sample:
            reached = reached[self._measure_rng.choice(reached.size, size=sample, replace=False)]
        est_m, est_a = estimate_errors_matrix(
            result.thresholds,
            result.fractions[reached],
            result.minimum[reached],
            result.maximum[reached],
            result.v_thresholds,
            result.v_fractions[reached],
        )
        estimates = interpolate_matrix(
            result.thresholds,
            result.fractions[reached],
            result.minimum[reached],
            result.maximum[reached],
            grid,
        )
        residual = np.abs(estimates - result.truth.evaluate(grid)[None, :])
        result.confidence_sample = reached
        result.est_errm = est_m
        result.est_erra = est_a
        result.true_errm = residual.max(axis=1)
        result.true_erra = residual.mean(axis=1)

    def _commit_estimates(self, result: FastInstanceResult, excluded: np.ndarray) -> None:
        """Store per-node estimates for refinement and Fig.-13 metrics."""
        self.prev_thresholds = result.thresholds.copy()
        fractions = result.fractions.copy()
        minimum = result.minimum.copy()
        maximum = result.maximum.copy()
        reached = result.joined & ~excluded
        if not reached.any():
            # The instance died (e.g. the initiator churned out before any
            # exchange — increasingly likely at extreme churn rates).
            # Nodes keep whatever estimates they had; the run's errors
            # already report the total failure (error 1.0).
            return
        # Nodes that ignored the instance (mid-instance joiners) are
        # bootstrapped by a random reached neighbour, as in the paper.
        stale = np.flatnonzero(~reached)
        if stale.size:
            pool = np.flatnonzero(reached)
            donors = pool[self._measure_rng.integers(0, pool.size, size=stale.size)]
            fractions[stale] = fractions[donors]
            minimum[stale] = minimum[donors]
            maximum[stale] = maximum[donors]
        self.prev_fractions = fractions
        self.prev_minimum = minimum
        self.prev_maximum = maximum
        self.has_estimate[:] = True
