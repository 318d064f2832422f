"""The two simulator workloads: ``sim_steady`` and ``sim_churn``.

Both drive :class:`repro.fastsim.Adam2Simulation` through its public
``run_instance()``; they differ in where the time goes (see README).
End-to-end numbers come from a simulation whose hub only times the
repo's own ``round`` span; the traced pass adds an attached observer
(so the hub's per-round probes run) and replays the instance's public
pieces — selection, batch refill, churn, error calculation — one by one
on the same shapes, so instance self time = instance − rounds − pieces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from bench.layers import repeat
from bench.measure import Tracer, hub_spans, median, peak_rss_mb
from bench.spec import Outcome
from repro.core.cdf import EmpiricalCDF
from repro.core.config import Adam2Config
from repro.core.interpolation import interpolate_matrix
from repro.fastsim.adam2 import (
    Adam2Simulation,
    FastInstanceResult,
    entire_domain_stats,
    points_residual_stats,
    select_instance_points,
)
from repro.fastsim.churn import FastChurn
from repro.fastsim.exchange import ExchangeBuffers
from repro.fastsim.state import BatchState
from repro.metrics.error import error_grid
from repro.obs import ObserverHub, RunObserver
from repro.rngs import make_rng
from repro.workloads import boinc_workload

#: |sum(weights) - 1| allowed per state dtype (mass conservation)
WEIGHT_TOLERANCE = {"float64": 1e-9, "float32": 1e-4}


@dataclass
class _Phase:
    """One timed stretch of consecutive instances on one simulation."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    rounds: list[float] = field(default_factory=list)
    rounds_per_instance: list[float] = field(default_factory=list)
    full_rounds: list[float] = field(default_factory=list)
    err_avg: list[float] = field(default_factory=list)
    err_max: list[float] = field(default_factory=list)
    messages: int = 0
    died: int = 0
    first_fractions: np.ndarray | None = None
    last: FastInstanceResult | None = None


def _check_instance(out: Outcome, result: FastInstanceResult, params: dict, phase: _Phase) -> None:
    n = int(params["n_nodes"])
    reached = int((result.joined & result.participants).sum())
    tolerance = WEIGHT_TOLERANCE[str(params["dtype"])]
    if params["churn_rate"]:
        if reached == 0:
            # The initiator was churned out before its first exchange:
            # the paper's (and the simulator's documented) dead instance,
            # not a wrong output.  Counted, reported per layer, not failed.
            phase.died += 1
            out.check(True, "instance died by initiator churn")
            return
        eligible = int(result.participants.sum())
        out.check(reached == eligible, f"instance reached {reached} of {eligible} eligible nodes")
        weight = float(result.weights[result.joined].sum())
        out.check(0.0 < weight <= 1.0 + tolerance, f"weight sum {weight} outside (0, 1]")
    else:
        out.check(reached == n, f"instance reached {reached} of {n} nodes")
        weight = float(result.weights.sum())
        out.check(abs(weight - 1.0) <= tolerance, f"weight sum {weight} != 1")
    errors = result.errors_entire
    out.check(errors.average <= params["err_avg_max"], f"err_avg {errors.average}")
    out.check(errors.maximum <= params["err_max_max"], f"err_max {errors.maximum}")
    phase.err_avg.append(errors.average)
    phase.err_max.append(errors.maximum)


def _timed(
    sim: Adam2Simulation, seconds: float, min_instances: int,
    tracer: Tracer, out: Outcome, params: dict,
) -> _Phase:
    """Run instances until ``seconds`` of instance wall time have been measured."""
    phase = _Phase()
    mark = len(tracer.spans)
    while len(phase.walls) < min_instances or sum(phase.walls) < seconds:
        tracer.trace_id = sim.instances_run
        with tracer.span("instance") as span:
            result = sim.run_instance()
        phase.cpus.append(span.cpu)
        phase.walls.append(span.wall)
        phase.messages += result.messages_total
        if phase.first_fractions is None:
            phase.first_fractions = result.fractions
        _check_instance(out, result, params, phase)
        phase.last = result
    per_instance: dict[int | None, list[float]] = {}
    for s in tracer.spans[mark:]:
        if s.name == "round":
            per_instance.setdefault(s.trace_id, []).append(s.wall)
    for walls in per_instance.values():
        phase.rounds.extend(walls)
        phase.rounds_per_instance.append(sum(walls))
        # An instance reaches 2^r nodes by round r, so its first half is
        # nearly free and the median of all rounds sits on the ramp
        # between the two regimes; the second half is the full-population
        # round a user of the simulator pays for.
        phase.full_rounds.extend(walls[len(walls) // 2:])
    return phase


def run(params: dict, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    tracer = Tracer()
    cfg = Adam2Config(**params["config"])
    workload = boinc_workload(str(params["attribute"]))
    n = int(params["n_nodes"])
    node_rounds = n * cfg.rounds_per_instance
    setups: list[float] = []

    def build(observed: bool) -> Adam2Simulation:
        """One set-up: construct the simulation and run its warm-up instance."""
        started = time.perf_counter()
        hub = ObserverHub(
            [RunObserver()] if observed else (),
            instrument=True, spans=hub_spans(tracer),
        )
        sim = Adam2Simulation(
            workload, n, cfg, seed=seed, exchange=str(params["exchange"]),
            churn_rate=float(params["churn_rate"]), dtype=str(params["dtype"]), obs=hub,
        )
        sim.run_instance()  # bootstrap thresholds + first touch of the batch
        setups.append(time.perf_counter() - started)
        tracer.clear()
        return sim

    # Untraced: the whole budget on one simulation, then a replica from
    # the same seed replays one instance for the determinism check.
    # Traced: half the budget unobserved — every per-layer row comes from
    # it, unperturbed — and half on an observed replica, which gives the
    # overhead row and whose first instance doubles as that check.
    budget = seconds / 2 if trace else seconds
    sim = build(observed=False)
    plain = _timed(sim, budget, int(params["min_instances"]), tracer, out, params)
    if trace:
        out.extra["spans"] = tracer.export()
        _layers(out, sim, plain, params, cfg, seed)
    plain.last = None
    del sim
    replica = build(observed=trace)
    other = _timed(
        replica, budget if trace else 0.0,
        int(params["min_instances"]) if trace else 1, tracer, out, params,
    )
    out.check(
        np.array_equal(plain.first_fractions, other.first_fractions),
        "a second simulation from the same seed did not reproduce the first instance bit-for-bit",
    )
    if trace:
        out.put("obs.trace_overhead_pct",
                (median(other.walls) / median(plain.walls) - 1.0) * 100.0,
                len(other.walls) + len(plain.walls))
        return out
    del replica, other
    plain.first_fractions = None
    for _ in range(int(params["setups"]) - len(setups)):
        build(observed=False)

    out.p50("setup_s", setups, 1.0)
    out.put("throughput_per_s", node_rounds / median(plain.walls), len(plain.walls))
    out.put("cpu_us_per_unit", median(plain.cpus) * 1e6 / node_rounds, len(plain.cpus))
    out.p50("latency_ms_p50", plain.full_rounds, 1e3)
    out.tail("latency_ms_tail", plain.full_rounds, 1e3, 90.0)
    out.put("peak_rss_mb", peak_rss_mb())
    return out


def _layers(
    out: Outcome, sim: Adam2Simulation, phase: _Phase,
    params: dict, cfg: Adam2Config, seed: int,
) -> None:
    """Per-layer rows: in-situ round spans plus one-by-one replays of the rest."""
    n = int(params["n_nodes"])
    rounds = cfg.rounds_per_instance
    last = phase.last
    assert last is not None
    workload = sim.workload
    values = sim.values
    all_t = np.concatenate((last.thresholds, last.v_thresholds))
    width = all_t.size + 1
    dtype = np.dtype(str(params["dtype"]))
    reps = 5 if n >= 50_000 else 40
    rng = make_rng(seed)

    out.p50("workloads.sample_ms", repeat(lambda: workload.sample(n, rng), reps), 1e3)

    previous = last.mean_estimate()
    select = out.p50("core.selection.select_ms_p50", repeat(
        lambda: select_instance_points(
            cfg, previous, values, rng, neighbour_sample=sim.neighbour_sample),
        reps), 1e3)
    out.put("core.selection.calls", len(phase.walls), len(phase.walls))

    batch = BatchState(n, width, dtype)
    begin = out.p50("fastsim.state.begin_instance_ms_p50", repeat(
        lambda: batch.begin_instance(values, all_t, 0), reps), 1e3)
    out.put("fastsim.state.bytes", n * (width + 2) * dtype.itemsize + 3 * n)

    buffers = ExchangeBuffers(n, width, dtype)
    out.p50("fastsim.exchange.partner_draw_ms_p50",
            repeat(lambda: buffers.permutation(rng), reps), 1e3)
    del buffers

    churn_ms = 0.0
    if sim.churn is not None:
        churn = FastChurn(float(params["churn_rate"]), workload, rng)
        scratch = values.copy()
        prev = (sim.prev_fractions.copy(), sim.prev_minimum.copy(),
                sim.prev_maximum.copy(), sim.has_estimate.copy())
        churn_ms = out.p50("fastsim.churn.apply_ms_p50", repeat(
            lambda: churn.apply(batch, scratch, all_t, *prev), reps * rounds), 1e3)
        out.put("fastsim.churn.rows_reset", sim.churn.replaced_total, sim.instances_run * rounds)
        out.put("fastsim.churn.instances_died", phase.died, len(phase.walls))
    del batch

    # The instance's error calculation, rebuilt from the same public
    # helpers Adam2Simulation uses, on the last instance's arrays.
    reached = last.joined & last.participants
    sample = np.flatnonzero(reached)[: sim.node_sample]

    def truth_build() -> tuple[EmpiricalCDF, np.ndarray]:
        truth = EmpiricalCDF(values.copy())
        return truth, error_grid(truth.minimum, truth.maximum)

    truth_ms = out.p50("core.cdf.empirical_ms_p50", repeat(truth_build, reps), 1e3)
    truth, grid = truth_build()

    def matrix() -> np.ndarray:
        return interpolate_matrix(
            last.thresholds, last.fractions[sample], last.minimum[sample],
            last.maximum[sample], grid)

    def error_calc() -> None:
        points_residual_stats(
            np.clip(last.fractions[reached], 0.0, 1.0), truth.evaluate(last.thresholds))
        entire_domain_stats(
            last.thresholds, last.fractions[sample], last.minimum[sample],
            last.maximum[sample], truth.evaluate(grid), grid)

    out.p50("core.interpolation.matrix_ms_p50", repeat(matrix, reps), 1e3)
    error_ms = out.p50("fastsim.adam2.error_calc_ms_p50", repeat(error_calc, reps), 1e3)

    out.p50("fastsim.exchange.round_ms_p50", phase.rounds, 1e3)
    out.tail("fastsim.exchange.round_ms_p90", phase.rounds, 1e3, 90.0)
    out.put("fastsim.exchange.rounds", len(phase.rounds), len(phase.rounds))
    out.put("fastsim.exchange.busy_s", sum(phase.rounds), len(phase.rounds))
    active_ratio = phase.messages / (len(phase.walls) * rounds * n)
    out.put("fastsim.exchange.active_ratio", active_ratio, len(phase.rounds))
    # take a/b + add + halve + scatter a/b over (N/2, width + extremes)
    # rows: 13 row-block passes per round, scaled by the active share.
    out.put("fastsim.exchange.computed_bytes_per_round",
            13 * (n // 2) * (width + 2) * dtype.itemsize * active_ratio)

    instance_ms = out.p50("fastsim.adam2.instance_ms_p50", phase.walls, 1e3)
    children = (median(phase.rounds_per_instance) * 1e3 + select + begin
                + churn_ms * rounds + truth_ms + error_ms)
    out.put("fastsim.adam2.instance_self_ms_p50", instance_ms - children, len(phase.walls))
    out.put("fastsim.adam2.children_share", children / instance_ms, len(phase.walls))
    out.p50("core.err_avg", phase.err_avg, 1.0)
    out.p50("core.err_max", phase.err_max, 1.0)
