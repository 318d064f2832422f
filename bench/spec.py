"""Workload parameters and the result shape every workload fills in.

``BENCHMARK.json`` at the repo root is the single list of metric names,
units and bounds; this module holds what it cannot: each workload's full
parameter dict (hashed into the result) and which module runs it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from bench.measure import ROOT, beyond, median, percentile

#: the protocol configuration every workload shares (``Adam2Config`` fields)
CONFIG = {"points": 50, "rounds_per_instance": 30, "selection": "lcut"}
SIM_CONFIG = {**CONFIG, "verification_points": 10}

_SERVE = {
    "family": "serve", "n_nodes": 5000, "attribute": "cpu_mflops",
    # node_sample: the error evaluation's (node_sample, grid) matrices
    # follow the sample's maximum; 16 rows keep peak RSS off the seed.
    "options": {"exchange": "matching", "node_sample": 16}, "config": CONFIG,
    "connections": 2, "setups": 3, "warmup_share": 0.125,
}

#: name -> full parameter dict; ``family`` picks the module that runs it
WORKLOADS: dict[str, dict[str, object]] = {
    "sim_steady": {
        "family": "sim", "n_nodes": 100_000, "attribute": "cpu_mflops",
        "exchange": "matching", "dtype": "float64", "churn_rate": 0.0,
        "config": SIM_CONFIG, "setups": 3, "min_instances": 3,
        "err_avg_max": 0.01, "err_max_max": 0.08,
    },
    "sim_churn": {
        "family": "sim", "n_nodes": 2000, "attribute": "ram_mb",
        "exchange": "matching", "dtype": "float64", "churn_rate": 0.001,
        "config": SIM_CONFIG, "setups": 5, "min_instances": 20,
        "err_avg_max": 0.05, "err_max_max": 0.5,
    },
    "net_cluster": {
        "family": "net", "n_nodes": 128, "attribute": "cpu_mflops",
        "gossip_period": 0.005, "drop_rate": 0.0, "instances_per_run": 2,
        "node_sample": 16, "config": CONFIG, "min_runs": 2,
        "min_reached": 128, "err_avg_max": 0.03, "err_max_max": 0.15,
    },
    "net_lossy": {
        "family": "net", "n_nodes": 128, "attribute": "cpu_mflops",
        "gossip_period": 0.01, "drop_rate": 0.02, "instances_per_run": 2,
        "node_sample": 16, "config": CONFIG, "min_runs": 2,
        "min_reached": 126, "err_avg_max": 0.05, "err_max_max": 0.5,
    },
    "serve_point": {
        **_SERVE, "frame": "json", "batch": 1, "pool": 256,
        "prebuilt_requests": 65536,
    },
    "serve_batch": {
        **_SERVE, "frame": "binary", "batch": 32, "pool": 100_000,
        "prebuilt_requests": 4096,
    },
    "serve_refresh": {
        "family": "refresh", "n_nodes": 2000, "attribute": "cpu_mflops",
        "options": {"exchange": "matching"}, "config": CONFIG,
        "fsync": "rotate", "compact_every": 6, "queries_per_publish": 512,
        "pool": 2048, "estimates": 64, "restarts": 20, "min_publishes": 30,
    },
}

for _name, _params in WORKLOADS.items():
    _params["name"] = _name

FAMILIES = {
    "sim": "bench.sim", "net": "bench.net",
    "serve": "bench.serve", "refresh": "bench.refresh",
}


def load_contract() -> dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """What one workload run produced: checks, metrics, failure notes."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> (value, sample count)
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    extra: dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; a failure keeps a (bounded) note."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def count_ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed and len(self.notes) < 20:
            self.notes.append(f"{failed} of {attempted} {what}")

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), int(samples))

    def p50(self, name: str, seconds: Sequence[float], scale: float) -> float:
        """Record the median of per-call timings under ``name`` (scaled)."""
        value = median(seconds) * scale if len(seconds) else 0.0
        self.put(name, value, len(seconds))
        return value

    def tail(self, name: str, seconds: Sequence[float], scale: float, q: float) -> None:
        """Record the ``q``-th percentile; warns when < 10 samples lie beyond it.

        A thin tail is a weak measurement, not a wrong output of the
        program under test, so it is noted and never counted as a failure.
        """
        if beyond(seconds, q) < 10:
            self.notes.append(
                f"warning: {name} has {beyond(seconds, q)} samples beyond "
                f"p{q:g} of {len(seconds)}; lengthen the run"
            )
        self.put(name, percentile(seconds, q) * scale, len(seconds))
