"""Print one sha256 per seeded fast-simulator configuration.

Every hash covers everything a configuration's instances leave behind:
per-node fractions, verification fractions, weights, extremes, the
joined and participant masks, both error pairs, and — where the
configuration asks for them — the convergence trace, the confidence
sample or the ``RoundSample`` stream.  Two trees whose kernels differ
only in how they move rows must print the same lines, so comparing a
checkout of one commit with another takes one command each::

    PYTHONPATH=src python scripts/fastsim_identity.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python scripts/fastsim_identity.py > before.txt
    diff before.txt after.txt

Runs take a few seconds; output is deterministic across processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from typing import Any, Callable

import numpy as np

from repro.core.config import Adam2Config
from repro.fastsim.adam2 import Adam2Simulation, FastInstanceResult
from repro.fastsim.shard import ShardedAdam2
from repro.obs import MemorySink, ObserverHub
from repro.workloads import boinc_workload
from repro.workloads.dynamic import DriftModel
from repro.workloads.synthetic import uniform_workload

CONFIG = Adam2Config(points=20, rounds_per_instance=30)
CONFIDENT = Adam2Config(points=10, rounds_per_instance=25, verification_points=5)


class Digest:
    """sha256 over arrays (dtype, shape, bytes) and JSON-able scalars."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *items: Any) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                array = np.ascontiguousarray(item)
                self._hash.update(f"{array.dtype.str}{array.shape}".encode())
                self._hash.update(array.tobytes())
            else:
                self._hash.update(json.dumps(item, default=repr).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _instance(digest: Digest, result: FastInstanceResult) -> None:
    digest.add(
        result.thresholds, result.v_thresholds, result.fractions, result.v_fractions,
        result.weights, result.minimum, result.maximum, result.joined,
        result.participants, tuple(result.errors_entire), tuple(result.errors_points),
        result.messages_total,
    )
    if result.trace is not None:
        digest.add(vars(result.trace))
    for extra in (result.confidence_sample, result.est_errm, result.est_erra,
                  result.true_errm, result.true_erra):
        if extra is not None:
            digest.add(extra)


def _simulated(n: int, instances: int = 3, config: Adam2Config = CONFIG,
               run: dict[str, Any] | None = None, observed: bool = False,
               **options: Any) -> str:
    digest = Digest()
    sink = MemorySink()
    sim = Adam2Simulation(
        boinc_workload("ram"), n, config, seed=11, exchange="matching",
        obs=ObserverHub([sink]) if observed else None, **options,
    )
    for _ in range(instances):
        _instance(digest, sim.run_instance(**(run or {})))
    if observed:
        digest.add([event.to_dict() for event in sink.rounds])
    return digest.hexdigest()


def _sharded(dtype: str) -> str:
    digest = Digest()
    with ShardedAdam2(uniform_workload(0, 1000), 20_001, CONFIG, seed=5,
                      shards=2, dtype=dtype) as sim:
        for result in sim.run_instances(2).instances:
            estimate = result.estimate
            digest.add(
                estimate.fractions, estimate.minimum, estimate.maximum,
                estimate.system_size, tuple(result.errors_entire),
                tuple(result.errors_points), result.reached,
            )
    return digest.hexdigest()


CONFIGURATIONS: dict[str, Callable[[], str]] = {
    "plain": lambda: _simulated(20_000),
    "plain-float32": lambda: _simulated(20_000, dtype="float32"),
    "odd-n": lambda: _simulated(20_001),
    "churn": lambda: _simulated(4_000, churn_rate=0.002),
    "drift": lambda: _simulated(
        4_000, run={"drift": DriftModel(growth_per_round=0.01, shift_per_round=0.5)}
    ),
    "track-confidence": lambda: _simulated(
        4_001, config=CONFIDENT, run={"track": True, "confidence_sample": 64}
    ),
    "round-samples": lambda: _simulated(4_001, observed=True),
    "shards2-float64": lambda: _sharded("float64"),
    "shards2-float32": lambda: _sharded("float32"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"configurations to run (default: all of {', '.join(CONFIGURATIONS)})")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(CONFIGURATIONS))
    if unknown:
        parser.error(f"unknown configuration(s): {', '.join(unknown)}")
    for name in args.names or CONFIGURATIONS:
        print(f"{name} {CONFIGURATIONS[name]()}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
