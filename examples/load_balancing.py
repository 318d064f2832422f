#!/usr/bin/env python
"""Decentralised load-balance monitoring (the paper's §I motivation).

Every node carries a "load" attribute.  The continuous estimation
service (:func:`repro.api.serve`) keeps an Adam2 estimate of the global
load distribution, and the paper's §I views are plain functions of its
queries:

* dispersion — ``quantile(0.9) / quantile(0.5)``; above a policy
  threshold the system counts as imbalanced;
* rank — ``cdf(x)``, a load's position in the whole population;
* slice — ``min(int(k * cdf(x)), k - 1)``, which of ``k``
  equal-population slices a load falls in (ordered slicing).

The scenario starts balanced, then a flash crowd hits 20 % of the nodes;
a service over the new loads detects the imbalance.
"""

import numpy as np

from repro.api import serve
from repro.core import Adam2Config
from repro.rngs import make_rng
from repro.service import ServiceHandle
from repro.workloads.base import FixedPopulation
from repro.workloads.synthetic import normal_workload

N_NODES = 400
IMBALANCE_POLICY = 3.0  # p90/p50 ratio that counts as imbalanced
SLICES = 10


def dispersion(handle: ServiceHandle) -> float:
    return handle.quantile(0.9) / handle.quantile(0.5)


def rank(handle: ServiceHandle, load: float) -> float:
    return handle.cdf(load)


def slice_of(handle: ServiceHandle, load: float, slices: int = SLICES) -> int:
    return min(int(slices * handle.cdf(load)), slices - 1)


def report(loads: np.ndarray, label: str) -> None:
    config = Adam2Config(points=30, rounds_per_instance=25, selection="lcut")
    with serve(config, FixedPopulation(loads, name="load"), n_nodes=loads.size, seed=7) as handle:
        ratio = dispersion(handle)
        own_load = float(loads[0])
        own_rank = rank(handle, own_load)
        print(label)
        print(f"  estimated median load : {handle.quantile(0.5):8.1f}")
        print(f"  estimated p90 load    : {handle.quantile(0.9):8.1f}")
        print(f"  imbalance detected    : {'YES' if ratio > IMBALANCE_POLICY else 'no'} "
              f"(p90/p50 = {ratio:.2f})")
        print(f"  node 0: own load {own_load:.0f} -> rank {own_rank:.2f}, "
              f"slice {slice_of(handle, own_load)} of {SLICES} "
              f"({'overloaded' if own_rank > 0.9 else 'normal'})")
        print()


def main() -> None:
    loads = normal_workload(mean=100.0, std=15.0).sample(N_NODES, make_rng(7))
    print(f"Decentralised load monitoring over {N_NODES} nodes\n")
    report(loads, "Phase 1 — balanced system:")

    # Flash crowd: 20 % of nodes suddenly carry 10x load.
    crowded = loads.copy()
    crowded[: N_NODES // 5] *= 10.0
    report(crowded, "Phase 2 — after a flash crowd on 20% of nodes:")


if __name__ == "__main__":
    main()
