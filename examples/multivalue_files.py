#!/usr/bin/env python
"""Multiple attribute values per node: a file-size census (paper §IV).

Each node stores a set of files; the system estimates the distribution of
*file sizes across all files at all nodes* (not per-node aggregates).
Per the paper, each node feeds two quantities into the averaging
protocol: its count of files at or below each threshold, and its total
file count; the CDF value is the ratio of the two averages.  This runs
the node daemons of :mod:`repro.net` on virtual time: a
:class:`~repro.net.cluster.LocalCluster` takes one array of values per
node, and the shared ``InstanceState`` implements the multi-value
scheme natively.
"""

import numpy as np

from repro.core import Adam2Config, EmpiricalCDF
from repro.metrics import cdf_errors
from repro.net.cluster import LocalCluster
from repro.net.virtual import run_virtual
from repro.rngs import make_rng, spawn

N_NODES = 250


async def census(files: list[np.ndarray], config: Adam2Config, rng: np.random.Generator):
    """Run one instance over the per-node file sets; returns a node's estimate."""
    async with LocalCluster(files, config, rng) as cluster:
        await cluster.trigger_instance()
        # Jittered per-node clocks: a few extra periods let every node
        # tick its TTL out, as the ``async`` backend's instance loop does.
        await cluster.run_rounds(config.rounds_per_instance + cluster.drain_periods())
        await cluster.drain()
        return cluster.adam2_nodes()[0].current_estimate


def main() -> None:
    rng = make_rng(13)
    config = Adam2Config(points=30, rounds_per_instance=30, selection="lcut")

    # Give every node a random set of 1..20 log-normally sized files (kB).
    files = []
    for _ in range(N_NODES):
        n_files = int(rng.integers(1, 21))
        sizes = np.rint(rng.lognormal(mean=np.log(150.0), sigma=1.2, size=n_files))
        files.append(np.maximum(sizes, 1.0))

    estimate = run_virtual(census(files, config, spawn(rng)))

    all_files = np.concatenate(files)
    truth = EmpiricalCDF(all_files)
    errors = cdf_errors(truth, estimate)

    print(f"File-size census: {N_NODES} nodes, {all_files.size} files total")
    print(f"  Err_m = {errors.maximum:.4f}, Err_a = {errors.average:.6f}")
    print()
    print("  fraction of files with size <= x:")
    for x in (50, 150, 500, 2000):
        true = truth.evaluate(np.asarray([float(x)]))[0]
        est = estimate.evaluate(np.asarray([float(x)]))[0]
        print(f"    x = {x:>5} kB: estimated {est:.3f}  (true {true:.3f})")


if __name__ == "__main__":
    main()
