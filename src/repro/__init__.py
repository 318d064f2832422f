"""repro — a full reproduction of Adam2 (ICDCS 2010).

Adam2 is a decentralised, gossip-based protocol with which every node of a
large P2P system estimates the statistical distribution (CDF) of an
attribute across all nodes, refines that estimate over successive
aggregation instances, and assesses the accuracy of its own estimate.

Quickstart::

    import numpy as np
    from repro import Adam2Config, Adam2Simulation, boinc_ram_mb

    sim = Adam2Simulation(
        workload=boinc_ram_mb(),
        n_nodes=1_000,
        config=Adam2Config(points=50, selection="minmax"),
        seed=42,
    )
    result = sim.run_instances(3)
    print(result.final_errors)          # (Err_m, Err_a) vs ground truth
    print(result.estimate.evaluate([512, 1024, 2048]))

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured reproduction record.
"""

from repro.core import (
    Adam2Config,
    Adam2Node,
    EmpiricalCDF,
    EstimatedCDF,
    InterpolationSet,
)
from repro.fastsim import Adam2Simulation, FastInstanceResult, FastRunResult
from repro.metrics import cdf_errors, error_grid
from repro.types import ErrorPair
from repro.workloads import (
    boinc_bandwidth_kbps,
    boinc_cpu_mflops,
    boinc_disk_gb,
    boinc_ram_mb,
    boinc_workload,
)

__version__ = "1.0.0"

__all__ = [
    "Adam2Config",
    "Adam2Node",
    "Adam2Simulation",
    "FastInstanceResult",
    "FastRunResult",
    "EmpiricalCDF",
    "EstimatedCDF",
    "InterpolationSet",
    "ErrorPair",
    "cdf_errors",
    "error_grid",
    "boinc_cpu_mflops",
    "boinc_ram_mb",
    "boinc_bandwidth_kbps",
    "boinc_disk_gb",
    "boinc_workload",
    "__version__",
]
