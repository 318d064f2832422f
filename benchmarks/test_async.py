"""Bench: Adam2 under asynchrony and message loss (extension).

No figure in the paper corresponds to this — the paper's evaluation is
synchronous — but §VII-F's gossip-period discussion presumes the protocol
survives real clocks and latency.  This bench runs one instance on the
``async`` backend (the net node daemon on virtual time) across
latency/loss settings and asserts the headline property (error at the
interpolation points far below the interpolation error) holds.
"""

from repro.api import run
from repro.core import Adam2Config
from repro.workloads import boinc_workload


def _run_async(delay_range: tuple[float, float] | None, drop_rate: float):
    result = run(
        Adam2Config(points=20, rounds_per_instance=30),
        boinc_workload("ram"),
        backend="async",
        n_nodes=400,
        seed=5,
        gossip_period=1.0,
        delay_range=delay_range,
        drop_rate=drop_rate,
        transport_options={"request_timeout": 0.5},
    )
    return result.final.reached, result.final.errors_points.maximum


def test_async_latency_and_loss(benchmark):
    def run_all():
        return {
            "ideal": _run_async(None, 0.0),
            "wan": _run_async((0.02, 0.2), 0.0),
            "lossy": _run_async((0.02, 0.2), 0.2),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for label, (count, worst) in results.items():
        print(f"  {label:>6}: reached={count}  worst point error={worst:.2e}")
    for label, (count, worst) in results.items():
        assert count >= 395
        assert worst < 0.05, f"{label}: async convergence broke"
    assert results["ideal"][1] < 0.01
