#!/usr/bin/env python
"""Adam2 under deployment conditions: real clocks, latency, message loss.

The paper evaluates Adam2 in synchronous simulation rounds; a deployment
has none of that: every node gossips on its own drifting timer, messages
take tens to hundreds of milliseconds, and some are lost.  This example
runs one estimation campaign with ``backend="async"`` — the deployed
node daemon (wire codec, retrying transport, per-node jittered clocks)
on virtual time, so half a minute of gossip takes a second or two —
across network conditions, and shows the protocol's accuracy at the
interpolation points surviving all of them: the property that justifies
the paper's round-based evaluation.
"""

from repro.api import run
from repro.core import Adam2Config
from repro.workloads import boinc_workload

N_NODES = 500
SCENARIOS = [
    ("datacenter", (0.0005, 0.002), 0.0),
    ("WAN", (0.02, 0.2), 0.0),
    ("lossy WAN (20% loss)", (0.02, 0.2), 0.2),
]


def main() -> None:
    print(f"Adam2 on the node daemon, virtual time — {N_NODES} nodes, 1 s gossip period\n")
    print(
        f"{'scenario':>22}  {'reached':>7}  {'worst point err':>15}  {'size N^':>7}  "
        f"{'msgs':>6}  {'retries':>7}  {'dups':>5}"
    )
    for label, delay_range, drop_rate in SCENARIOS:
        result = run(
            Adam2Config(points=30, rounds_per_instance=30),
            boinc_workload("ram"),
            backend="async",
            n_nodes=N_NODES,
            seed=17,
            gossip_period=1.0,
            delay_range=delay_range,
            drop_rate=drop_rate,
            # a deployment waits longer than one WAN round trip to retry
            transport_options={"request_timeout": 0.5},
        )
        final = result.final
        counters = result.extras["net_counters"]
        size = result.estimate.system_size if result.estimate is not None else float("nan")
        print(
            f"{label:>22}  {final.reached:>7}  {final.errors_points.maximum:>15.2e}  "
            f"{size:>7.0f}  {final.messages:>6}  {counters['retries']:>7}  "
            f"{counters['duplicates_suppressed']:>5}"
        )
    print(
        "\nCDF accuracy survives every scenario; the size estimate does not"
        "\nquite.  The transport retries a push whose request or reply was"
        "\nlost, and the responder answers a retry from its reply cache"
        "\n(dups) without merging twice, so a lost reply does not duplicate"
        "\nweight mass outright.  But a slow exchange overlaps others: by the"
        "\ntime an initiator merges a late reply it has averaged with other"
        "\npeers, and the pair's two half-exchanges no longer conserve the"
        "\nweight.  The surplus makes N^ = 1/weight read low — slightly under"
        "\nWAN latency, by a fifth under 20% loss, where retries stretch"
        "\nexchanges past a gossip period."
    )


if __name__ == "__main__":
    main()
