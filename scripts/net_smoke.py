"""CI smoke test for the real-network runtime.

Runs one Adam2 aggregation instance on a localhost UDP cluster with
injected datagram loss, writes the JSONL observability trace, and fails
hard if the cluster does not converge within a wall-clock budget.

Usage::

    python scripts/net_smoke.py --nodes 16 --drop-rate 0.05 \
        --trace net_smoke_trace.jsonl --timeout 120
"""

from __future__ import annotations

import argparse
import json
import signal
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--drop-rate", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--gossip-period", type=float, default=0.02)
    parser.add_argument("--trace", default="net_smoke_trace.jsonl")
    parser.add_argument(
        "--timeout", type=int, default=120,
        help="hard wall-clock budget in seconds (SIGALRM; 0 disables)",
    )
    args = parser.parse_args(argv)

    if args.timeout > 0:
        # A wedged cluster must fail the job, not hang it until the
        # runner's own timeout reaps it without artifacts.
        def _expired(signum: int, frame: object) -> None:
            raise TimeoutError(f"net smoke exceeded {args.timeout}s budget")

        signal.signal(signal.SIGALRM, _expired)
        signal.alarm(args.timeout)

    from repro.api import run
    from repro.core.config import Adam2Config
    from repro.obs import JsonlSink, ObserverHub
    from repro.workloads.synthetic import uniform_workload

    config = Adam2Config(points=args.points, rounds_per_instance=args.rounds)
    hub = ObserverHub([JsonlSink(args.trace)], instrument=True)
    try:
        result = run(
            config,
            uniform_workload(0, 1000),
            backend="net",
            n_nodes=args.nodes,
            instances=1,
            seed=args.seed,
            hub=hub,
            gossip_period=args.gossip_period,
            sanitize=True,
            drop_rate=args.drop_rate,
        )
    finally:
        hub.close()
        signal.alarm(0)

    summary = result.instances[0]
    counters = result.extras["net_counters"]
    report = {
        "nodes": args.nodes,
        "drop_rate": args.drop_rate,
        "reached": summary.reached,
        "err_points_max": summary.errors_points.maximum,
        "err_entire_max": summary.errors_entire.maximum,
        "counters": counters,
    }
    print(json.dumps(report, indent=2, sort_keys=True))

    failures = []
    if summary.reached != args.nodes:
        failures.append(f"only {summary.reached}/{args.nodes} nodes finished")
    if args.drop_rate > 0 and counters["dropped"] == 0:
        failures.append("fault injector never dropped a datagram")
    if counters["decode_errors"] != 0:
        failures.append(f"{counters['decode_errors']} datagrams failed to decode")
    if counters["push_errors"] != 0:
        failures.append(f"{counters['push_errors']} pushes raised instead of completing")
    if summary.errors_points.maximum >= 0.2:
        failures.append(
            f"max CDF error {summary.errors_points.maximum:.4f} did not converge"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
