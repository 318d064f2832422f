"""One workload, one fresh process: ``python3 -m bench.child --workload NAME ...``.

Started by :mod:`bench.cli` (never by hand) so that peak RSS, caches
and import state belong to this workload alone.  Prints the result
document as the last line of stdout and exits 0; any exception is a
non-zero exit with the traceback on stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from bench.measure import ROOT, params_hash
from bench.spec import FAMILIES, WORKLOADS, Outcome, load_contract


def result_document(name: str, outcome: Outcome, trace: bool) -> dict[str, object]:
    """Shape one outcome to the contract: exactly the declared metric names."""
    contract = load_contract()
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    stray = sorted(set(outcome.metrics) - set(units))
    if stray:
        raise SystemExit(f"{name} produced metrics BENCHMARK.json does not declare: {stray}")
    if not trace:
        missing = sorted(set(units) - set(outcome.metrics))
        if missing:
            raise SystemExit(f"{name} did not produce end-to-end metrics {missing}")
    metrics = {}
    for metric, unit in units.items():
        # A per-layer row whose layer is not on this workload's path did
        # no work here: count 0, busy time 0, zero samples.
        value, samples = outcome.metrics.get(metric, (0.0, 0))
        metrics[metric] = {"value": value, "unit": unit, "samples": samples}
    return {
        "workload": name,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "notes": outcome.notes,
        "params": WORKLOADS[name],
        "params_hash": params_hash(WORKLOADS[name]),
        "affinity": sorted(os.sched_getaffinity(0)),
        **outcome.extra,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"bench: no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    params = WORKLOADS[args.workload]
    module = importlib.import_module(FAMILIES[str(params["family"])])
    outcome = module.run(params, args.seed, args.seconds, bool(args.trace))
    document = result_document(args.workload, outcome, bool(args.trace))
    document["seed"] = args.seed
    document["seconds"] = args.seconds
    document["trace"] = args.trace
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
