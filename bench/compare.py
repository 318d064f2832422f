"""``python3 bench/compare.py A.json B.json``: is B worse than A?

Both files come from ``python3 -m bench run --repeat K --out FILE``.  One
row per (workload, end-to-end metric): both medians, the ratio with its
base, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``worse``       it is — the exit status is then 1;
* ``unresolved``  A's own run-to-run spread (interquartile distance over
  median) exceeds the bound, so the runs cannot tell — unless every run
  of B reads better than every run of A (``ok``) or every one worse
  (``worse``);
* ``reported``    the pair is in ``NOT_GATED``: the result line has to
  carry every end-to-end name on every workload, but on this workload
  the number repeats another row or is paced by a timer, so it is shown
  and never fails the comparison.

Also the tool for the run-to-run acceptance check: two files from the
same commit must come out with no ``worse`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: (workload, metric) pairs shown but not judged.  On the single-process
#: sims CPU per node-round and the round latency are the throughput row
#: again (same wall, same samples); a saturated ``net_cluster`` round is
#: 128 node-rounds of throughput; ``net_lossy`` wall is timer-paced, so
#: only its CPU cost says anything; ``serve_refresh`` is in-process, its
#: CPU is its wall.
NOT_GATED = {
    ("sim_steady", "cpu_us_per_unit"), ("sim_steady", "latency_ms_p50"),
    ("sim_steady", "latency_ms_tail"),
    ("sim_churn", "cpu_us_per_unit"), ("sim_churn", "latency_ms_p50"),
    ("sim_churn", "latency_ms_tail"),
    ("net_cluster", "latency_ms_p50"), ("net_cluster", "latency_ms_tail"),
    ("net_lossy", "throughput_per_s"), ("net_lossy", "latency_ms_p50"),
    ("net_lossy", "latency_ms_tail"),
    ("serve_refresh", "cpu_us_per_unit"),
}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base: list[float], other: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median, other_median = statistics.median(base), statistics.median(other)
    worse_by = sign * (other_median - base_median) / abs(base_median)
    if spread(base) > bound:
        if all(sign * o < sign * b for o in other for b in base):
            return "ok"
        if worse_by > bound and all(sign * o > sign * b for o in other for b in base):
            return "worse"
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def by_workload(document: dict) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for run in document["runs"]:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def compare(base_doc: dict, other_doc: dict, contract: dict) -> list[dict]:
    rows = []
    base_runs, other_runs = by_workload(base_doc), by_workload(other_doc)
    for workload in (entry["name"] for entry in contract["workloads"]):
        if workload not in base_runs or workload not in other_runs:
            continue
        if base_runs[workload][0]["params_hash"] != other_runs[workload][0]["params_hash"]:
            raise SystemExit(f"{workload}: parameter hashes differ; the runs measure different work")
        for metric in contract["end_to_end"]:
            name = metric["name"]
            base = [run["metrics"][name]["value"] for run in base_runs[workload]]
            other = [run["metrics"][name]["value"] for run in other_runs[workload]]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": statistics.median(base), "other": statistics.median(other),
                "base_spread": spread(base), "other_spread": spread(other),
                "bound": metric["bound"], "runs": (len(base), len(other)),
                "verdict": ("reported" if (workload, name) in NOT_GATED
                            else verdict(base, other, metric["better"], metric["bound"])),
            })
        failed = sum(run["failed"] for run in other_runs[workload])
        base_failed = sum(run["failed"] for run in base_runs[workload])
        rows.append({
            "workload": workload, "metric": "failed", "unit": "count",
            "base": base_failed, "other": failed, "base_spread": 0.0, "other_spread": 0.0,
            "bound": 0.0, "runs": (len(base_runs[workload]), len(other_runs[workload])),
            "verdict": "worse" if failed > base_failed else "ok",
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(CONTRACT, encoding="utf-8") as handle:
        contract = json.load(handle)
    rows = compare(documents[0], documents[1], contract)
    print(f"{'workload':14s} {'metric':18s} {'A median':>12s} {'B median':>12s} unit   "
          f"{'B/A':>7s}  {'IQR A':>6s} {'IQR B':>6s} {'bound':>6s}  verdict")
    for row in rows:
        ratio = row["other"] / row["base"] if row["base"] else float("nan")
        print(f"{row['workload']:14s} {row['metric']:18s} {row['base']:12.6g} "
              f"{row['other']:12.6g} {row['unit']:<6s} {ratio:7.3f}  "
              f"{row['base_spread']:6.1%} {row['other_spread']:6.1%} {row['bound']:6.0%}  "
              f"{row['verdict']}  (base A = {row['base']:.6g} {row['unit']}, "
              f"runs {row['runs'][0]}/{row['runs'][1]})")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    reported = sum(row["verdict"] == "reported" for row in rows)
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved, "
          f"{reported} reported only")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
