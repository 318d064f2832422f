"""``python3 -m bench run``: every workload in its own subprocess, one result.

The driver form — ``run --workload NAME --seed N --seconds S --trace 0|1``
— prints each metric by name with unit and sample count and then, as
the last line of stdout, the one JSON object the contract asks for.
With several workloads (or ``--repeat``) it prints the table and writes
the full document (fingerprint, parameters, spans) to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from bench.measure import ROOT, host_fingerprint
from bench.spec import WORKLOADS, load_contract

#: a single workload run must end well inside the driver's 180 s limit
HARD_TIMEOUT_S = 170.0

#: glibc allocator policy for every measured process: keep freed memory
#: in the heap instead of handing it back to the kernel.  On a VM with
#: free-page reporting, memory a process returns is dropped by the host
#: within ~2 s and costs a host page fault per page when touched again,
#: which showed as +0.3 s of system time on every third 100k-node
#: instance (10% run-to-run spread).  Recorded in the fingerprint.
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


class WorkloadFailed(RuntimeError):
    """The workload's subprocess died, hung, or printed no result."""


def run_workload(
    name: str, seed: int, seconds: float, trace: int, timeout: float = HARD_TIMEOUT_S
) -> dict[str, object]:
    """Run one workload in a fresh subprocess (own session, hard timeout)."""
    command = [
        sys.executable, "-m", "bench.child", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    # Own session: on a hang the whole tree (a serve workload's server
    # included) is killed through the process group, so it can neither
    # eat the time budget nor outlive the benchmark.
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
        env={**os.environ, **MALLOC_ENV},
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkloadFailed(f"workload {name} exceeded its {timeout:.0f} s hard timeout") from None
    finally:
        if child.returncode != 0:  # hung or died: take its whole tree down
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
    if child.returncode != 0:
        raise WorkloadFailed(
            f"workload {name} exited with status {child.returncode} (traceback above)"
        )
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkloadFailed(f"workload {name} printed no result") from None


def print_result(result: dict[str, object]) -> None:
    verdict = "correct" if result["correct"] else "WRONG"
    print(f"{result['workload']}  seed={result['seed']}  {verdict}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for note in result["notes"]:
        print(f"  ! {note}")
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']:<6s} n={metric['samples']}")


def contract_line(result: dict[str, object]) -> str:
    """The driver's result object: exactly correct/attempted/failed/metrics."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    })


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                     help="measured time per run (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                     help="1: traced pass (per-layer metrics); 0: end-to-end metrics")
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload, on seeds seed, seed+1, ... (for compare.py)")
    run.add_argument("--out", help="write the full result document here")
    args = parser.parse_args(argv)

    names = args.workload or [entry["name"] for entry in contract["workloads"]]
    runs: list[dict[str, object]] = []
    try:
        for name in names:
            for repeat in range(args.repeat):
                result = run_workload(name, args.seed + repeat, args.seconds, args.trace)
                print_result(result)
                runs.append(result)
    except WorkloadFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"fingerprint": {**host_fingerprint(), "malloc_env": MALLOC_ENV},
                       "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace, "runs": runs}, handle)
        print(f"wrote {args.out}")
    if len(runs) == 1:
        print(contract_line(runs[0]))
    return 0
