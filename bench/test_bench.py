"""Tests of the benchmark itself — run with ``pytest bench/`` (not tier-1).

They hold the harness to its contract: the printed result matches
``BENCHMARK.json`` name for name on every workload in both passes, the
oracle rejects a corrupted reply, inputs are a pure function of the
seed, and a dead or hung child fails the workload instead of blocking.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import cli, compare  # noqa: E402
from bench.queries import count_wrong, oracle_values, query_pool  # noqa: E402
from bench.refresh import estimates  # noqa: E402
from bench.serve import Server  # noqa: E402
from bench.spec import WORKLOADS, load_contract  # noqa: E402
from repro.core.config import Adam2Config  # noqa: E402
from repro.service import QueryEngine, QueryResponse, build_service  # noqa: E402
from repro.workloads import boinc_workload  # noqa: E402

CONTRACT = load_contract()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json itself
# ----------------------------------------------------------------------

def test_contract_shape_and_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert CONTRACT["paths"] == ["bench"]
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_declared_workload_has_parameters():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    metrics = {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(w in WORKLOADS and m in metrics for w, m in compare.NOT_GATED)


# ----------------------------------------------------------------------
# The printed result matches the contract, workload by workload
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_result_matches_contract(workload, trace):
    result = cli.run_workload(workload, seed=11, seconds=0.4, trace=trace)
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float)) and np.isfinite(entry["value"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    line = json.loads(cli.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())
    if "server_affinity" in result and len(os.sched_getaffinity(0)) >= 2:
        # server and generator each have a CPU of their own
        assert len(result["server_affinity"]) == len(result["generator_affinity"]) == 1
        assert result["server_affinity"] != result["generator_affinity"]
    if trace:
        measured = {name for name, entry in result["metrics"].items() if entry["samples"]}
        assert "obs.trace_overhead_pct" in measured
        assert result["spans"], "the traced pass writes its spans with the result"
    else:
        # end-to-end metrics are never 0 and every one carries samples
        assert all(entry["value"] > 0 and entry["samples"] >= 1
                   for entry in result["metrics"].values())


def test_every_per_layer_row_is_measured_by_some_workload():
    """A declared row no workload ever fills in would be dead weight."""
    measured: set[str] = set()
    for workload in WORKLOADS:
        result = cli.run_workload(workload, seed=12, seconds=0.4, trace=1)
        measured |= {name for name, entry in result["metrics"].items() if entry["samples"]}
    assert measured == {m["name"] for m in CONTRACT["per_layer"]}


# ----------------------------------------------------------------------
# Inputs and the oracle
# ----------------------------------------------------------------------

def test_generation_is_a_pure_function_of_the_seed():
    workload = boinc_workload("cpu_mflops")
    first, again, other = (query_pool(s, 64, workload) for s in (5, 5, 6))
    assert first == again and first != other
    assert [r.op for r in first[:4]] == ["cdf", "quantile", "fraction", "size"]
    a, b, c = (estimates(s, 3, workload, 500, 20) for s in (5, 5, 6))
    for x, y, z in zip(a, b, c):
        assert np.array_equal(x.fractions, y.fractions)
        assert not np.array_equal(x.thresholds, z.thresholds)


def test_oracle_rejects_a_corrupted_reply():
    workload = boinc_workload("cpu_mflops")
    handle = build_service(Adam2Config(points=20, rounds_per_instance=20), workload,
                           n_nodes=300, seed=3)
    pool = query_pool(3, 16, workload)
    expected = oracle_values(QueryEngine(handle.store, cache_size=0), pool)
    replies = [handle.engine.execute(request) for request in pool]
    keys = range(len(pool))
    assert count_wrong(expected, keys, replies) == 0
    corrupted = list(replies)
    corrupted[5] = QueryResponse.success(replies[5].value + 1e-9)
    assert count_wrong(expected, keys, corrupted) == 1
    corrupted[7] = QueryResponse.failure("unavailable", "nothing published")
    assert count_wrong(expected, keys, corrupted) == 2


# ----------------------------------------------------------------------
# Subprocess discipline
# ----------------------------------------------------------------------

def test_a_hung_workload_hits_the_hard_timeout():
    started = time.perf_counter()
    with pytest.raises(cli.WorkloadFailed, match="hard timeout"):
        cli.run_workload("sim_steady", seed=1, seconds=30.0, trace=0, timeout=1.0)
    assert time.perf_counter() - started < 10.0


def test_a_server_that_dies_in_setup_fails_loudly_not_silently():
    started = time.perf_counter()
    with pytest.raises(RuntimeError, match="server died"):
        Server("no_such_workload", seed=1, trace=False)
    assert time.perf_counter() - started < 30.0


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    import shutil
    import subprocess

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*CONTRACT["command"], "--workload", "sim_churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------

def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [103.0, 104.0, 102.0], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "higher", 0.10) == "worse"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, [115.0, 125.0, 105.0], "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [50.0, 55.0, 45.0], "lower", 0.10) == "ok"
    assert compare.verdict(noisy, [150.0, 155.0, 160.0], "lower", 0.10) == "worse"


def test_compare_rows_carry_base_and_bound():
    def document(value):
        return {"runs": [{
            "workload": "sim_churn", "params_hash": "h", "failed": 0,
            "metrics": {m["name"]: {"value": value} for m in CONTRACT["end_to_end"]},
        }]}
    rows = compare.compare(document(10.0), document(10.5), CONTRACT)
    assert len(rows) == len(CONTRACT["end_to_end"]) + 1
    row = rows[0]
    assert (row["workload"], row["base"], row["other"]) == ("sim_churn", 10.0, 10.5)
    assert row["bound"] == CONTRACT["end_to_end"][0]["bound"] and row["verdict"] == "ok"
    # pairs that repeat another row are shown, never judged
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(
        document(10.0), document(20.0), CONTRACT)}
    assert verdicts["cpu_us_per_unit"] == "reported" and verdicts["peak_rss_mb"] == "worse"
