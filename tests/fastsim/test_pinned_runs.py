"""Seeded fast-simulator runs, pinned to what they have always produced.

``EXPECTED`` was recorded from the simulator *before* the steady-state
matching round started keeping the state in pair order (row ``i`` no
longer node ``i`` between rounds): error pairs and the sharded consensus
estimate as exact floats; per-node arrays, convergence traces and the
``RoundSample`` stream as sha256 digests.  Every configuration reaches the
all-joined steady state, so each one reads state rows after pair-order
rounds — through result assembly, ``track=``, ``confidence_sample=``,
the round probes, or the shard worker's cross-shard exchange and
finish step.  Regenerate (only on a deliberate behaviour change) with::

    PYTHONPATH=src python -m tests.fastsim.test_pinned_runs
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np
import pytest

from repro.core.config import Adam2Config
from repro.fastsim.adam2 import Adam2Simulation, FastInstanceResult
from repro.fastsim.shard import ShardedAdam2
from repro.obs import MemorySink, ObserverHub
from repro.workloads.dynamic import DriftModel
from repro.workloads.synthetic import uniform_workload

CONFIG = Adam2Config(points=8, rounds_per_instance=24, verification_points=3)


def _sha(item: Any) -> str:
    """Digest of an array's bytes, or of anything else's JSON."""
    if isinstance(item, np.ndarray):
        data = np.ascontiguousarray(item).tobytes()
    else:
        data = json.dumps(item).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _instance(result: FastInstanceResult) -> dict[str, Any]:
    record: dict[str, Any] = {
        "errors": [*result.errors_entire, *result.errors_points],
        "arrays": [
            _sha(a) for a in (
                result.fractions, result.v_fractions, result.weights,
                result.minimum, result.maximum, result.joined, result.participants,
            )
        ],
    }
    if result.trace is not None:
        record["trace"] = _sha(vars(result.trace))
    if result.confidence_sample is not None:
        record["confidence"] = [
            _sha(a) for a in (
                result.confidence_sample, result.est_errm, result.est_erra,
                result.true_errm, result.true_erra,
            )
        ]
    return record


def simulated(name: str) -> list[Any]:
    """Two instances of one single-process configuration."""
    sink = MemorySink()
    options: dict[str, Any] = {"churn_rate": 0.003} if name == "churn" else {}
    run: dict[str, Any] = {
        "track": {"track": True, "confidence_sample": 40},
        "drift": {"drift": DriftModel(growth_per_round=0.02, shift_per_round=1.0)},
    }.get(name, {})
    sim = Adam2Simulation(
        uniform_workload(0, 1000), 1001, CONFIG, seed=3, exchange="matching",
        obs=ObserverHub([sink]) if name == "rounds" else None, **options,
    )
    records = [_instance(sim.run_instance(**run)) for _ in range(2)]
    if name == "rounds":
        records.append(_sha([event.to_dict() for event in sink.rounds]))
    return records


def sharded(dtype: str) -> list[Any]:
    """Two instances of a ``shards=2`` run: consensus estimate and errors."""
    with ShardedAdam2(
        uniform_workload(0, 1000), 2001, CONFIG, seed=4, shards=2, dtype=dtype
    ) as sim:
        return [
            {
                "fractions": result.estimate.fractions.tolist(),
                "minimum": result.estimate.minimum,
                "maximum": result.estimate.maximum,
                "system_size": result.estimate.system_size,
                "errors": [*result.errors_entire, *result.errors_points],
            }
            for result in sim.run_instances(2).instances
        ]


def record() -> dict[str, Any]:
    return {
        **{name: simulated(name) for name in ("track", "churn", "drift", "rounds")},
        **{f"shards2-{dtype}": sharded(dtype) for dtype in ("float64", "float32")},
    }


EXPECTED = json.loads(r"""
{
 "track": [
  {
   "errors": [
    0.02744337042403927,
    0.00400322450355331,
    0.010811084276669991,
    0.00197013116190319
   ],
   "arrays": [
    "eff2ce95d0e470e9",
    "a389b3918a1b8c11",
    "056b8a194a94c9b9",
    "6ef7cad281b0f497",
    "0e00c3f7e05068b9",
    "0f8191f0b7f4d878",
    "0f8191f0b7f4d878"
   ],
   "trace": "0ec9ea819ff28d4f",
   "confidence": [
    "398b54ef55fc37ef",
    "3c835c125c011632",
    "6342f9d0edc9e2bf",
    "5ec504ed721c3478",
    "b6ae5ad295be42fe"
   ]
  },
  {
   "errors": [
    0.031102240377431756,
    0.004435780974773881,
    0.009620697943718892,
    0.0015744986731489538
   ],
   "arrays": [
    "a8cf5281e9c88032",
    "edae927d62d0d8b2",
    "23abd52154d3212a",
    "6ef7cad281b0f497",
    "0e00c3f7e05068b9",
    "0f8191f0b7f4d878",
    "0f8191f0b7f4d878"
   ],
   "trace": "de0fd43dc2ac5e80",
   "confidence": [
    "fbde9c6848c3e6bc",
    "4bc12abc0a63528f",
    "c90da6dacd40eb1a",
    "2405df035adebbb9",
    "5b8ea94ebb6f3c0a"
   ]
  }
 ],
 "churn": [
  {
   "errors": [
    0.02737790933073503,
    0.004539341893048982,
    0.02392867371276186,
    0.0035820814689751616
   ],
   "arrays": [
    "ae6a7f4864db762f",
    "bfed7fc0963b9428",
    "d22b5b1a054e9659",
    "c1262040a1bc4ea4",
    "41b6ccfcc97cf244",
    "e9415ee22f594fa7",
    "e9415ee22f594fa7"
   ]
  },
  {
   "errors": [
    0.03487736489187698,
    0.00497593775782131,
    0.024799731823352433,
    0.0024401266437928896
   ],
   "arrays": [
    "db13ed4b81c802e6",
    "6d66bd4136feb5cf",
    "f91610d3781c1250",
    "0ba213b531e409bf",
    "7a76184acc486eeb",
    "7c0042cde164c298",
    "7c0042cde164c298"
   ]
  }
 ],
 "drift": [
  {
   "errors": [
    0.2246492431717757,
    0.12995060842385076,
    0.20556564502544572,
    0.119005994005994
   ],
   "arrays": [
    "9b4c2d72fd5b1922",
    "71a565a691857d74",
    "056b8a194a94c9b9",
    "4d15e06d741a9bc9",
    "0a3e056fc70cdaca",
    "0f8191f0b7f4d878",
    "0f8191f0b7f4d878"
   ]
  },
  {
   "errors": [
    0.22228073187257014,
    0.12626793885788845,
    0.2022295431657271,
    0.08803696303696304
   ],
   "arrays": [
    "cdf2320e658c2b19",
    "cf623e98d53298df",
    "23abd52154d3212a",
    "c708ee72b37ef00a",
    "a588dd91ca52c13f",
    "0f8191f0b7f4d878",
    "0f8191f0b7f4d878"
   ]
  }
 ],
 "rounds": [
  {
   "errors": [
    0.027364456211793675,
    0.003954942617813461,
    0.010811084276669991,
    0.00197013116190319
   ],
   "arrays": [
    "eff2ce95d0e470e9",
    "a389b3918a1b8c11",
    "056b8a194a94c9b9",
    "6ef7cad281b0f497",
    "0e00c3f7e05068b9",
    "0f8191f0b7f4d878",
    "0f8191f0b7f4d878"
   ]
  },
  {
   "errors": [
    0.027704629269275027,
    0.004237740559448781,
    0.009620697943718892,
    0.0015744986731489538
   ],
   "arrays": [
    "a8cf5281e9c88032",
    "edae927d62d0d8b2",
    "23abd52154d3212a",
    "6ef7cad281b0f497",
    "0e00c3f7e05068b9",
    "0f8191f0b7f4d878",
    "0f8191f0b7f4d878"
   ]
  },
  "d12fa84ae03e248f"
 ],
 "shards2-float64": [
  {
   "fractions": [
    0.18290854572713644,
    0.32233883058470764,
    0.42028985507246375,
    0.5107446276861569,
    0.5677161419290355,
    0.7421289355322339,
    0.8675662168915542,
    0.9485257371314343
   ],
   "minimum": 1.0,
   "maximum": 999.0,
   "system_size": 2001.0,
   "errors": [
    0.01285092329198051,
    0.002338826896452248,
    0.010567344623690356,
    0.0021919230558263324
   ]
  },
  {
   "fractions": [
    0.0004997501249375312,
    0.18290854572713644,
    0.32233883058470764,
    0.42028985507246375,
    0.5677161419290355,
    0.7421289355322339,
    0.8675662168915542,
    1.0
   ],
   "minimum": 1.0,
   "maximum": 999.0,
   "system_size": 2001.0,
   "errors": [
    0.014896414588380591,
    0.002543862169018995,
    0.01111485634506948,
    0.001800158241518108
   ]
  }
 ],
 "shards2-float32": [
  {
   "fractions": [
    0.18290854605479814,
    0.3223388305400265,
    0.4202898552809758,
    0.5107446271499833,
    0.5677161425843589,
    0.742128935472659,
    0.8675662143000479,
    0.9485257343909909
   ],
   "minimum": 1.0,
   "maximum": 999.0,
   "system_size": 2000.9999948751647,
   "errors": [
    0.012850908712114084,
    0.0023388273003085804,
    0.010567348072494265,
    0.0021919233179721583
   ]
  },
  {
   "fractions": [
    0.0004997501249375312,
    0.18290854516117527,
    0.32233883112088135,
    0.4202898555192752,
    0.5677161405290263,
    0.7421289351152098,
    0.8675662155809074,
    1.0
   ],
   "minimum": 1.0,
   "maximum": 999.0,
   "system_size": 2000.9999960399,
   "errors": [
    0.014896402502292239,
    0.0025438623762141944,
    0.011114876339401003,
    0.0018001582372231203
   ]
  }
 ]
}
""")


@pytest.mark.parametrize("name", ["track", "churn", "drift", "rounds"])
def test_single_process_run_is_unchanged(name):
    assert json.loads(json.dumps(simulated(name))) == EXPECTED[name]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_sharded_run_is_unchanged(dtype):
    assert json.loads(json.dumps(sharded(dtype))) == EXPECTED[f"shards2-{dtype}"]


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
