"""The repo's benchmark: seven named workloads measured from outside.

``python3 -m bench run --workload NAME --seed S --seconds T --trace 0|1``
runs one workload in a fresh subprocess and prints its metrics; see
``bench/README.md`` for what each workload, metric and bound means and
``BENCHMARK.json`` (repo root) for the contract the names come from.
"""
