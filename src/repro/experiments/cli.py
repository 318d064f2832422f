"""Command-line entry point: ``adam2-experiments <id> [options]``.

Examples::

    adam2-experiments --list
    adam2-experiments fig07
    adam2-experiments fig07 --nodes 3000 --seed 7
    adam2-experiments fig07 --backend async --trace fig07.jsonl
    adam2-experiments fig05 --metrics-out fig05_metrics.json
    REPRO_SCALE=quick adam2-experiments all
    adam2-experiments serve --nodes 2000 --port 9309 --refresh 5
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from repro.analysis.report import format_table
from repro.api import list_backends
from repro.errors import ConfigurationError
from repro.experiments.registry import get_experiment, list_experiments

__all__ = ["main"]

#: Experiment size knobs recognised for the ``--nodes`` override.
_SIZE_PARAMS = ("n_nodes", "population")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adam2-experiments",
        description="Reproduce the Adam2 paper's figures and tables.",
    )
    parser.add_argument("experiment", nargs="?", help="experiment id (e.g. fig07) or 'all'")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument("--nodes", type=int, default=None, help="override system size")
    parser.add_argument("--points", type=int, default=None, help="override interpolation point count")
    parser.add_argument("--seed", type=int, default=None, help="experiment seed")
    parser.add_argument(
        "--backend",
        choices=list_backends(),
        default=None,
        help="simulation backend for backend-agnostic experiments "
        "(experiments that need fast-only features keep the fast backend; "
        "'net' runs a real-socket localhost cluster — small sizes only)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="append a JSONL event trace (runs, instances, per-round probes) to PATH",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the aggregated metrics/span snapshot as JSON to PATH",
    )
    return parser


def _override_params(name: str, args: argparse.Namespace) -> dict[str, int]:
    """Map CLI overrides onto the runner's signature, or fail loudly.

    A silently dropped ``--nodes`` is worse than an error: the user reads
    results for a system size they did not ask for.
    """
    runner = get_experiment(name)
    signature = inspect.signature(runner)
    params: dict[str, int] = {}
    if args.seed is not None:
        if "seed" not in signature.parameters:
            raise ConfigurationError(f"experiment {name!r} does not accept --seed")
        params["seed"] = args.seed
    if args.points is not None:
        if "points" not in signature.parameters:
            raise ConfigurationError(f"experiment {name!r} does not accept --points")
        params["points"] = args.points
    if args.nodes is not None:
        for knob in _SIZE_PARAMS:
            if knob in signature.parameters:
                params[knob] = args.nodes
                break
        else:
            raise ConfigurationError(
                f"experiment {name!r} has no system-size parameter; --nodes does not apply"
            )
    return params


def _run_one(name: str, args: argparse.Namespace) -> None:
    runner = get_experiment(name)
    params = _override_params(name, args)
    started = time.time()
    result = runner(**params)
    print(format_table(result))
    print(f"[{name} finished in {time.time() - started:.1f}s]\n")


def _run_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.common import run_context
    from repro.obs import JsonlSink, ObserverHub, RunObserver

    observers: list[RunObserver] = []
    if args.trace is not None:
        observers.append(JsonlSink(args.trace))
    if args.metrics_out is not None and not observers:
        # Probes only fire with at least one observer attached; a silent
        # base observer turns them on so the metrics registry fills up.
        observers.append(RunObserver())
    hub = None
    if observers or args.metrics_out is not None:
        hub = ObserverHub(observers, instrument=args.metrics_out is not None)

    names = list_experiments() if args.experiment == "all" else [args.experiment]
    # Validate every override up front so 'all' fails before hours of work.
    for name in names:
        _override_params(name, args)
    try:
        with run_context(hub=hub, backend=args.backend):
            for name in names:
                _run_one(name, args)
    finally:
        if hub is not None:
            if args.metrics_out is not None:
                with open(args.metrics_out, "w", encoding="utf-8") as handle:
                    json.dump(hub.snapshot(), handle, indent=2, sort_keys=True)
                    handle.write("\n")
            hub.close()
    return 0


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adam2-experiments serve",
        description="Run the continuous estimation service with a TCP "
        "query endpoint (JSON lines; see repro.net.service_endpoint).",
    )
    parser.add_argument("--backend", choices=list_backends(), default="fast")
    parser.add_argument("--nodes", type=int, default=1000, help="population size")
    parser.add_argument("--points", type=int, default=30, help="interpolation points")
    parser.add_argument("--rounds", type=int, default=30, help="rounds per instance")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9309, help="0 picks an ephemeral port")
    parser.add_argument("--refresh", type=float, default=5.0, metavar="SECONDS",
                        help="pause between scheduler cycles")
    parser.add_argument("--cycles", type=int, default=None,
                        help="stop after this many refresh cycles (default: serve forever)")
    parser.add_argument("--workers", type=int, default=1,
                        help="serving workers; >1 serves from an SO_REUSEPORT "
                        "worker-process pool fed by store snapshots "
                        "(one loop where the kernel lacks support)")
    parser.add_argument("--store-dir", metavar="DIR", default=None,
                        help="durable snapshot-log directory; a restarted "
                        "service recovers its history from here and serves "
                        "the last published estimate instantly")
    parser.add_argument("--fsync", choices=("always", "rotate", "never"),
                        default="rotate",
                        help="snapshot-log durability policy (with --store-dir)")
    parser.add_argument("--http-port", type=int, default=None, metavar="PORT",
                        help="also expose the read-only HTTP status surface "
                        "(/status /estimate /history /metrics) on this port "
                        "(0 picks an ephemeral port)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="append a JSONL query/run event trace to PATH")
    return parser


def _run_serve(argv: list[str]) -> int:
    from repro.api import serve
    from repro.core.config import Adam2Config
    from repro.net.service_endpoint import serve_blocking
    from repro.obs import JsonlSink, ObserverHub, RunObserver
    from repro.workloads import boinc_workload

    args = _build_serve_parser().parse_args(argv)
    observers: list[RunObserver] = [JsonlSink(args.trace)] if args.trace else []
    hub = ObserverHub(observers)
    handle = serve(
        Adam2Config(points=args.points, rounds_per_instance=args.rounds),
        boinc_workload("ram"),
        backend=args.backend,
        n_nodes=args.nodes,
        seed=args.seed,
        hub=hub,
        store_dir=args.store_dir,
        fsync=args.fsync,
    )
    try:
        serve_blocking(
            handle,
            host=args.host,
            port=args.port,
            refresh_every=args.refresh,
            max_cycles=args.cycles,
            workers=args.workers,
            http_port=args.http_port,
        )
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        hub.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        # The service subcommand keeps its own parser; the flat
        # experiment interface below is untouched.
        if argv and argv[0] == "serve":
            return _run_serve(argv[1:])
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.list or not args.experiment:
            print("available experiments:")
            for name in list_experiments():
                print(f"  {name}")
            return 0
        return _run_experiments(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
