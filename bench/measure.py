"""Measurement primitives shared by every workload.

Sample statistics, in-memory spans (wall and CPU per span, with parent
and trace id), process CPU / RSS readings, the host fingerprint and the
parameter hash.  ``repro`` is imported only inside the two helpers that
need it (the span adapter and the RSS reading), so the parent CLI can
import this module where ``src/`` is not on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def median(samples: Sequence[float]) -> float:
    return float(np.median(np.asarray(samples, dtype=float)))


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie beyond the ``q``-th percentile (the tail's support)."""
    return int(len(samples) * (100.0 - q) / 100.0)


def peak_rss_mb() -> float:
    """Largest resident set of any process in this process's tree (MiB).

    ``ru_maxrss`` is per process, so the tree's figure is the larger of
    this process and its (already waited-for) children.  The networked
    serve workloads report their server's :func:`own_peak_rss_mb` instead.
    """
    from repro.obs import peak_rss_bytes

    return peak_rss_bytes() / 2**20


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

@dataclass
class Span:
    name: str
    trace_id: int | None
    parent: int | None
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Spans kept in memory: name, start, end, parent, one id per unit of work.

    ``trace_id`` is set by the workload before each instance / request;
    every span opened until it changes carries it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.trace_id, parent, time.perf_counter(),
                    cpu_start=time.process_time())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu_end = time.process_time()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def wall(self, name: str) -> list[float]:
        return [span.wall for span in self.named(name)]

    def clear(self) -> None:
        self.spans.clear()

    def export(self, limit: int = 2000) -> list[dict[str, object]]:
        return [
            {"name": s.name, "id": s.trace_id, "parent": s.parent,
             "start": s.start, "end": s.end}
            for s in self.spans[:limit]
        ]


def hub_spans(tracer: Tracer):  # -> repro.obs.SpanRegistry
    """A ``SpanRegistry`` that records every hub span into ``tracer``.

    Passed as ``ObserverHub(instrument=True, spans=...)`` so the repo's
    existing ``run / instance / round`` span sites become tracer spans
    with per-sample durations (the stock registry keeps aggregates only).
    """
    from repro.obs import SpanRegistry

    class _TracerSpans(SpanRegistry):
        @contextmanager
        def span(self, name: str) -> Iterator[None]:
            with tracer.span(name):
                yield

    return _TracerSpans()


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def params_hash(params: dict[str, object]) -> str:
    """Stable hash of a workload's full parameter dict.

    Same recipe as ``repro.obs.profile.config_fingerprint``: sha256 of
    the sort-keyed JSON, first 16 hex digits.  Two results are
    comparable iff their hashes match.
    """
    digest = hashlib.sha256(json.dumps(params, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_fingerprint() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": _git_commit(),
    }


def split_cpus() -> tuple[int | None, int | None]:
    """(server CPU, generator CPU): the first two CPUs this process may run on.

    ``(None, None)`` — no pinning — on a single-CPU host.  Read **before**
    the generator pins itself: a subprocess inherits the pinned mask, so
    the server is told its CPU by number instead of reading the mask.
    """
    available = sorted(os.sched_getaffinity(0))
    return (available[0], available[1]) if len(available) >= 2 else (None, None)


def pin_to_cpu(cpu: int | None) -> list[int]:
    """Pin this process to ``cpu`` (``None``: leave it be); returns the affinity in force."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    return sorted(os.sched_getaffinity(0))


def own_peak_rss_mb() -> float:
    """This process's own high-water RSS since its ``exec`` (``VmHWM``, MiB).

    Not ``ru_maxrss``: across ``vfork`` + ``exec`` that figure starts at
    the *spawning* process's peak, so a server started by a larger load
    generator would report the generator's memory as its own.
    """
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")
