"""ADM007: no wall-clock reads inside simulation/round logic.

Paper invariant: the simulators model time as rounds (synchronous
engines) or as the event loop's clock (the node daemons, which
``backend="async"`` runs on :mod:`repro.net.virtual`'s jumping clock).  Reading the host's
wall clock inside that logic couples simulated behaviour to real
machine speed, destroying determinism and replayability.  Experiment
drivers (``repro.experiments``) may time themselves; the simulation
substrates may not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import ModuleContext, Rule, attribute_chain
from repro.lint.violation import Violation

__all__ = ["NoWallClock"]

#: (root-chain suffix) calls that read the host clock
_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
    ("time", "time_ns"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: top-level ``repro`` subpackages exempt from the rule (drivers and
#: offline tooling, not simulated time; ``obs`` measures host wall time
#: by design — its spans profile the simulator, never steer it; ``net``
#: is the real-network runtime, where wall time IS the protocol clock)
_EXEMPT_PACKAGES = {"experiments", "analysis", "lint", "obs", "net"}


def _is_exempt(module: ModuleContext) -> bool:
    parts = module.module_name.split(".")
    return len(parts) >= 2 and parts[0] == "repro" and parts[1] in _EXEMPT_PACKAGES


class NoWallClock(Rule):
    """ADM007: ``time.time()``/``datetime.now()`` etc. in simulation code."""

    code = "ADM007"
    name = "no-wall-clock"
    hint = (
        "use engine rounds, or the event loop's clock (`loop.time()`, virtual "
        "under backend='async') instead of the host clock"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        if _is_exempt(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None or len(chain) < 2:
                continue
            if (chain[-2], chain[-1]) in _CLOCK_CALLS:
                yield self.violation(
                    module, node,
                    f"wall-clock read {'.'.join(chain)}() inside simulation logic",
                )
