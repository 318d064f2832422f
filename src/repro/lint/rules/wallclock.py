"""ADM007: no wall-clock reads inside simulated-time logic.

Paper invariant: simulated time is rounds (:mod:`repro.fastsim`) or the
event loop's clock (the node daemons of :mod:`repro.net`, which
``backend="async"`` runs on :mod:`repro.net.virtual`'s jumping clock).
Reading the host's wall clock in the simulator, the protocol core or
the service couples their behaviour to machine speed and breaks
determinism and replay.  The packages listed in ``_EXEMPT_PACKAGES``
are drivers and tooling, or (``net``) the runtime whose protocol clock
is the loop's; they may read the host clock.
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
    """ADM007: ``time.time()``/``datetime.now()`` etc. outside the exempt packages."""

    code = "ADM007"
    name = "no-wall-clock"
    hint = (
        "use simulated rounds, or the event loop's clock (`loop.time()`, "
        "virtual under backend='async') instead of the host clock"
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
