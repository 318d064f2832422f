"""No silent event-loop errors in ``tests/net``.

Callback-driven code — gossip timers, retry timers, done-callbacks —
has no task to carry an exception to an awaiting caller.  Whatever
escapes a callback, a future whose exception nobody retrieved and a
task destroyed while still pending all end up in the loop's
``call_exception_handler``: a log line, and otherwise a passing test.
The autouse fixture below records every such call, on any loop in the
process (``asyncio.run`` loops, the backend's own, server threads), and
fails the test that made it.  A test that provokes handler calls on
purpose carries ``@pytest.mark.loop_errors`` and asserts on the
``loop_errors`` fixture itself.
"""

from __future__ import annotations

import asyncio
import gc
from typing import Any, Iterator

import pytest


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "loop_errors: the test provokes event-loop exception-handler calls "
        "on purpose and asserts them through the loop_errors fixture",
    )


def _describe(context: dict[str, Any]) -> str:
    exc = context.get("exception")
    message = str(context.get("message", "?"))
    return message if exc is None else f"{message}: {exc!r}"


@pytest.fixture(autouse=True)
def loop_errors(
    request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch
) -> Iterator[list[dict[str, Any]]]:
    """Every exception-handler context a loop saw during the test."""
    seen: list[dict[str, Any]] = []
    expected = request.node.get_closest_marker("loop_errors") is not None
    original = asyncio.BaseEventLoop.call_exception_handler

    def record(loop: asyncio.BaseEventLoop, context: dict[str, Any]) -> None:
        seen.append(context)
        if not expected:
            original(loop, context)  # keep the traceback in the captured log

    monkeypatch.setattr(asyncio.BaseEventLoop, "call_exception_handler", record)
    # Unretrieved futures and pending tasks report from their finalisers,
    # so the test's garbage is collected before the verdict.  Freezing
    # what exists beforehand keeps that collection to the test's objects.
    gc.freeze()
    yield seen
    gc.collect()
    gc.unfreeze()
    if seen and not expected:
        pytest.fail(
            f"{len(seen)} error(s) reached an event loop's exception handler: "
            + "; ".join(_describe(context) for context in seen),
            pytrace=False,
        )
