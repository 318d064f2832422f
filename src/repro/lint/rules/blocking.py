"""ADM010: no blocking calls inside ``async def`` bodies.

Paper invariant (serving scalability): the TCP query endpoint and the
node daemons multiplex every client and every peer over one asyncio
loop.  A single ``time.sleep``, synchronous file read, or subprocess
call on that loop stalls *every* connection for its duration — the exact
mechanism behind an early service benchmark's concurrency cliff (10.4k
qps at one client collapsing to 1.0k at sixteen).  Blocking work belongs
in an executor (``loop.run_in_executor`` / ``asyncio.to_thread``) or
behind the async APIs (``asyncio.sleep``, streams).

Flagged inside any ``async def`` (own scope only — nested synchronous
``def``s are commonly shipped *to* executors, so they are not the loop's
problem):

* ``time.sleep(...)`` — the canonical loop stall;
* subprocess spawns (``subprocess.run/call/check_*/Popen``,
  ``os.system``, ``os.popen``);
* synchronous socket/DNS work (``socket.create_connection``,
  ``socket.getaddrinfo``, ``socket.socket``, ``urllib.request.urlopen``);
* synchronous file I/O: builtin ``open()``, ``input()``, and the
  ``Path.read_text/read_bytes/write_text/write_bytes`` family.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import ModuleContext, Rule, attribute_chain
from repro.lint.violation import Violation

__all__ = ["BlockingInAsync"]

#: (chain-suffix) module-level calls that block the loop
_BLOCKING_SUFFIXES = {
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("subprocess", "getoutput"),
    ("subprocess", "getstatusoutput"),
    ("os", "system"),
    ("os", "popen"),
    ("socket", "create_connection"),
    ("socket", "getaddrinfo"),
    ("socket", "gethostbyname"),
    ("socket", "socket"),
    ("request", "urlopen"),
}

#: bare-name builtins that block the loop
_BLOCKING_BUILTINS = {"open", "input"}

#: path-object methods that hit the filesystem synchronously
_BLOCKING_METHODS = {"read_text", "read_bytes", "write_text", "write_bytes"}


class BlockingInAsync(Rule):
    """ADM010: ``time.sleep``/sync IO/subprocess on the event loop."""

    code = "ADM010"
    name = "blocking-in-async"
    hint = (
        "use the async API (asyncio.sleep, streams) or move the call off "
        "the loop via loop.run_in_executor / asyncio.to_thread"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(module, node)

    def _check_async_body(
        self, module: ModuleContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        for node in _own_scope_walk(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None:
                continue
            described = self._blocking_call(chain)
            if described is not None:
                yield self.violation(
                    module, node,
                    f"blocking call {described} inside async def {fn.name}() "
                    "stalls the event loop",
                )

    @staticmethod
    def _blocking_call(chain: list[str]) -> str | None:
        if len(chain) == 1 and chain[0] in _BLOCKING_BUILTINS:
            return f"{chain[0]}()"
        if len(chain) >= 2:
            if (chain[-2], chain[-1]) in _BLOCKING_SUFFIXES:
                return f"{'.'.join(chain)}()"
            if chain[-1] in _BLOCKING_METHODS:
                return f"{'.'.join(chain)}()"
        return None


def _own_scope_walk(fn: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk the async body without descending into nested function defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
