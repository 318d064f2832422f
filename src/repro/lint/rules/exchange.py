"""ADM004: exchange modes and mass-conservation declarations.

Paper invariant: push–pull exchanges replace both peers' averaged state
by the mean, conserving per-column mass — the property that makes
``f_i`` converge to ``F(t_i)`` and the weight column sum to exactly 1.
Modes that intentionally violate it (the paper's literal Fig. 1 join)
must be *declared* via :func:`repro.core.conservation.register_non_conserving`
in the module that branches on them, so the runtime sanitizer whitelists
them by declaration rather than by silent exemption.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import ModuleContext, Rule, attribute_chain
from repro.lint.violation import Violation

__all__ = ["ExchangeConservation"]

#: the one mode the symmetric-averaging proof covers; anything else
#: branched on by name needs an explicit registration
_CONSERVING_MODES = {"symmetric"}

_MODE_PARAMS = {"join_mode", "mode"}


def _registered_modes(tree: ast.Module) -> set[str]:
    """Mode strings registered via ``register_non_conserving("<mode>", ...)``."""
    modes: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = attribute_chain(node.func)
        if chain is None or chain[-1] != "register_non_conserving":
            continue
        if node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str):
                modes.add(value)
    return modes


def _compared_mode_strings(fn: ast.AST) -> Iterator[tuple[ast.Compare, str]]:
    """(compare-node, string) pairs where a mode parameter is compared."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names = [o.id for o in operands if isinstance(o, ast.Name)]
        if not any(name in _MODE_PARAMS for name in names):
            continue
        for operand in operands:
            if isinstance(operand, ast.Constant) and isinstance(operand.value, str):
                yield node, operand.value


class ExchangeConservation(Rule):
    """ADM004: every non-conserving exchange mode is registered.

    A function taking a ``join_mode``/``mode`` parameter may only compare
    it against ``"symmetric"`` or against mode strings the same module
    registers with ``register_non_conserving(...)``.
    """

    code = "ADM004"
    name = "exchange-conservation"
    hint = (
        "register non-conserving modes via "
        "repro.core.conservation.register_non_conserving"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        registered = _registered_modes(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_mode_branches(module, node, registered)

    def _check_mode_branches(
        self,
        module: ModuleContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        registered: set[str],
    ) -> Iterator[Violation]:
        param_names = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        if not param_names & _MODE_PARAMS:
            return
        for compare, mode in _compared_mode_strings(fn):
            if mode in _CONSERVING_MODES or mode in registered:
                continue
            yield self.violation(
                module, compare,
                f"exchange mode {mode!r} is branched on but never registered as "
                "non-mass-conserving in this module",
            )
