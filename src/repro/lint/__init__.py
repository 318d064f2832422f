"""Protocol-invariant tooling: static AST linter + runtime sanitizer.

Two layers of machine-checked enforcement of the invariants Adam2's
correctness rests on (see DESIGN.md, "Static analysis & sanitizer"):

* :mod:`repro.lint.engine` — the ``adam2-lint`` AST linter with the
  protocol-specific rules ``ADM001``–``ADM013``: per-file pattern rules
  (``ADM001``–``ADM008``) plus the project-wide concurrency/determinism
  rules (``ADM009``–``ADM013``) that resolve symbols across the import
  graph via :mod:`repro.lint.project`;
* :mod:`repro.lint.sanitizer` — opt-in runtime instrumentation
  (``ADAM2_SANITIZE=1``) asserting mass conservation, weight sanity,
  fraction ranges and CDF monotonicity after every exchange/round on
  every backend.

The engine supports inline ``# adam2: noqa[ADMxxx]`` suppressions
(:mod:`repro.lint.suppress`), a committed baseline for gradual adoption
(:mod:`repro.lint.baseline`), and SARIF 2.1.0 output for CI
code-scanning (:mod:`repro.lint.sarif`).
"""

from __future__ import annotations

from repro.lint.baseline import Baseline, apply_baseline
from repro.lint.engine import LintEngine, lint_paths, lint_source, resolve_rules
from repro.lint.project import ProjectIndex, build_project_index
from repro.lint.rules import ALL_RULES, get_rules
from repro.lint.sarif import format_sarif, to_sarif
from repro.lint.sanitizer import (
    FastsimSanitizer,
    InvariantViolation,
    sanitize_enabled,
)
from repro.lint.violation import LintReport, Violation

__all__ = [
    "ALL_RULES",
    "Baseline",
    "FastsimSanitizer",
    "InvariantViolation",
    "LintEngine",
    "LintReport",
    "ProjectIndex",
    "Violation",
    "apply_baseline",
    "build_project_index",
    "format_sarif",
    "get_rules",
    "lint_paths",
    "lint_source",
    "resolve_rules",
    "sanitize_enabled",
    "to_sarif",
]
