"""The lint engine and the ``adam2-lint`` command-line entry point.

v2: project-wide analysis.  The engine parses every file up front,
builds the cross-file :class:`~repro.lint.project.ProjectIndex` (import
graph, function summaries, the obs name registry), then runs the rules —
per-file rules against each module, :class:`ProjectRule` rules against
the module *plus* the shared index.  Findings pass through the inline
``# adam2: noqa[...]`` filter and, when ``--baseline`` is given, the
committed baseline, so only *new* findings gate the exit code.

Output formats: human text, JSON, and SARIF 2.1.0 (``--format sarif``)
for CI code-scanning upload.

Exit status: 0 clean, 1 non-baselined error-severity findings,
2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.baseline import Baseline, apply_baseline
from repro.lint.project import ProjectIndex, build_project_index
from repro.lint.rules import ALL_RULES, ModuleContext, ProjectRule, Rule, get_rules
from repro.lint.sarif import format_sarif
from repro.lint.suppress import split_suppressed
from repro.lint.violation import LintReport, Violation

__all__ = ["LintEngine", "lint_paths", "lint_source", "main", "resolve_rules"]

#: directories never descended into
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", ".mypy_cache", ".ruff_cache", "build", "dist"}


def _sort_key(violation: Violation) -> tuple[str, int, int, str]:
    return (violation.path, violation.line, violation.column, violation.code)


def resolve_rules(
    select: set[str] | None = None, ignore: set[str] | None = None
) -> list[Rule]:
    """Instantiate the rule set for a run; unknown codes raise ValueError."""
    rules = get_rules(select)
    if ignore:
        known = {cls.code for cls in ALL_RULES}
        unknown = ignore - known
        if unknown:
            raise ValueError(f"unknown rule codes: {sorted(unknown)}")
        rules = [r for r in rules if r.code not in ignore]
    return rules


class LintEngine:
    """Runs a set of rules over files or source strings."""

    def __init__(self, rules: Sequence[Rule] | None = None):
        self.rules: list[Rule] = list(rules) if rules is not None else get_rules()

    # -- discovery -----------------------------------------------------

    @staticmethod
    def discover(paths: Iterable[str]) -> list[Path]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        files: set[Path] = set()
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                for candidate in path.rglob("*.py"):
                    if not _SKIP_DIRS & set(candidate.parts):
                        files.add(candidate)
            elif path.suffix == ".py":
                files.add(path)
        return sorted(files)

    # -- execution -----------------------------------------------------

    def check_source(self, source: str, path: str = "<string>") -> list[Violation]:
        """Lint one source string (exposed for tests and tooling)."""
        module = ModuleContext.from_source(source, path=path)
        return self.check_module(module)

    def check_module(
        self, module: ModuleContext, project: ProjectIndex | None = None
    ) -> list[Violation]:
        """Actionable violations for one module (noqa already applied)."""
        kept, _ = self.check_module_full(module, project)
        return kept

    def check_module_full(
        self, module: ModuleContext, project: ProjectIndex | None = None
    ) -> tuple[list[Violation], list[Violation]]:
        """(kept, noqa-suppressed) violations for one module."""
        violations: list[Violation] = []
        for rule in self.rules:
            if project is not None and isinstance(rule, ProjectRule):
                violations.extend(rule.check_project(module, project))
            else:
                violations.extend(rule.check(module))
        kept, suppressed = split_suppressed(violations, module.source)
        kept.sort(key=_sort_key)
        suppressed.sort(key=_sort_key)
        return kept, suppressed

    def run(self, paths: Iterable[str]) -> LintReport:
        report = LintReport()
        paths = list(paths)
        # A typo'd path must not silently pass the lint gate.
        for raw in paths:
            if not Path(raw).exists():
                report.parse_errors.append(f"{raw}: no such file or directory")

        # Phase 1: parse everything, build the cross-file index.
        modules: list[ModuleContext] = []
        for path in self.discover(paths):
            try:
                source = path.read_text(encoding="utf-8")
                modules.append(ModuleContext.from_source(source, path=str(path)))
            except (OSError, SyntaxError, ValueError) as exc:
                report.parse_errors.append(f"{path}: {exc}")
        report.files_checked = len(modules)
        project = build_project_index(modules)

        # Phase 2: per-file rule runs against the shared index.
        for module in modules:
            kept, suppressed = self.check_module_full(module, project)
            report.violations.extend(kept)
            report.suppressed.extend(suppressed)

        report.violations.sort(key=_sort_key)
        report.suppressed.sort(key=_sort_key)
        return report


def lint_paths(
    paths: Iterable[str],
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> LintReport:
    """Convenience wrapper: lint files/directories with (a subset of) rules."""
    return LintEngine(resolve_rules(select, ignore)).run(paths)


def lint_source(source: str, path: str = "<string>", select: set[str] | None = None) -> list[Violation]:
    """Convenience wrapper: lint one source string."""
    return LintEngine(get_rules(select)).check_source(source, path=path)


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------


def _format_json(report: LintReport) -> str:
    return json.dumps(
        {
            "files_checked": report.files_checked,
            "violations": [v.to_json() for v in report.violations],
            "suppressed": [v.to_json() for v in report.suppressed],
            "baselined": [v.to_json() for v in report.baselined],
            "stale_baseline": report.stale_baseline,
            "codes": report.codes(),
            "parse_errors": report.parse_errors,
            "ok": report.ok,
        },
        indent=2,
    )


def _format_text(report: LintReport, verbose: bool = False) -> str:
    lines = [v.format_text() for v in report.violations]
    lines.extend(f"parse error: {err}" for err in report.parse_errors)
    if verbose:
        lines.extend(f"suppressed (noqa): {v.format_text()}" for v in report.suppressed)
        lines.extend(f"baselined: {v.format_text()}" for v in report.baselined)
        lines.extend(f"stale baseline entry: {entry}" for entry in report.stale_baseline)
    summary = (
        f"{report.files_checked} file(s) checked, "
        f"{len(report.violations)} violation(s)"
    )
    extras = []
    if report.suppressed:
        extras.append(f"{len(report.suppressed)} suppressed")
    if report.baselined:
        extras.append(f"{len(report.baselined)} baselined")
    if report.stale_baseline:
        extras.append(f"{len(report.stale_baseline)} stale baseline entr(y/ies)")
    if extras:
        summary += f" ({', '.join(extras)})"
    if report.codes():
        summary += f" [{', '.join(report.codes())}]"
    lines.append(summary)
    return "\n".join(lines)


def _list_rules() -> str:
    lines = []
    for cls in ALL_RULES:
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        lines.append(f"{cls.code}  {cls.name}: {doc}")
        if cls.hint:
            lines.append(f"        fix: {cls.hint}")
    return "\n".join(lines)


def _parse_codes(raw: str) -> set[str] | None:
    return {code.strip().upper() for code in raw.split(",") if code.strip()} or None


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="adam2-lint",
        description=(
            "Protocol-invariant linter for the Adam2 reproduction "
            "(rules ADM001-ADM013)."
        ),
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint")
    parser.add_argument("--format", choices=("text", "json", "sarif"), default="text", dest="fmt")
    parser.add_argument(
        "--select", default="", help="comma-separated rule codes to run (default: all)"
    )
    parser.add_argument(
        "--ignore", default="", help="comma-separated rule codes to skip"
    )
    parser.add_argument(
        "--baseline", default="", metavar="FILE",
        help="baseline file: matching findings are reported but do not fail the run",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the --baseline file from the current findings and exit 0",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print the resolved rule set and suppressed/baselined accounting",
    )
    parser.add_argument("--list-rules", action="store_true", help="describe every rule and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0
    if args.update_baseline and not args.baseline:
        print("adam2-lint: --update-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    try:
        rules = resolve_rules(_parse_codes(args.select), _parse_codes(args.ignore))
    except ValueError as exc:
        print(f"adam2-lint: {exc}", file=sys.stderr)
        return 2

    if args.verbose:
        active = ", ".join(f"{r.code}:{r.name}" for r in rules)
        print(f"rules: {active}", file=sys.stderr)

    report = LintEngine(rules).run(args.paths)

    try:
        if args.update_baseline:
            previous = Baseline.load(args.baseline)
            Baseline.from_violations(report.violations, previous).save(args.baseline)
            print(
                f"baseline updated: {args.baseline} "
                f"({len(report.violations)} finding(s) recorded)"
            )
            return 0
        if args.baseline:
            apply_baseline(report, Baseline.load(args.baseline))
    except (OSError, ValueError) as exc:
        print(f"adam2-lint: {exc}", file=sys.stderr)
        return 2

    if args.fmt == "json":
        print(_format_json(report))
    elif args.fmt == "sarif":
        print(format_sarif(report, rules))
    else:
        print(_format_text(report, verbose=args.verbose))
    if report.parse_errors:
        return 2
    return 0 if not report.errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
