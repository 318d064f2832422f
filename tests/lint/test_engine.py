"""Lint engine and ``adam2-lint`` CLI behaviour, plus the repo-clean gate."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.engine import LintEngine, lint_paths, main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

BAD_FIXTURE = """\
import random


def gather(into=[]):
    try:
        return into + [random.random()]
    except:
        pass
"""


def test_repo_lints_clean():
    """The acceptance gate: `adam2-lint src/` exits 0 on this repository."""
    report = lint_paths([str(REPO_SRC)])
    assert report.files_checked > 80
    assert report.parse_errors == []
    assert report.violations == [], "\n".join(v.format_text() for v in report.violations)


def test_violations_found_in_fixture_tree(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_FIXTURE)
    report = lint_paths([str(tmp_path)])
    assert report.files_checked == 1
    assert {"ADM001", "ADM005", "ADM006"} <= set(report.codes())


def test_discovery_skips_caches(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("x = 1")
    (tmp_path / "ok.py").write_text("x = 1")
    files = LintEngine.discover([str(tmp_path)])
    assert [f.name for f in files] == ["ok.py"]


def test_parse_error_reported(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    report = lint_paths([str(tmp_path)])
    assert not report.ok
    assert report.parse_errors


def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_FIXTURE)

    # Non-zero exit with rule codes in JSON output on violations.
    assert main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert {"ADM001", "ADM005", "ADM006"} <= set(payload["codes"])
    assert all({"code", "path", "line", "hint"} <= set(v) for v in payload["violations"])

    # Exit 0 on a clean file.
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out

    # Exit 2 on unknown rule codes and on parse errors.
    assert main([str(clean), "--select", "ADM999"]) == 2
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert main([str(broken)]) == 2


def test_cli_missing_path_is_an_error(tmp_path, capsys):
    # A typo'd path must not silently pass the lint gate (exit 0, 0 files).
    assert main([str(tmp_path / "nowhere")]) == 2
    assert "no such file or directory" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 14):
        assert f"ADM{i:03d}" in out


def test_cli_ignore(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_FIXTURE)

    # Ignoring every triggered rule turns the run clean.
    assert main([str(bad), "--ignore", "ADM001,ADM002,ADM005,ADM006"]) == 0
    capsys.readouterr()

    # Unknown codes in --ignore are a usage error, exactly like --select.
    assert main([str(bad), "--ignore", "ADM999"]) == 2
    assert "unknown rule codes" in capsys.readouterr().err


def test_cli_verbose_prints_resolved_rules(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean), "--verbose", "--select", "ADM001,ADM009"]) == 0
    err = capsys.readouterr().err
    assert "ADM001:no-global-rng" in err
    assert "ADM009:orphaned-tasks" in err
    assert "ADM002" not in err


def test_repo_lint_with_committed_baseline(capsys):
    """The CI gate invocation: exit 0 against the committed baseline."""
    repo_root = REPO_SRC.parents[1]
    baseline = repo_root / ".adam2-baseline.json"
    assert baseline.exists(), "commit .adam2-baseline.json (the CI lint gate reads it)"
    assert main([str(REPO_SRC), "--baseline", str(baseline)]) == 0
    capsys.readouterr()
