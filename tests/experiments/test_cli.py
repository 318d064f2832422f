"""CLI override plumbing and observability flags."""

from __future__ import annotations

import json

import pytest

from repro.api import list_backends
from repro.errors import ConfigurationError
from repro.experiments.cli import (
    _build_parser,
    _build_serve_parser,
    _override_params,
    main,
)


class _Args:
    """Minimal stand-in for the parsed argparse namespace."""

    def __init__(self, nodes=None, points=None, seed=None):
        self.nodes = nodes
        self.points = points
        self.seed = seed


class TestOverrideParams:
    def test_nodes_maps_to_n_nodes(self):
        params = _override_params("fig07", _Args(nodes=300))
        assert params == {"n_nodes": 300}

    def test_nodes_maps_to_population(self):
        params = _override_params("fig04", _Args())
        assert params == {}
        # fig09 (baseline comparison) sizes via n_nodes as well; find one
        # that uses 'population' dynamically instead of hard-coding.
        from repro.experiments.registry import list_experiments, get_experiment
        import inspect

        for name in list_experiments():
            signature = inspect.signature(get_experiment(name))
            if "population" in signature.parameters:
                assert _override_params(name, _Args(nodes=123)) == {"population": 123}
                break

    def test_nodes_without_size_knob_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="--nodes does not apply"):
            _override_params("fig04", _Args(nodes=300))

    def test_all_overrides_forwarded(self):
        params = _override_params("fig07", _Args(nodes=300, points=9, seed=5))
        assert params == {"n_nodes": 300, "points": 9, "seed": 5}


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        assert "fig07" in capsys.readouterr().out

    def test_bad_override_exits_nonzero(self, capsys):
        assert main(["fig04", "--nodes", "300"]) == 2
        assert "--nodes does not apply" in capsys.readouterr().err

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["fig07", "--backend", "warp"])

    def test_backend_choices_come_from_the_registry(self):
        for parser in (_build_parser(), _build_serve_parser()):
            backend = next(a for a in parser._actions if a.dest == "backend")
            assert list(backend.choices) == list_backends()
        with pytest.raises(SystemExit):
            main(["serve", "--backend", "round"])

    def test_experiment_with_trace_and_metrics(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main([
            "fig07", "--nodes", "100", "--backend", "fast",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ])
        assert code == 0
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(line["type"] == "round" for line in lines)
        assert lines[0]["backend"] == "fast"
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["rounds_total"] > 0
        assert "run/instance/round" in snapshot["spans"]
