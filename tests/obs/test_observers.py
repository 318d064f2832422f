"""Observer lifecycle, sink behaviour, and trace determinism.

The lifecycle tests drive real backend runs through the facade so they
exercise the actual probe wiring, not synthetic events.
"""

from __future__ import annotations

import json

import pytest

from repro.api import run
from repro.core.config import Adam2Config
from repro.obs import (
    NULL_HUB,
    JsonlSink,
    MemorySink,
    ObserverHub,
    RoundSample,
    RunObserver,
    StdoutSummarySink,
)
from repro.workloads import lognormal_workload

WORKLOAD = lognormal_workload()
CONFIG = Adam2Config(points=5, rounds_per_instance=15)


def _run(observers, backend="fast", **kwargs):
    return run(
        CONFIG,
        WORKLOAD,
        backend=backend,
        n_nodes=kwargs.pop("n_nodes", 64),
        seed=kwargs.pop("seed", 7),
        observers=observers,
        **kwargs,
    )


class TestDisabledHub:
    def test_null_hub_is_fully_disabled(self):
        assert not NULL_HUB.enabled
        assert not NULL_HUB.probes_enabled
        assert not NULL_HUB.timing_enabled

    def test_disabled_span_records_nothing(self):
        hub = ObserverHub()
        with hub.span("run"):
            pass
        assert hub.spans.snapshot() == {}

    def test_run_without_observers_collects_no_metrics(self):
        result = _run(())
        assert result.metrics == {}


class TestLifecycle:
    def test_event_order_and_counts(self):
        sink = MemorySink()
        _run((sink,), instances=2)
        types = [type(event).__name__ for event in sink.events]
        assert types[0] == "RunStarted"
        assert types[-1] == "RunCompleted"
        assert types.count("InstanceStarted") == 2
        assert types.count("InstanceCompleted") == 2
        # Every instance's events are bracketed: start, rounds, end.
        first_start = types.index("InstanceStarted")
        first_end = types.index("InstanceCompleted")
        assert all(t == "RoundSample" for t in types[first_start + 1 : first_end])

    @pytest.mark.parametrize("backend", ["fast", "async"])
    def test_round_probes_on_every_backend(self, backend):
        sink = MemorySink()
        _run((sink,), backend=backend)
        assert sink.rounds, f"no RoundSample events from {backend!r}"
        sample = sink.rounds[len(sink.rounds) // 2]
        assert isinstance(sample, RoundSample)
        # Weight conservation: the size column sums to one while the
        # instance is live.  The async backend samples between message
        # deliveries, so a little weight may sit in flight.
        tolerance = 0.1 if backend == "async" else 1e-6
        assert sample.weight_sum == pytest.approx(1.0, abs=tolerance)
        assert sample.mass_sum > 0.0
        assert 0 < sample.reached <= 64
        assert sample.messages >= 0 and sample.bytes >= 0
        # After the first sample the decay factor is defined.
        rates = [s.convergence_rate for s in sink.rounds[1:] if s.reached > 0]
        assert any(rate is not None for rate in rates)

    def test_metrics_registry_filled(self):
        sink = MemorySink()
        result = _run((sink,))
        counters = result.metrics["counters"]
        assert counters["runs_total"] == 1.0
        assert counters["instances_total"] == 1.0
        assert counters["rounds_total"] == len(sink.rounds)
        assert counters["messages_total"] > 0

    def test_instrumented_run_times_span_hierarchy(self):
        hub = ObserverHub(instrument=True)
        run(CONFIG, WORKLOAD, backend="fast", n_nodes=64, seed=7, hub=hub)
        spans = hub.spans
        assert spans.stats("run").count == 1
        assert spans.stats("run/instance").count == 1
        assert spans.stats("run/instance/round").count == CONFIG.rounds_per_instance

    def test_close_propagates_to_observers(self):
        class Closing(RunObserver):
            closed = False

            def close(self) -> None:
                self.closed = True

        observer = Closing()
        hub = ObserverHub((observer,))
        hub.close()
        assert observer.closed


class TestJsonlSink:
    def test_trace_is_valid_jsonl_with_probes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            _run((sink,))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "run_start"
        assert lines[-1]["type"] == "run_end"
        rounds = [line for line in lines if line["type"] == "round"]
        assert rounds
        for key in ("mass_sum", "weight_sum", "convergence_rate", "messages", "bytes"):
            assert key in rounds[0]

    @pytest.mark.parametrize("backend", ["fast", "async"])
    def test_same_seed_trace_is_byte_identical(self, tmp_path, backend):
        """Golden determinism: events carry no wall-clock values."""
        contents = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            with JsonlSink(path) as sink:
                _run((sink,), backend=backend)
            contents.append(path.read_bytes())
        assert contents[0] == contents[1]

    def test_run_sequence_numbers_across_runs(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            _run((sink,))
            _run((sink,), seed=8)
        runs = {json.loads(line)["run"] for line in path.read_text().splitlines()}
        assert runs == {0, 1}

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.on_round(
                RoundSample(
                    instance=0, round=1, mass_sum=1.0, weight_sum=1.0,
                    reached=1, spread=0.0, convergence_rate=None,
                    messages=0, bytes=0,
                )
            )


class TestStdoutSummarySink:
    def test_prints_run_summary(self, capsys):
        _run((StdoutSummarySink(),))
        out = capsys.readouterr().out
        assert "[obs] fast n=64 seed=7" in out
        assert "instance 0" in out


class TestRoundInstrumentCache:
    def _sample(self, round_index):
        return RoundSample(
            instance=0, round=round_index, mass_sum=2.5, weight_sum=1.0,
            reached=10, spread=0.1, convergence_rate=None,
            messages=20, bytes=800,
        )

    def test_instruments_resolved_once(self):
        hub = ObserverHub([RunObserver()])
        assert hub._round_instruments is None
        hub.round_sample(self._sample(1))
        cached = hub._round_instruments
        assert cached is not None
        hub.round_sample(self._sample(2))
        # The hot round loop must not re-resolve registry names.
        assert hub._round_instruments is cached

    def test_cached_instruments_still_aggregate(self):
        hub = ObserverHub([RunObserver()])
        for i in range(3):
            hub.round_sample(self._sample(i + 1))
        snapshot = hub.metrics.snapshot()
        assert snapshot["counters"]["rounds_total"] == 3
        assert snapshot["counters"]["messages_total"] == 60
        assert snapshot["counters"]["bytes_total"] == 2400
        assert snapshot["gauges"]["reached"] == 10
