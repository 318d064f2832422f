"""The typed query protocol: registry, parsing, dispatch, wire parity."""

from __future__ import annotations

import pytest

from repro.core.config import Adam2Config
from repro.errors import ServiceError
from repro.obs import MemorySink, ObserverHub
from repro.service import build_service
from repro.service.protocol import (
    BATCH_OP,
    CONTROL_OPS,
    ENGINE_OPS,
    MAX_BATCH_OPS,
    OPS,
    BatchRequest,
    BatchResponse,
    InvalidOp,
    QueryDispatcher,
    QueryRequest,
    QueryResponse,
    canonical_op,
    parse_request,
)
from repro.workloads.synthetic import uniform_workload

CONFIG = Adam2Config(points=24, rounds_per_instance=25)


@pytest.fixture(scope="module")
def handle():
    return build_service(
        CONFIG, uniform_workload(0, 1000), backend="fast", n_nodes=400, seed=5
    )


class TestRegistry:
    def test_every_op_has_a_unique_wire_name_and_code(self):
        codes = [spec.code for spec in OPS.values()]
        assert len(set(codes)) == len(codes)
        assert ENGINE_OPS | CONTROL_OPS == set(OPS)
        assert ENGINE_OPS.isdisjoint(CONTROL_OPS)

    def test_engine_methods_exist_on_the_engine(self, handle):
        for spec in OPS.values():
            if spec.engine_method is not None:
                assert callable(getattr(handle.engine, spec.engine_method))

    def test_canonical_op_accepts_engine_method_aliases(self):
        assert canonical_op("fraction_between") == "fraction"
        assert canonical_op("network_size") == "size"
        assert canonical_op("cdf") == "cdf"
        assert canonical_op(BATCH_OP) == BATCH_OP

    def test_canonical_op_rejects_unknown_names(self):
        with pytest.raises(ServiceError) as err:
            canonical_op("nope")
        assert err.value.code == "bad_request"


class TestQueryRequest:
    def test_aliased_construction_is_canonicalised(self):
        request = QueryRequest("network_size")
        assert request.op == "size" and request.args == ()

    def test_arity_is_validated(self):
        with pytest.raises(ServiceError):
            QueryRequest("cdf", ())
        with pytest.raises(ServiceError):
            QueryRequest("fraction", (1.0,))

    def test_pin_requires_a_version(self):
        with pytest.raises(ServiceError):
            QueryRequest("pin")
        assert QueryRequest.pin(3).version == 3

    def test_to_wire_produces_the_legacy_shape(self):
        wire = QueryRequest.fraction_between(1.0, 2.0, request_id=9).to_wire()
        assert wire == {"op": "fraction", "a": 1.0, "b": 2.0, "id": 9}

    def test_batch_never_masquerades_as_a_query(self):
        with pytest.raises(ServiceError):
            QueryRequest(BATCH_OP)


class TestParseRequest:
    def test_single_round_trip(self):
        request = parse_request({"op": "cdf", "x": 1.5, "id": 7})
        assert isinstance(request, QueryRequest)
        assert request.args == (1.5,) and request.request_id == 7

    def test_booleans_are_not_numbers(self):
        # Regression: bool is an int subclass, so a naive isinstance
        # check admits {"op": "cdf", "x": true} and serves cdf(1.0).
        with pytest.raises(ServiceError) as err:
            parse_request({"op": "cdf", "x": True})
        assert err.value.code == "bad_request"
        with pytest.raises(ServiceError):
            parse_request({"op": "fraction", "a": 1.0, "b": False})

    def test_boolean_version_is_rejected(self):
        with pytest.raises(ServiceError):
            parse_request({"op": "cdf", "x": 1.0, "version": True})

    def test_batch_members_fail_positionally(self):
        request = parse_request({"op": BATCH_OP, "ops": [
            {"op": "cdf", "x": 1.0},
            {"op": "nope"},
            {"op": "size"},
            {"op": "cdf", "x": "wide"},
        ]})
        assert isinstance(request, BatchRequest)
        kinds = [type(item).__name__ for item in request.items]
        assert kinds == ["QueryRequest", "InvalidOp", "QueryRequest", "InvalidOp"]
        invalid = request.items[1]
        assert isinstance(invalid, InvalidOp) and invalid.op == "nope"

    def test_batches_do_not_nest(self):
        request = parse_request({"op": BATCH_OP, "ops": [
            {"op": BATCH_OP, "ops": [{"op": "size"}]},
        ]})
        assert isinstance(request, BatchRequest)
        assert isinstance(request.items[0], InvalidOp)

    def test_empty_and_oversized_batches_are_rejected(self):
        with pytest.raises(ServiceError):
            parse_request({"op": BATCH_OP, "ops": []})
        too_many = [{"op": "size"}] * (MAX_BATCH_OPS + 1)
        with pytest.raises(ServiceError):
            parse_request({"op": BATCH_OP, "ops": too_many})

    def test_non_object_payloads_are_rejected(self):
        for payload in ([1, 2], "cdf", {"x": 1.0}, {"op": 7}):
            with pytest.raises(ServiceError):
                parse_request(payload)  # type: ignore[arg-type]


class TestResponses:
    def test_success_wire_round_trip(self):
        response = QueryResponse.success(0.5, version=3, request_id=1)
        assert QueryResponse.from_wire(response.to_wire()) == response

    def test_failure_wire_round_trip(self):
        response = QueryResponse.failure("unavailable", "gone", request_id=2)
        again = QueryResponse.from_wire(response.to_wire())
        assert not again.ok and again.error == "unavailable"
        with pytest.raises(ServiceError) as err:
            again.result()
        assert err.value.code == "unavailable"

    def test_batch_wire_round_trip(self):
        batch = BatchResponse(
            (QueryResponse.success(1.0), QueryResponse.failure("bad_request", "no")),
            request_id=4,
        )
        again = BatchResponse.from_wire(batch.to_wire())
        assert [r.ok for r in again.results] == [True, False]
        assert again.request_id == 4


class TestDispatcher:
    def make(self, handle, sink=None):
        hub = ObserverHub([sink]) if sink is not None else None
        if hub is not None:
            return QueryDispatcher(handle.engine, handle, hub=hub)
        return QueryDispatcher(handle.engine, handle)

    def test_engine_op_executes(self, handle):
        response = self.make(handle).dispatch(QueryRequest.cdf(500.0))
        assert isinstance(response, QueryResponse)
        assert response.ok and response.value == pytest.approx(handle.cdf(500.0))

    def test_control_ops_answer_from_the_handle(self, handle):
        dispatcher = self.make(handle)
        status = dispatcher.dispatch(QueryRequest.status())
        assert isinstance(status, QueryResponse) and status.payload is not None
        assert status.payload["status"]["backend"] == "fast"
        pinned = dispatcher.dispatch(QueryRequest.pin(1))
        assert pinned.ok and pinned.payload == {"pinned": 1}
        dispatcher.dispatch(QueryRequest.unpin(1))

    def test_batch_partial_failure_executes_siblings(self, handle):
        request = parse_request({"op": BATCH_OP, "ops": [
            {"op": "cdf", "x": 500.0},
            {"op": "cdf", "x": True},
            {"op": "size"},
        ], "id": 11})
        response = self.make(handle).dispatch(request)
        assert isinstance(response, BatchResponse)
        assert [r.ok for r in response.results] == [True, False, True]
        assert response.results[1].error == "bad_request"
        assert response.request_id == 11

    def test_invalid_batch_slots_are_traced(self, handle):
        sink = MemorySink()
        dispatcher = self.make(handle, sink)
        request = parse_request({"op": BATCH_OP, "ops": [{"op": "nope"}]})
        dispatcher.dispatch(request)
        failures = [e for e in sink.queries if not e.ok]
        assert [e.op for e in failures] == ["nope"]

    def test_dispatch_wire_speaks_the_legacy_dicts(self, handle):
        dispatcher = self.make(handle)
        wire = dispatcher.dispatch_wire({"op": "quantile", "q": 0.5, "id": 3})
        assert wire["ok"] is True and wire["id"] == 3
        assert wire["value"] == pytest.approx(handle.quantile(0.5))
        bad = dispatcher.dispatch_wire({"op": "cdf"})
        assert bad == {
            "ok": False, "error": "bad_request", "message": bad["message"]
        }
