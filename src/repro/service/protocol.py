"""The typed query protocol: one source of truth for the query surface.

Before this module existed the service spoke parallel ad-hoc dict
shapes — the endpoint's hand-rolled request parsing and the client's
convenience-method payload builders — and the wire op names
(``"fraction"``, ``"size"``) drifted from the engine method names
(``fraction_between``, ``network_size``) with the mapping re-derived at
every site.  This module consolidates all of it:

* :data:`OPS` — the canonical op registry.  Every operation the service
  answers has exactly one :class:`OpSpec` naming its wire op, its
  :class:`~repro.service.query.QueryEngine` method, its numeric argument
  fields, and its stable binary op code (used by the length-prefixed
  frame codec in :mod:`repro.net.frames`).
* :class:`QueryRequest` / :class:`QueryResponse` — typed, frozen
  request/response values with ``from_wire`` / ``to_wire`` converters
  that produce and accept exactly the legacy JSON-lines dict shapes, so
  old clients keep working unchanged.
* :class:`BatchRequest` / :class:`BatchResponse` — one request carrying
  many ops (``{"op": "batch", "ops": [...]}``) with *partial-failure*
  semantics: a malformed or failing sub-op yields an error result in its
  slot and never poisons its siblings.
* :class:`QueryDispatcher` — executes parsed requests against a
  :class:`~repro.service.query.QueryEngine` plus a :class:`ControlPlane`
  (status/history/pin/unpin provider), emitting the same
  :class:`~repro.obs.events.QueryServed` trace events the single-loop
  endpoint always emitted.  The asyncio endpoint and the SO_REUSEPORT
  worker processes serve through one dispatcher instance per engine
  view.

This module is host-independent — no sockets, no host clocks (latency
reads go through :func:`repro.obs.wall_clock`) — so it stays outside the
ADM008 fence and is importable from every tier.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.errors import ServiceError
from repro.obs import NULL_HUB, ObserverHub, wall_clock
from repro.service.store import EstimateSnapshot

if TYPE_CHECKING:  # runtime import would be circular (query imports protocol)
    from repro.service.query import QueryEngine

__all__ = [
    "BATCH_OP",
    "CONTROL_OPS",
    "ENGINE_OPS",
    "MAX_BATCH_OPS",
    "OPS",
    "BatchRequest",
    "BatchResponse",
    "ControlPlane",
    "InvalidOp",
    "OpSpec",
    "QueryDispatcher",
    "QueryRequest",
    "QueryResponse",
    "canonical_op",
    "parse_request",
]

#: the batch envelope op (not an OpSpec: it carries other ops, not args)
BATCH_OP = "batch"

#: hard cap on sub-ops per batch envelope (one request line / frame)
MAX_BATCH_OPS = 512


@dataclass(frozen=True, slots=True)
class OpSpec:
    """One operation of the query surface.

    Attributes:
        wire_op: canonical wire name (``"fraction"``), the one spelled in
            JSON requests.
        engine_method: :class:`QueryEngine`/:class:`ServiceHandle` method
            name (``"fraction_between"``); ``None`` for control ops.
        fields: numeric argument field names, in call order.
        code: stable binary op code for the frame codec (never reuse).
        control: True for control-plane ops the engine never sees.
        needs_version: True when ``version`` is a required field.
    """

    wire_op: str
    engine_method: str | None
    fields: tuple[str, ...]
    code: int
    control: bool = False
    needs_version: bool = False


#: the canonical op registry, keyed by wire op name
OPS: dict[str, OpSpec] = {
    spec.wire_op: spec
    for spec in (
        OpSpec("cdf", "cdf", ("x",), 1),
        OpSpec("quantile", "quantile", ("q",), 2),
        OpSpec("fraction", "fraction_between", ("a", "b"), 3),
        OpSpec("size", "network_size", (), 4),
        OpSpec("status", None, (), 5, control=True),
        OpSpec("history", None, (), 6, control=True),
        OpSpec("pin", None, (), 7, control=True, needs_version=True),
        OpSpec("unpin", None, (), 8, control=True, needs_version=True),
    )
}

#: ops answered by the query engine
ENGINE_OPS = frozenset(spec.wire_op for spec in OPS.values() if not spec.control)
#: control-plane ops answered by the service itself
CONTROL_OPS = frozenset(spec.wire_op for spec in OPS.values() if spec.control)

#: engine-method-name -> wire-op aliases (``fraction_between`` -> ``fraction``)
_METHOD_ALIASES: dict[str, str] = {
    spec.engine_method: spec.wire_op
    for spec in OPS.values()
    if spec.engine_method is not None and spec.engine_method != spec.wire_op
}


def canonical_op(name: str) -> str:
    """The canonical wire op for ``name`` (wire op or engine method name).

    ``canonical_op("fraction_between") == "fraction"``; unknown names
    raise a ``bad_request`` :class:`~repro.errors.ServiceError` listing
    the supported surface.
    """
    if name in OPS or name == BATCH_OP:
        return name
    alias = _METHOD_ALIASES.get(name)
    if alias is not None:
        return alias
    supported = ", ".join(sorted(OPS) + [BATCH_OP])
    raise ServiceError(
        f"unknown op {name!r}; supported: {supported}", code="bad_request"
    )


def _strict_number(value: object, op: str, key: str) -> float:
    """A real JSON number — booleans and non-numerics are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(
            f"op {op!r} needs numeric field {key!r}", code="bad_request"
        )
    return float(value)


def _strict_version(value: object, *, required_by: str | None = None) -> int | None:
    if value is None:
        if required_by is not None:
            raise ServiceError(
                f"op {required_by!r} needs integer field 'version'",
                code="bad_request",
            )
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError("'version' must be an integer", code="bad_request")
    return value


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """One typed query: canonical op, positional numeric args, version.

    Construct directly (``QueryRequest("cdf", (1.5,))``), through the
    named constructors (:meth:`cdf`, :meth:`fraction_between`, ...), or
    from a legacy wire dict with :func:`parse_request`.  Engine-method
    names are accepted and canonicalised (``QueryRequest("network_size")``
    becomes op ``"size"``), so callers never re-derive the wire mapping.
    """

    op: str
    args: tuple[float, ...] = ()
    version: int | None = None
    request_id: int | str | None = None

    def __post_init__(self) -> None:
        op = canonical_op(self.op)
        if op == BATCH_OP:
            raise ServiceError(
                "a batch envelope is a BatchRequest, not a QueryRequest",
                code="bad_request",
            )
        spec = OPS[op]
        args = tuple(float(a) for a in self.args)
        if len(args) != len(spec.fields):
            raise ServiceError(
                f"op {op!r} takes {len(spec.fields)} argument(s) "
                f"({', '.join(spec.fields) or 'none'}), got {len(args)}",
                code="bad_request",
            )
        if spec.needs_version:
            _strict_version(self.version, required_by=op)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)

    @property
    def spec(self) -> OpSpec:
        return OPS[self.op]

    # -- named constructors (the client convenience surface) -----------

    @classmethod
    def cdf(cls, x: float, *, version: int | None = None,
            request_id: int | str | None = None) -> "QueryRequest":
        return cls("cdf", (x,), version, request_id)

    @classmethod
    def quantile(cls, q: float, *, version: int | None = None,
                 request_id: int | str | None = None) -> "QueryRequest":
        return cls("quantile", (q,), version, request_id)

    @classmethod
    def fraction_between(cls, a: float, b: float, *, version: int | None = None,
                         request_id: int | str | None = None) -> "QueryRequest":
        return cls("fraction", (a, b), version, request_id)

    @classmethod
    def network_size(cls, *, version: int | None = None,
                     request_id: int | str | None = None) -> "QueryRequest":
        return cls("size", (), version, request_id)

    @classmethod
    def status(cls, *, request_id: int | str | None = None) -> "QueryRequest":
        return cls("status", (), None, request_id)

    @classmethod
    def history(cls, *, request_id: int | str | None = None) -> "QueryRequest":
        return cls("history", (), None, request_id)

    @classmethod
    def pin(cls, version: int, *, request_id: int | str | None = None) -> "QueryRequest":
        return cls("pin", (), version, request_id)

    @classmethod
    def unpin(cls, version: int, *, request_id: int | str | None = None) -> "QueryRequest":
        return cls("unpin", (), version, request_id)

    # -- wire conversion -------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        """The legacy JSON-lines request dict for this query."""
        payload: dict[str, Any] = {"op": self.op}
        for key, value in zip(self.spec.fields, self.args):
            payload[key] = value
        if self.version is not None:
            payload["version"] = self.version
        if self.request_id is not None:
            payload["id"] = self.request_id
        return payload


_set_field = object.__setattr__


def checked_request(
    op: str,
    args: tuple[float, ...],
    version: int | None,
    request_id: int | str | None,
) -> QueryRequest:
    """A :class:`QueryRequest` from fields a wire decoder has already checked.

    ``__post_init__`` exists for callers' input; a decoder that has just
    established the canonical op, its arity, float args and the version
    an op requires would only pay for the same checks a second time.
    """
    request = object.__new__(QueryRequest)
    _set_field(request, "op", op)
    _set_field(request, "args", args)
    _set_field(request, "version", version)
    _set_field(request, "request_id", request_id)
    return request


@dataclass(frozen=True, slots=True)
class InvalidOp:
    """A batch slot whose sub-op failed to parse.

    Parsing a batch envelope never raises for a malformed *member* —
    the slot is preserved so its siblings still execute and the caller
    sees a positional error result (partial-failure semantics).
    """

    op: str
    code: str
    message: str


@dataclass(frozen=True, slots=True)
class BatchRequest:
    """One request carrying many ops, answered positionally.

    Sub-requests carry no ids of their own: results are matched by
    position in :attr:`BatchResponse.results`.
    """

    items: tuple["QueryRequest | InvalidOp", ...]
    request_id: int | str | None = None

    def __post_init__(self) -> None:
        if not self.items:
            raise ServiceError("batch carries no ops", code="bad_request")
        if len(self.items) > MAX_BATCH_OPS:
            raise ServiceError(
                f"batch carries {len(self.items)} ops; the cap is {MAX_BATCH_OPS}",
                code="bad_request",
            )

    def to_wire(self) -> dict[str, Any]:
        ops: list[dict[str, Any]] = []
        for item in self.items:
            if isinstance(item, InvalidOp):
                raise ServiceError(
                    "cannot serialise a batch holding unparseable slots",
                    code="bad_request",
                )
            sub = item.to_wire()
            sub.pop("id", None)
            ops.append(sub)
        payload: dict[str, Any] = {"op": BATCH_OP, "ops": ops}
        if self.request_id is not None:
            payload["id"] = self.request_id
        return payload


@dataclass(frozen=True, slots=True)
class QueryResponse:
    """One typed answer, convertible to/from the legacy response dict.

    Engine answers carry :attr:`value` (and echo the *requested*
    ``version``, matching the legacy wire contract); control answers
    carry :attr:`payload` (``{"status": {...}}``, ``{"pinned": 3}``,
    ...); failures carry :attr:`error` (the class tag) and
    :attr:`message`.
    """

    ok: bool
    value: float | None = None
    version: int | None = None
    error: str | None = None
    message: str | None = None
    request_id: int | str | None = None
    payload: Mapping[str, Any] | None = None

    @classmethod
    def success(cls, value: float, *, version: int | None = None,
                request_id: int | str | None = None) -> "QueryResponse":
        return cls(ok=True, value=value, version=version, request_id=request_id)

    @classmethod
    def control(cls, payload: Mapping[str, Any], *,
                request_id: int | str | None = None) -> "QueryResponse":
        return cls(ok=True, payload=payload, request_id=request_id)

    @classmethod
    def failure(cls, code: str, message: str, *,
                request_id: int | str | None = None) -> "QueryResponse":
        return cls(ok=False, error=code, message=message, request_id=request_id)

    def result(self) -> float:
        """The value, or the failure re-raised as :class:`ServiceError`."""
        if not self.ok:
            raise ServiceError(
                self.message or "request failed",
                code=self.error or "server_error",
            )
        if self.value is None:
            raise ServiceError(
                "response carries no value (control op?)", code="bad_request"
            )
        return self.value

    def to_wire(self) -> dict[str, Any]:
        """The legacy JSON-lines response dict for this answer."""
        if not self.ok:
            wire: dict[str, Any] = {
                "ok": False,
                "error": self.error or "server_error",
                "message": self.message or "",
            }
        elif self.payload is not None:
            wire = {"ok": True, **self.payload}
        else:
            wire = {"ok": True, "value": self.value}
            if self.version is not None:
                wire["version"] = self.version
        if self.request_id is not None:
            wire["id"] = self.request_id
        return wire

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "QueryResponse":
        """Parse a legacy response dict back into a typed response."""
        request_id = payload.get("id")
        if not payload.get("ok"):
            return cls.failure(
                str(payload.get("error", "server_error")),
                str(payload.get("message", "request failed")),
                request_id=request_id,
            )
        if "value" in payload:
            raw_version = payload.get("version")
            return cls.success(
                float(payload["value"]),
                version=raw_version if isinstance(raw_version, int) else None,
                request_id=request_id,
            )
        extra = {k: v for k, v in payload.items() if k not in ("ok", "id")}
        return cls.control(extra, request_id=request_id)


@dataclass(frozen=True, slots=True)
class BatchResponse:
    """Positional answers to a :class:`BatchRequest` (``ok`` per slot)."""

    results: tuple[QueryResponse, ...]
    request_id: int | str | None = None
    ok: bool = field(default=True)

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {
            "ok": True,
            "results": [r.to_wire() for r in self.results],
        }
        if self.request_id is not None:
            wire["id"] = self.request_id
        return wire

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "BatchResponse":
        raw = payload.get("results")
        if not isinstance(raw, list):
            raise ServiceError("batch response carries no results", code="server_error")
        return cls(
            results=tuple(QueryResponse.from_wire(r) for r in raw),
            request_id=payload.get("id"),
        )


def _parse_single(
    payload: Mapping[str, Any], op: str, request_id: int | str | None
) -> QueryRequest:
    spec = OPS[op]
    args = tuple(_strict_number(payload.get(key), op, key) for key in spec.fields)
    version = _strict_version(
        payload.get("version"), required_by=op if spec.needs_version else None
    )
    return checked_request(op, args, version, request_id)


def parse_request(payload: Mapping[str, Any]) -> QueryRequest | BatchRequest:
    """Parse one legacy wire dict into a typed request.

    This is the *only* wire-request parser in the codebase — the
    endpoint, the worker processes, and the binary-frame JSON fallback
    all call it.  Malformed envelopes raise ``bad_request``
    :class:`~repro.errors.ServiceError`; malformed batch *members*
    become :class:`InvalidOp` slots instead (partial failure).
    """
    if not isinstance(payload, Mapping):
        raise ServiceError("request must be a JSON object", code="bad_request")
    raw_op = payload.get("op")
    if not isinstance(raw_op, str):
        raise ServiceError(
            "request needs a string 'op' field", code="bad_request"
        )
    op = canonical_op(raw_op)
    request_id = payload.get("id")
    if op != BATCH_OP:
        return _parse_single(payload, op, request_id)

    raw_ops = payload.get("ops")
    if not isinstance(raw_ops, Sequence) or isinstance(raw_ops, (str, bytes)):
        raise ServiceError(
            "batch needs an 'ops' array of request objects", code="bad_request"
        )
    items: list[QueryRequest | InvalidOp] = []
    for member in raw_ops:
        try:
            if not isinstance(member, Mapping):
                raise ServiceError(
                    "batch member must be a JSON object", code="bad_request"
                )
            if member.get("op") == BATCH_OP:
                raise ServiceError("batches do not nest", code="bad_request")
            sub = parse_request(member)
            assert isinstance(sub, QueryRequest)
            items.append(sub)
        except ServiceError as exc:
            member_op = member.get("op") if isinstance(member, Mapping) else None
            items.append(InvalidOp(
                op=member_op if isinstance(member_op, str) else "invalid",
                code=exc.code,
                message=str(exc),
            ))
    return BatchRequest(tuple(items), request_id)


class ControlPlane(Protocol):
    """The control-plane surface a dispatcher serves (handle or worker)."""

    def status(self) -> dict[str, object]: ...

    def history(self) -> list[dict[str, object]]: ...

    def pin(self, version: int) -> EstimateSnapshot: ...

    def unpin(self, version: int) -> None: ...


class QueryDispatcher:
    """Executes typed requests against one engine view + control plane.

    Every serving surface — the asyncio endpoint, each SO_REUSEPORT
    worker process — owns one dispatcher around its own
    :class:`~repro.service.query.QueryEngine`.  Engine ops emit their
    trace events inside the engine; the dispatcher emits for everything
    the engine never sees (parse failures, control ops), so the trace
    accounts for every request received, exactly as the single-loop
    endpoint always guaranteed.
    """

    def __init__(
        self,
        engine: "QueryEngine",
        control: ControlPlane | None = None,
        *,
        hub: ObserverHub = NULL_HUB,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        self.engine = engine
        self.control = control
        self.hub = hub
        self._clock = clock

    # -- typed execution ------------------------------------------------

    def dispatch(
        self, request: QueryRequest | BatchRequest
    ) -> QueryResponse | BatchResponse:
        if isinstance(request, BatchRequest):
            return BatchResponse(
                results=tuple(self._dispatch_item(item) for item in request.items),
                request_id=request.request_id,
            )
        return self._dispatch_item(request)

    def _dispatch_item(self, item: QueryRequest | InvalidOp) -> QueryResponse:
        if isinstance(item, InvalidOp):
            self._emit_failure(item.op, item.code, self._clock())
            return QueryResponse.failure(item.code, item.message)
        if item.op in ENGINE_OPS:
            return self.engine.execute(item)
        return self._dispatch_control(item)

    def _dispatch_control(self, request: QueryRequest) -> QueryResponse:
        control = self.control
        started = self._clock()
        try:
            if control is None:
                raise ServiceError(
                    f"op {request.op!r} is not served here", code="unavailable"
                )
            payload: dict[str, Any]
            if request.op == "status":
                payload = {"status": control.status()}
            elif request.op == "history":
                payload = {"history": control.history()}
            elif request.op == "pin":
                snapshot = control.pin(request.version or 0)
                payload = {"pinned": snapshot.version}
            else:  # unpin — the registry admits no other control op
                control.unpin(request.version or 0)
                payload = {}
        except ServiceError as exc:
            self._emit_failure(request.op, exc.code, started)
            return QueryResponse.failure(
                exc.code, str(exc), request_id=request.request_id
            )
        except Exception as exc:  # the wire-level 5xx class
            self._emit_failure(request.op, "server_error", started)
            return QueryResponse.failure(
                "server_error", f"{type(exc).__name__}: {exc}",
                request_id=request.request_id,
            )
        self.hub.query_served(
            request.op, None, False, latency_s=self._clock() - started
        )
        return QueryResponse.control(payload, request_id=request.request_id)

    # -- wire execution (legacy dict shapes) ----------------------------

    def dispatch_wire(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Parse + dispatch + serialise one legacy request dict."""
        started = self._clock()
        op_guess = "invalid"
        request_id: int | str | None = None
        try:
            if isinstance(payload, Mapping):
                raw_id = payload.get("id")
                if isinstance(raw_id, (int, str)):
                    request_id = raw_id
                raw_op = payload.get("op")
                if isinstance(raw_op, str):
                    op_guess = raw_op
            request = parse_request(payload)
        except ServiceError as exc:
            self._emit_failure(op_guess, exc.code, started)
            return QueryResponse.failure(
                exc.code, str(exc), request_id=request_id
            ).to_wire()
        return self.dispatch(request).to_wire()

    def failure_wire(
        self,
        op: str,
        code: str,
        message: str,
        *,
        request_id: int | str | None = None,
    ) -> dict[str, Any]:
        """Emit + serialise a transport-level failure (undecodable JSON).

        For failures that happen before a request dict even exists —
        the transport saw bytes it could not decode — so the trace still
        accounts for the connection's every request.
        """
        self._emit_failure(op, code, self._clock())
        return QueryResponse.failure(
            code, message, request_id=request_id
        ).to_wire()

    def _emit_failure(self, op: str, code: str, started: float) -> None:
        self.hub.query_served(
            op, None, False, False, code, self._clock() - started
        )
