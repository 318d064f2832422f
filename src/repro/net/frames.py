"""The binary query-frame codec: length-prefixed frames for the endpoint.

The JSON-lines protocol spends most of a hot query's budget encoding and
decoding text.  This codec is the negotiated alternative: the same typed
:class:`~repro.service.protocol.QueryRequest` / ``QueryResponse`` values
packed with :mod:`struct` into compact length-prefixed frames, in the
style of the gossip datagram codec (:mod:`repro.net.codec`): a fixed
magic + version header, explicit length fields, and strict validation —
a truncated or corrupted frame raises :class:`~repro.errors.CodecError`
instead of yielding a half-parsed request.

Frame layout (all little-endian)::

    <2s magic "AQ"> <B version> <B kind> <I payload length> <payload>

Kinds: single request / single response / batch request / batch
response.  A request payload carries the registry op code
(:data:`repro.service.protocol.OPS`), optional integer id and version,
and the float64 args; a response payload carries ok/error flags, the
value or an error message, and — for control ops whose answers are
structured (``status`` / ``history``) — a JSON-encoded payload blob.
Batch payloads are a count followed by the members, which carry no ids
(batch results are positional).

Connections negotiate the codec in-band: a JSON-lines request
``{"op": "frame", "frame": "binary"}`` flips the connection to binary
frames after the (JSON) acknowledgement — see
:mod:`repro.net.service_endpoint`.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Mapping

from repro.errors import CodecError
from repro.service.protocol import (
    MAX_BATCH_OPS,
    OPS,
    BatchRequest,
    BatchResponse,
    InvalidOp,
    QueryRequest,
    QueryResponse,
    checked_request,
)

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "KIND_BATCH_REQUEST",
    "KIND_BATCH_RESPONSE",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "FrameCodec",
]

#: every query frame starts with these two bytes (gossip datagrams use "A2")
FRAME_MAGIC = b"AQ"
#: frame format version; bumped on any incompatible layout change
FRAME_VERSION = 1

KIND_REQUEST = 1  #: one QueryRequest
KIND_RESPONSE = 2  #: one QueryResponse
KIND_BATCH_REQUEST = 3  #: a BatchRequest envelope
KIND_BATCH_RESPONSE = 4  #: a BatchResponse envelope

_KINDS = frozenset({KIND_REQUEST, KIND_RESPONSE, KIND_BATCH_REQUEST, KIND_BATCH_RESPONSE})

#: header: magic, version, kind, payload length
HEADER = struct.Struct("<2sBBI")

_COUNT = struct.Struct("<H")
_REQ_FIXED = struct.Struct("<BBB")  # op code, flags, arg count
_RESP_FIXED = struct.Struct("<BB")  # flags, error code
_RESP_VALUE = struct.Struct("<BBd")  # the same, then a value: the common answer
_I64 = struct.Struct("<q")  # request id / version
_F64 = struct.Struct("<d")  # args / value
_MSG_LEN = struct.Struct("<H")  # error message length
_BLOB_LEN = struct.Struct("<I")  # JSON payload blob length

# request flags
_REQ_HAS_ID = 0x01
_REQ_HAS_VERSION = 0x02

# response flags
_RESP_OK = 0x01
_RESP_HAS_ID = 0x02
_RESP_HAS_VALUE = 0x04
_RESP_HAS_VERSION = 0x08
_RESP_HAS_MESSAGE = 0x10
_RESP_HAS_JSON = 0x20

#: error class tags <-> wire codes
_ERROR_CODES = {"bad_request": 1, "unavailable": 2, "server_error": 3}
_ERROR_NAMES = {code: name for name, code in _ERROR_CODES.items()}

_U16_MAX = 2**16 - 1

#: op code -> (wire op, arity, version required, the args of that arity)
_REQ_OPS = {
    spec.code: (
        spec.wire_op, len(spec.fields), spec.needs_version,
        struct.Struct(f"<{len(spec.fields)}d"),
    )
    for spec in OPS.values()
}


class FrameCodec:
    """Encodes and decodes query frames within a length budget.

    Args:
        max_frame: hard upper bound on one frame's payload in bytes
            (default 1 MiB — a full batch of control responses fits with
            room to spare, while a corrupted length field cannot make
            the reader allocate unbounded buffers).
    """

    def __init__(self, max_frame: int = 1 << 20) -> None:
        if max_frame < HEADER.size + _REQ_FIXED.size:
            raise CodecError(f"max_frame {max_frame} cannot fit a single request")
        self.max_frame = max_frame

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------

    def frame(self, kind: int, payload: bytes) -> bytes:
        if kind not in _KINDS:
            raise CodecError(f"unknown frame kind {kind}")
        if len(payload) > self.max_frame:
            raise CodecError(
                f"frame payload of {len(payload)} bytes exceeds the "
                f"{self.max_frame}-byte budget"
            )
        return HEADER.pack(FRAME_MAGIC, FRAME_VERSION, kind, len(payload)) + payload

    def unpack_header(self, header: bytes) -> tuple[int, int]:
        """Validate one 8-byte header; returns ``(kind, payload_length)``."""
        if len(header) != HEADER.size:
            raise CodecError(
                f"frame header is {len(header)} bytes, expected {HEADER.size}"
            )
        magic, version, kind, length = HEADER.unpack(header)
        if magic != FRAME_MAGIC:
            raise CodecError(f"bad frame magic {magic!r}")
        if version != FRAME_VERSION:
            raise CodecError(
                f"unsupported frame version {version} (speak {FRAME_VERSION})"
            )
        if kind not in _KINDS:
            raise CodecError(f"unknown frame kind {kind}")
        if length > self.max_frame:
            raise CodecError(
                f"frame announces {length} payload bytes; the budget is "
                f"{self.max_frame}"
            )
        return int(kind), int(length)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def encode_request(self, request: QueryRequest | BatchRequest) -> bytes:
        """One full frame (header + payload) for a typed request."""
        if isinstance(request, BatchRequest):
            parts = [self._encode_envelope_prefix(request.request_id, len(request.items))]
            for item in request.items:
                if isinstance(item, InvalidOp):
                    raise CodecError("cannot encode a batch holding unparseable slots")
                parts.append(self._encode_request_item(item, allow_id=False))
            return self.frame(KIND_BATCH_REQUEST, b"".join(parts))
        return self.frame(KIND_REQUEST, self._encode_request_item(request, allow_id=True))

    def _encode_request_item(self, request: QueryRequest, *, allow_id: bool) -> bytes:
        spec = OPS[request.op]
        flags = 0
        tail = b""
        if request.request_id is not None:
            if not allow_id:
                raise CodecError("batch members are positional and carry no ids")
            tail += _I64.pack(self._int_id(request.request_id))
            flags |= _REQ_HAS_ID
        if request.version is not None:
            tail += _I64.pack(int(request.version))
            flags |= _REQ_HAS_VERSION
        args = b"".join(_F64.pack(a) for a in request.args)
        return _REQ_FIXED.pack(spec.code, flags, len(request.args)) + tail + args

    def decode_request(self, kind: int, payload: bytes) -> QueryRequest | BatchRequest:
        if kind == KIND_REQUEST:
            request, offset = self._decode_request_item(payload, 0, allow_id=True)
            self._exhausted(payload, offset)
            return request
        if kind != KIND_BATCH_REQUEST:
            raise CodecError(f"frame kind {kind} is not a request")
        request_id, count, offset = self._decode_envelope_prefix(payload)
        if count == 0 or count > MAX_BATCH_OPS:
            raise CodecError(f"batch frame carries {count} ops (cap {MAX_BATCH_OPS})")
        items: list[QueryRequest | InvalidOp] = []
        for _ in range(count):
            item, offset = self._decode_request_item(payload, offset, allow_id=False)
            items.append(item)
        self._exhausted(payload, offset)
        return BatchRequest(tuple(items), request_id)

    def _decode_request_item(
        self, payload: bytes, offset: int, *, allow_id: bool
    ) -> tuple[QueryRequest, int]:
        """One request, every field checked here once (hence ``checked_request``)."""
        if len(payload) < offset + _REQ_FIXED.size:
            raise CodecError("frame truncated inside a request header")
        op_code, flags, nargs = payload[offset], payload[offset + 1], payload[offset + 2]
        offset += _REQ_FIXED.size
        known = _REQ_OPS.get(op_code)
        if known is None:
            raise CodecError(f"unknown request op code {op_code}")
        wire_op, arity, needs_version, args_struct = known
        request_id: int | None = None
        version: int | None = None
        if flags & _REQ_HAS_ID:
            if not allow_id:
                raise CodecError("batch member carries an id; results are positional")
            request_id, offset = self._read_i64(payload, offset, "request id")
        if flags & _REQ_HAS_VERSION:
            version, offset = self._read_i64(payload, offset, "version")
        end = offset + _F64.size * nargs
        if len(payload) < end:
            raise CodecError("frame truncated inside a request's arguments")
        if nargs != arity:
            raise CodecError(
                f"op {wire_op!r} takes {arity} argument(s), frame carries {nargs}"
            )
        if needs_version and version is None:
            raise CodecError(
                f"invalid request frame: op {wire_op!r} needs integer field 'version'"
            )
        args = args_struct.unpack_from(payload, offset)
        return checked_request(wire_op, args, version, request_id), end

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    def encode_response(self, response: QueryResponse | BatchResponse) -> bytes:
        """One full frame (header + payload) for a typed response."""
        if isinstance(response, BatchResponse):
            parts = [
                self._encode_envelope_prefix(response.request_id, len(response.results))
            ]
            for result in response.results:
                parts.append(self._encode_response_item(result, allow_id=False))
            return self.frame(KIND_BATCH_RESPONSE, b"".join(parts))
        return self.frame(
            KIND_RESPONSE, self._encode_response_item(response, allow_id=True)
        )

    def _encode_response_item(self, response: QueryResponse, *, allow_id: bool) -> bytes:
        if (response.ok and response.value is not None and response.version is None
                and response.payload is None
                and (response.request_id is None or not allow_id)):
            return _RESP_VALUE.pack(_RESP_OK | _RESP_HAS_VALUE, 0, response.value)
        flags = _RESP_OK if response.ok else 0
        error_code = 0
        tail = b""
        if response.request_id is not None and allow_id:
            tail += _I64.pack(self._int_id(response.request_id))
            flags |= _RESP_HAS_ID
        if response.value is not None:
            tail += _F64.pack(float(response.value))
            flags |= _RESP_HAS_VALUE
        if response.version is not None:
            tail += _I64.pack(int(response.version))
            flags |= _RESP_HAS_VERSION
        if not response.ok:
            error_code = _ERROR_CODES.get(response.error or "server_error", 3)
            message = (response.message or "").encode("utf-8")[: _U16_MAX]
            tail += _MSG_LEN.pack(len(message)) + message
            flags |= _RESP_HAS_MESSAGE
        if response.payload is not None:
            blob = json.dumps(dict(response.payload), separators=(",", ":")).encode()
            tail += _BLOB_LEN.pack(len(blob)) + blob
            flags |= _RESP_HAS_JSON
        return _RESP_FIXED.pack(flags, error_code) + tail

    def decode_response(self, kind: int, payload: bytes) -> QueryResponse | BatchResponse:
        if kind == KIND_RESPONSE:
            response, offset = self._decode_response_item(payload, 0)
            self._exhausted(payload, offset)
            return response
        if kind != KIND_BATCH_RESPONSE:
            raise CodecError(f"frame kind {kind} is not a response")
        request_id, count, offset = self._decode_envelope_prefix(payload)
        results: list[QueryResponse] = []
        for _ in range(count):
            result, offset = self._decode_response_item(payload, offset)
            results.append(result)
        self._exhausted(payload, offset)
        return BatchResponse(tuple(results), request_id)

    def _decode_response_item(
        self, payload: bytes, offset: int
    ) -> tuple[QueryResponse, int]:
        if len(payload) < offset + _RESP_FIXED.size:
            raise CodecError("frame truncated inside a response header")
        flags, error_code = _RESP_FIXED.unpack_from(payload, offset)
        offset += _RESP_FIXED.size
        request_id: int | None = None
        if flags & _RESP_HAS_ID:
            request_id, offset = self._read_i64(payload, offset, "response id")
        value: float | None = None
        if flags & _RESP_HAS_VALUE:
            if len(payload) < offset + _F64.size:
                raise CodecError("frame truncated inside a response value")
            value = float(_F64.unpack_from(payload, offset)[0])
            offset += _F64.size
        version: int | None = None
        if flags & _RESP_HAS_VERSION:
            version, offset = self._read_i64(payload, offset, "response version")
        message: str | None = None
        if flags & _RESP_HAS_MESSAGE:
            if len(payload) < offset + _MSG_LEN.size:
                raise CodecError("frame truncated before an error message")
            (length,) = _MSG_LEN.unpack_from(payload, offset)
            offset += _MSG_LEN.size
            if len(payload) < offset + length:
                raise CodecError("frame truncated inside an error message")
            message = payload[offset : offset + length].decode("utf-8", "replace")
            offset += length
        blob: Mapping[str, Any] | None = None
        if flags & _RESP_HAS_JSON:
            if len(payload) < offset + _BLOB_LEN.size:
                raise CodecError("frame truncated before a JSON payload")
            (length,) = _BLOB_LEN.unpack_from(payload, offset)
            offset += _BLOB_LEN.size
            if len(payload) < offset + length:
                raise CodecError("frame truncated inside a JSON payload")
            try:
                decoded = json.loads(payload[offset : offset + length])
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise CodecError(f"malformed JSON payload in frame: {exc}") from exc
            if not isinstance(decoded, dict):
                raise CodecError("frame JSON payload is not an object")
            blob = decoded
            offset += length
        ok = bool(flags & _RESP_OK)
        if not ok:
            return (
                QueryResponse.failure(
                    _ERROR_NAMES.get(error_code, "server_error"),
                    message or "request failed",
                    request_id=request_id,
                ),
                offset,
            )
        return (
            QueryResponse(
                ok=True, value=value, version=version,
                request_id=request_id, payload=blob,
            ),
            offset,
        )

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------

    def _encode_envelope_prefix(self, request_id: int | str | None, count: int) -> bytes:
        if count == 0 or count > MAX_BATCH_OPS:
            raise CodecError(f"batch frame carries {count} ops (cap {MAX_BATCH_OPS})")
        flags = 0
        tail = b""
        if request_id is not None:
            tail = _I64.pack(self._int_id(request_id))
            flags = _REQ_HAS_ID
        return bytes((flags,)) + tail + _COUNT.pack(count)

    def _decode_envelope_prefix(self, payload: bytes) -> tuple[int | None, int, int]:
        if len(payload) < 1:
            raise CodecError("batch frame truncated before its flags")
        flags = payload[0]
        offset = 1
        request_id: int | None = None
        if flags & _REQ_HAS_ID:
            request_id, offset = self._read_i64(payload, offset, "batch id")
        if len(payload) < offset + _COUNT.size:
            raise CodecError("batch frame truncated before its count")
        (count,) = _COUNT.unpack_from(payload, offset)
        offset += _COUNT.size
        return request_id, int(count), offset

    @staticmethod
    def _int_id(request_id: int | str) -> int:
        if isinstance(request_id, bool) or not isinstance(request_id, int):
            raise CodecError(
                f"binary frames carry integer request ids only, got {request_id!r}"
            )
        return request_id

    @staticmethod
    def _read_i64(payload: bytes, offset: int, what: str) -> tuple[int, int]:
        if len(payload) < offset + _I64.size:
            raise CodecError(f"frame truncated inside {what}")
        (value,) = _I64.unpack_from(payload, offset)
        return int(value), offset + _I64.size

    @staticmethod
    def _exhausted(payload: bytes, offset: int) -> None:
        if offset != len(payload):
            raise CodecError(f"{len(payload) - offset} trailing bytes after frame payload")
