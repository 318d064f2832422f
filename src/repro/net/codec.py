"""The versioned Adam2 wire codec: datagram encoding of gossip payloads.

One UDP datagram carries one message.  Every message starts with a fixed
header (magic, version, kind, sender id, message id); push/pull messages
then carry a sequence of :class:`~repro.core.instance.InstanceState`
snapshots (instance id, TTL, weight, count average, extrema, and the
threshold/fraction arrays), sample messages carry attribute values for
the neighbour-based bootstrap.

The codec is *length-budgeted*: :meth:`WireCodec.encode_states` refuses
to build a datagram larger than ``max_datagram`` (callers trim their
payload with :meth:`WireCodec.fit_states` first), and :meth:`decode`
validates magic, version, and every length field so a truncated or
corrupted datagram raises :class:`~repro.errors.CodecError` instead of
yielding a half-parsed state.

All multi-byte fields are little-endian; arrays are float64.  Instance
ids on the wire are ``(origin u32, counter u32)`` pairs, matching the
``(node_id, counter)`` tuples :class:`~repro.core.node.Adam2Node`
assigns.

Each direction touches a state's numbers once: encoding serialises the
arrays it is handed (live protocol state included — nothing is cloned
first) and lets the ``struct.pack`` that writes the integer fields
range-check them; decoding copies a state's ``2k + 2kv`` doubles as one
block, checks its finiteness once, and slices it into the four arrays
(disjoint, writable, none aliasing the datagram).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from repro.core.instance import InstanceState
from repro.core.interpolation import InterpolationSet
from repro.errors import CodecError

__all__ = [
    "MSG_PUSH",
    "MSG_PULL",
    "MSG_SAMPLE_REQUEST",
    "MSG_SAMPLE_RESPONSE",
    "WIRE_VERSION",
    "Message",
    "WireCodec",
]

#: protocol magic: every Adam2 datagram starts with these two bytes
MAGIC = b"A2"
#: wire format version; bumped on any incompatible layout change
WIRE_VERSION = 1

#: message kinds
MSG_PUSH = 1  #: gossip request carrying the sender's instance snapshots
MSG_PULL = 2  #: gossip response carrying the responder's pre-merge snapshots
MSG_SAMPLE_REQUEST = 3  #: bootstrap request for a peer's attribute values
MSG_SAMPLE_RESPONSE = 4  #: bootstrap response carrying attribute values

_KINDS = frozenset({MSG_PUSH, MSG_PULL, MSG_SAMPLE_REQUEST, MSG_SAMPLE_RESPONSE})

#: header: magic, version, kind, sender id, message id
_HEADER = struct.Struct("<2sBBIQ")
#: state count / value count prefix
_COUNT = struct.Struct("<H")
#: per-state fixed part: origin, counter, ttl, flags, k, kv,
#: started_round, weight, count_average, minimum, maximum
_STATE_FIXED = struct.Struct("<IIHBHHIdddd")

_FLAG_INITIATOR = 0x01
_F8 = np.dtype("<f8")

_U32_MAX = 2**32 - 1
_U16_MAX = 2**16 - 1


@dataclass(frozen=True, slots=True)
class Message:
    """A decoded datagram.

    Attributes:
        kind: one of the ``MSG_*`` constants.
        sender: wire id of the sending node.
        msg_id: sender-scoped message id (responses echo the request's).
        states: instance snapshots (push/pull messages; empty otherwise).
        values: attribute values (sample responses; empty otherwise).
    """

    kind: int
    sender: int
    msg_id: int
    states: dict[Hashable, InstanceState]
    values: np.ndarray

    @property
    def wants_reply(self) -> bool:
        """Whether this message kind expects a correlated response."""
        return self.kind in (MSG_PUSH, MSG_SAMPLE_REQUEST)


class WireCodec:
    """Encodes and decodes Adam2 datagrams within a length budget.

    Args:
        max_datagram: hard upper bound on encoded datagram size in bytes
            (default 8 KiB — comfortably under the localhost UDP limit
            while keeping kernel buffers shallow).
    """

    def __init__(self, max_datagram: int = 8192):
        if max_datagram < _HEADER.size + _COUNT.size + _STATE_FIXED.size + 16:
            raise CodecError(f"max_datagram {max_datagram} cannot fit a single state")
        self.max_datagram = max_datagram
        #: bytes left for state records after the header and the count
        self.states_budget = max_datagram - _HEADER.size - _COUNT.size

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    @staticmethod
    def state_size(state: InstanceState) -> int:
        """Encoded size of one instance snapshot in bytes."""
        k = int(state.h.thresholds.size)
        kv = int(state.v_thresholds.size)
        return _STATE_FIXED.size + 8 * (2 * k + 2 * kv)

    def fit_states(
        self, states: Mapping[Hashable, InstanceState]
    ) -> dict[Hashable, InstanceState]:
        """The largest prefix of ``states`` that fits the datagram budget.

        Iteration order is preserved (callers order by importance, e.g.
        highest TTL first); states that do not fit are dropped — gossip
        is redundant, so a dropped state rides a later datagram.
        """
        budget = self.states_budget
        kept: dict[Hashable, InstanceState] = {}
        for iid, state in states.items():
            size = self.state_size(state)
            if size > budget:
                break
            budget -= size
            kept[iid] = state
        return kept

    def fit_records(self, records: list[bytes]) -> list[bytes]:
        """:meth:`fit_states` for already-encoded :meth:`encode_state` records."""
        budget = self.states_budget
        for count, record in enumerate(records):
            budget -= len(record)
            if budget < 0:
                return records[:count]
        return records

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _header(self, kind: int, sender: int, msg_id: int) -> bytes:
        try:
            return _HEADER.pack(MAGIC, WIRE_VERSION, kind, sender, msg_id)
        except struct.error:
            raise CodecError(
                f"header (kind, sender, msg_id) = ({kind!r}, {sender!r}, {msg_id!r}) "
                f"outside the u8 / u32 / u64 wire ranges"
            ) from None

    def encode_state(self, instance_id: Hashable, state: InstanceState) -> bytes:
        """One state's wire record: the fixed part, then its four arrays.

        The bytes are final when this returns, so a caller may mutate
        ``state`` (merge into it) right after without cloning it first.
        """
        h = state.h
        k = h.thresholds.size
        kv = state.v_thresholds.size
        if k != h.fractions.size or kv != state.v_fractions.size:
            raise CodecError(f"state {instance_id!r} has mismatched threshold/fraction arrays")
        pair: Any = instance_id
        try:
            origin, counter = pair
            fixed = _STATE_FIXED.pack(
                origin,
                counter,
                state.ttl,
                _FLAG_INITIATOR if state.initiator else 0,
                k,
                kv,
                max(0, min(state.started_round, _U32_MAX)),
                state.weight,
                state.count_average,
                h.minimum,
                h.maximum,
            )
        except (TypeError, ValueError, struct.error):
            raise CodecError(
                f"state {instance_id!r} does not fit the wire: the instance id must be a "
                f"(node_id, counter) u32 pair, the TTL ({state.ttl}) and the point "
                f"counts ({k}, {kv}) u16, every other field a number"
            ) from None
        # tobytes() writes C order whatever the strides: only a foreign
        # dtype needs converting.
        return fixed + b"".join([
            (array if array.dtype == _F8 else array.astype(_F8)).tobytes()
            for array in (h.thresholds, h.fractions, state.v_thresholds, state.v_fractions)
        ])

    def pack_states(
        self, kind: int, sender: int, msg_id: int, records: Sequence[bytes]
    ) -> bytes:
        """Frame :meth:`encode_state` records as one push or pull datagram."""
        if kind not in (MSG_PUSH, MSG_PULL):
            raise CodecError(f"kind {kind} does not carry instance states")
        if len(records) > _U16_MAX:
            raise CodecError(f"too many states for one datagram: {len(records)}")
        datagram = b"".join(
            [self._header(kind, sender, msg_id), _COUNT.pack(len(records)), *records]
        )
        if len(datagram) > self.max_datagram:
            raise CodecError(
                f"datagram of {len(datagram)} bytes exceeds the "
                f"{self.max_datagram}-byte budget ({len(records)} states); "
                f"trim the payload with fit_states() first"
            )
        return datagram

    def encode_states(
        self,
        kind: int,
        sender: int,
        msg_id: int,
        states: Mapping[Hashable, InstanceState],
    ) -> bytes:
        """Encode a push or pull datagram carrying instance snapshots."""
        return self.pack_states(
            kind, sender, msg_id,
            [self.encode_state(iid, state) for iid, state in states.items()],
        )

    def encode_sample_request(self, sender: int, msg_id: int) -> bytes:
        """Encode a bootstrap request for a peer's attribute values."""
        return self._header(MSG_SAMPLE_REQUEST, sender, msg_id)

    def encode_sample_response(self, sender: int, msg_id: int, values: np.ndarray) -> bytes:
        """Encode a bootstrap response carrying attribute values."""
        values = np.atleast_1d(np.asarray(values, dtype=_F8))
        budget = (self.max_datagram - _HEADER.size - _COUNT.size) // 8
        if values.size > min(budget, _U16_MAX):
            values = values[: min(budget, _U16_MAX)]
        return (
            self._header(MSG_SAMPLE_RESPONSE, sender, msg_id)
            + _COUNT.pack(values.size)
            + values.tobytes()
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(self, datagram: bytes) -> Message:
        """Decode one datagram; malformed input raises :class:`CodecError`."""
        if len(datagram) > self.max_datagram:
            raise CodecError(f"datagram of {len(datagram)} bytes exceeds the budget")
        if len(datagram) < _HEADER.size:
            raise CodecError(f"datagram of {len(datagram)} bytes is shorter than the header")
        magic, version, kind, sender, msg_id = _HEADER.unpack_from(datagram, 0)
        if magic != MAGIC:
            raise CodecError(f"bad magic {magic!r}")
        if version != WIRE_VERSION:
            raise CodecError(f"unsupported wire version {version} (speak {WIRE_VERSION})")
        if kind not in _KINDS:
            raise CodecError(f"unknown message kind {kind}")
        offset = _HEADER.size
        states: dict[Hashable, InstanceState] = {}
        values = np.empty(0, dtype=float)
        if kind in (MSG_PUSH, MSG_PULL):
            states, offset = self._decode_states(datagram, offset)
        elif kind == MSG_SAMPLE_RESPONSE:
            values, offset = self._decode_values(datagram, offset)
        if offset != len(datagram):
            raise CodecError(f"{len(datagram) - offset} trailing bytes after payload")
        return Message(kind=kind, sender=sender, msg_id=msg_id, states=states, values=values)

    def _decode_states(
        self, datagram: bytes, offset: int
    ) -> tuple[dict[Hashable, InstanceState], int]:
        if len(datagram) < offset + _COUNT.size:
            raise CodecError("datagram truncated before the state count")
        (count,) = _COUNT.unpack_from(datagram, offset)
        offset += _COUNT.size
        states: dict[Hashable, InstanceState] = {}
        for _ in range(count):
            if len(datagram) < offset + _STATE_FIXED.size:
                raise CodecError("datagram truncated inside a state header")
            (
                origin, counter, ttl, flags, k, kv, started_round,
                weight, count_average, minimum, maximum,
            ) = _STATE_FIXED.unpack_from(datagram, offset)
            offset += _STATE_FIXED.size
            doubles = 2 * k + 2 * kv
            if len(datagram) < offset + 8 * doubles:
                raise CodecError("datagram truncated inside a state's arrays")
            # The one copy: the slices below are disjoint writable views
            # of a block that no longer aliases the datagram.
            block = np.frombuffer(datagram, _F8, doubles, offset).copy()
            offset += 8 * doubles
            if not (
                np.isfinite(block).all()
                and math.isfinite(weight)
                and math.isfinite(count_average)
            ):
                raise CodecError(f"state ({origin}, {counter}) carries non-finite numbers")
            if not (math.isfinite(minimum) and math.isfinite(maximum) and minimum <= maximum):
                raise CodecError(
                    f"state ({origin}, {counter}) extremes [{minimum}, {maximum}] invalid"
                )
            iid = (origin, counter)
            if iid in states:
                raise CodecError(f"duplicate state {iid!r} in one datagram")
            split = 2 * k
            states[iid] = InstanceState(
                instance_id=iid,
                h=InterpolationSet(
                    thresholds=block[:k],
                    fractions=block[k:split],
                    minimum=minimum,
                    maximum=maximum,
                ),
                weight=weight,
                v_thresholds=block[split:split + kv],
                v_fractions=block[split + kv:],
                count_average=count_average,
                ttl=ttl,
                started_round=started_round,
                initiator=bool(flags & _FLAG_INITIATOR),
            )
        return states, offset

    def _decode_values(self, datagram: bytes, offset: int) -> tuple[np.ndarray, int]:
        if len(datagram) < offset + _COUNT.size:
            raise CodecError("datagram truncated before the value count")
        (count,) = _COUNT.unpack_from(datagram, offset)
        offset += _COUNT.size
        if len(datagram) < offset + 8 * count:
            raise CodecError("datagram truncated inside the value array")
        values = np.frombuffer(datagram, _F8, count, offset).copy()
        offset += 8 * count
        if not np.isfinite(values).all():
            raise CodecError("sample response carries non-finite values")
        return values, offset
