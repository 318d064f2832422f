"""Wire codec: round-trip fidelity, length budget, corruption handling."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.instance import InstanceState
from repro.errors import CodecError
from repro.net.codec import (
    MSG_PULL,
    MSG_PUSH,
    MSG_SAMPLE_REQUEST,
    MSG_SAMPLE_RESPONSE,
    WIRE_VERSION,
    WireCodec,
)
from repro.rngs import make_rng


def random_state(rng: np.random.Generator, iid: tuple[int, int]) -> InstanceState:
    """A random, realistically-evolved instance state."""
    k = int(rng.integers(2, 12))
    kv = int(rng.integers(0, 5))
    values = rng.uniform(-50.0, 50.0, size=int(rng.integers(1, 4)))
    state = InstanceState.initial(
        instance_id=iid,
        values=values,
        thresholds=rng.uniform(-60.0, 60.0, size=k),
        v_thresholds=rng.uniform(-60.0, 60.0, size=kv),
        ttl=int(rng.integers(1, 60)),
        initiator=bool(rng.random() < 0.5),
        started_round=int(rng.integers(0, 1000)),
    )
    # A few merges produce non-trivial fractional masses.
    for _ in range(int(rng.integers(0, 4))):
        other = state.snapshot()
        other.h.fractions = rng.uniform(0.0, 2.0, size=k)
        other.weight = float(rng.random())
        other.count_average = float(rng.uniform(0.5, 3.0))
        state.merge_from(other)
    return state


def assert_states_equal(a: InstanceState, b: InstanceState) -> None:
    assert a.instance_id == b.instance_id
    assert a.ttl == b.ttl
    assert a.initiator == b.initiator
    assert a.started_round == b.started_round
    assert a.weight == b.weight
    assert a.count_average == b.count_average
    assert a.h.minimum == b.h.minimum
    assert a.h.maximum == b.h.maximum
    np.testing.assert_array_equal(a.h.thresholds, b.h.thresholds)
    np.testing.assert_array_equal(a.h.fractions, b.h.fractions)
    np.testing.assert_array_equal(a.v_thresholds, b.v_thresholds)
    np.testing.assert_array_equal(a.v_fractions, b.v_fractions)


class TestRoundTrip:
    def test_fuzz_push_pull_round_trip(self):
        """Float64 payloads survive encode/decode bit-for-bit."""
        rng = make_rng(101)
        codec = WireCodec()
        for trial in range(200):
            kind = MSG_PUSH if trial % 2 == 0 else MSG_PULL
            states = {}
            for index in range(int(rng.integers(0, 5))):
                iid = (int(rng.integers(0, 2**32)), index)
                states[iid] = random_state(rng, iid)
            sender = int(rng.integers(0, 2**32))
            msg_id = int(rng.integers(0, 2**63))
            datagram = codec.encode_states(kind, sender, msg_id, codec.fit_states(states))
            message = codec.decode(datagram)
            assert message.kind == kind
            assert message.sender == sender
            assert message.msg_id == msg_id
            assert set(message.states) == set(codec.fit_states(states))
            for iid, state in message.states.items():
                assert_states_equal(state, states[iid])

    def test_sample_round_trip(self):
        codec = WireCodec()
        request = codec.decode(codec.encode_sample_request(7, 99))
        assert request.kind == MSG_SAMPLE_REQUEST
        assert request.wants_reply
        values = make_rng(5).normal(size=17)
        response = codec.decode(codec.encode_sample_response(7, 99, values))
        assert response.kind == MSG_SAMPLE_RESPONSE
        assert not response.wants_reply
        np.testing.assert_array_equal(response.values, values)

    def test_decoded_state_merges_like_the_original(self):
        """A decoded snapshot is a drop-in InstanceState for merging."""
        rng = make_rng(6)
        codec = WireCodec()
        state = random_state(rng, (3, 0))
        wire = codec.decode(
            codec.encode_states(MSG_PUSH, 3, 1, {(3, 0): state})
        ).states[(3, 0)]
        local = state.snapshot()
        local.merge_from(wire)
        np.testing.assert_allclose(local.h.fractions, state.h.fractions)
        assert local.weight == state.weight


class TestBudget:
    def test_fit_states_keeps_largest_prefix(self):
        rng = make_rng(8)
        codec = WireCodec(max_datagram=512)
        states = {(0, i): random_state(rng, (0, i)) for i in range(40)}
        kept = codec.fit_states(states)
        assert 0 < len(kept) < len(states)
        assert list(kept) == list(states)[: len(kept)]  # prefix, order kept
        datagram = codec.encode_states(MSG_PUSH, 0, 1, kept)
        assert len(datagram) <= codec.max_datagram

    def test_encode_over_budget_raises(self):
        rng = make_rng(9)
        codec = WireCodec(max_datagram=256)
        states = {(0, i): random_state(rng, (0, i)) for i in range(30)}
        with pytest.raises(CodecError, match="budget"):
            codec.encode_states(MSG_PUSH, 0, 1, states)

    def test_tiny_budget_rejected(self):
        with pytest.raises(CodecError):
            WireCodec(max_datagram=16)


class TestValidation:
    def test_bad_magic_rejected(self):
        codec = WireCodec()
        datagram = bytearray(codec.encode_sample_request(1, 1))
        datagram[0] = ord("X")
        with pytest.raises(CodecError, match="magic"):
            codec.decode(bytes(datagram))

    def test_unknown_version_rejected(self):
        codec = WireCodec()
        datagram = bytearray(codec.encode_sample_request(1, 1))
        datagram[2] = WIRE_VERSION + 1
        with pytest.raises(CodecError, match="version"):
            codec.decode(bytes(datagram))

    def test_truncation_fuzz_never_half_parses(self):
        """Every prefix of a valid datagram raises, never half-parses."""
        rng = make_rng(33)
        codec = WireCodec()
        states = {(1, i): random_state(rng, (1, i)) for i in range(3)}
        datagram = codec.encode_states(MSG_PUSH, 1, 4, codec.fit_states(states))
        for cut in range(len(datagram) - 1):
            with pytest.raises(CodecError):
                codec.decode(datagram[:cut])

    def test_corruption_fuzz_is_total(self):
        """Random byte flips either decode cleanly or raise CodecError —
        nothing else (no crashes, no other exception types)."""
        rng = make_rng(34)
        codec = WireCodec()
        states = {(1, i): random_state(rng, (1, i)) for i in range(2)}
        datagram = bytearray(codec.encode_states(MSG_PUSH, 1, 4, states))
        for _ in range(300):
            corrupted = bytearray(datagram)
            for _ in range(int(rng.integers(1, 4))):
                corrupted[int(rng.integers(0, len(corrupted)))] = int(rng.integers(0, 256))
            try:
                codec.decode(bytes(corrupted))
            except CodecError:
                pass

    def test_non_tuple_instance_id_rejected(self):
        rng = make_rng(35)
        codec = WireCodec()
        state = random_state(rng, (0, 0))
        with pytest.raises(CodecError, match="instance id"):
            codec.encode_states(MSG_PUSH, 0, 1, {"named-instance": state})

    def test_non_finite_numbers_rejected(self):
        """A NaN/inf anywhere a merge would average it is a CodecError:
        one poisoned datagram must not spread through the instance."""
        rng = make_rng(36)
        codec = WireCodec()
        state = random_state(rng, (2, 0))
        while state.v_fractions.size == 0:
            state = random_state(rng, (2, 0))
        datagram = codec.encode_states(MSG_PUSH, 2, 1, {(2, 0): state})
        fixed = 16 + 2  # header, state count
        poisons = [
            (fixed + 19, float("nan")),  # weight
            (fixed + 27, float("inf")),  # count_average
            (len(datagram) - 8, float("nan")),  # last v_fraction
            (fixed + 51 + 16 * state.h.thresholds.size, float("-inf")),  # first v_threshold
        ]
        for offset, poison in poisons:
            corrupted = bytearray(datagram)
            struct.pack_into("<d", corrupted, offset, poison)
            with pytest.raises(CodecError, match="non-finite"):
                codec.decode(bytes(corrupted))
        assert codec.decode(datagram).states[(2, 0)].weight == state.weight


def reference_state_record(iid: tuple[int, int], state: InstanceState) -> bytes:
    """Wire version 1 of one state, written with ``struct`` alone."""
    thresholds = [float(x) for x in state.h.thresholds]
    fractions = [float(x) for x in state.h.fractions]
    v_thresholds = [float(x) for x in state.v_thresholds]
    v_fractions = [float(x) for x in state.v_fractions]
    record = struct.pack(
        "<IIHBHHIdddd",
        iid[0], iid[1], state.ttl, 1 if state.initiator else 0,
        len(thresholds), len(v_thresholds), state.started_round,
        state.weight, state.count_average, state.h.minimum, state.h.maximum,
    )
    for array in (thresholds, fractions, v_thresholds, v_fractions):
        record += struct.pack(f"<{len(array)}d", *array)
    return record


def reference_states_datagram(kind, sender, msg_id, states) -> bytes:
    datagram = struct.pack("<2sBBIQ", b"A2", 1, kind, sender, msg_id)
    datagram += struct.pack("<H", len(states))
    for iid, state in states.items():
        datagram += reference_state_record(iid, state)
    return datagram


def awkward_layout(rng: np.random.Generator, state: InstanceState) -> InstanceState:
    """The same numbers behind strided, big-endian or float32-exact arrays."""
    def disguise(array: np.ndarray) -> np.ndarray:
        choice = int(rng.integers(0, 4))
        if choice == 0:
            return array
        if choice == 1:  # every other element of a wider buffer
            wide = np.zeros(2 * array.size, dtype=float)
            wide[::2] = array
            return wide[::2]
        if choice == 2:  # big-endian doubles
            return array.astype(">f8")
        return array[::-1].copy()[::-1]  # negative stride

    clone = state.snapshot()
    clone.h.thresholds = disguise(clone.h.thresholds)
    clone.h.fractions = disguise(clone.h.fractions)
    clone.v_thresholds = disguise(clone.v_thresholds)
    clone.v_fractions = disguise(clone.v_fractions)
    return clone


class TestWireBytes:
    """The datapath rework must not move one byte of wire version 1."""

    def test_states_match_the_struct_reference(self):
        rng = make_rng(4242)
        codec = WireCodec()
        shapes = set()
        for trial in range(300):
            kind = MSG_PUSH if trial % 2 == 0 else MSG_PULL
            states = {}
            for _ in range(int(rng.integers(0, 4))):
                iid = (int(rng.integers(0, 2**32)), int(rng.integers(0, 2**32)))
                states[iid] = awkward_layout(rng, random_state(rng, iid))
                shapes.add((states[iid].v_thresholds.size == 0, states[iid].initiator))
            sender = int(rng.integers(0, 2**32))
            msg_id = int(rng.integers(0, 2**64, dtype=np.uint64))
            datagram = codec.encode_states(kind, sender, msg_id, states)
            assert datagram == reference_states_datagram(kind, sender, msg_id, states)
            assert datagram == codec.pack_states(
                kind, sender, msg_id,
                [codec.encode_state(iid, state) for iid, state in states.items()],
            )
            decoded = codec.decode(datagram)
            assert list(decoded.states) == list(states)
            for iid, state in decoded.states.items():
                assert_states_equal(state, states[iid])
        # kv = 0 and kv > 0, initiator and not: all four really occurred
        assert shapes == {(a, b) for a in (True, False) for b in (True, False)}

    def test_float32_input_is_widened_not_reinterpreted(self):
        codec = WireCodec()
        state = random_state(make_rng(5), (1, 1))
        narrow = state.snapshot()
        narrow.h.fractions = state.h.fractions.astype(np.float32)
        narrow.v_fractions = state.v_fractions.astype(np.float32)
        datagram = codec.encode_states(MSG_PUSH, 1, 1, {(1, 1): narrow})
        assert datagram == reference_states_datagram(MSG_PUSH, 1, 1, {(1, 1): narrow})
        wire = codec.decode(datagram).states[(1, 1)]
        assert wire.h.fractions.dtype == np.float64
        np.testing.assert_array_equal(wire.h.fractions, narrow.h.fractions.astype(float))

    def test_sample_response_matches_the_struct_reference(self):
        rng = make_rng(4243)
        codec = WireCodec()
        for _ in range(50):
            values = rng.normal(size=int(rng.integers(0, 40)))
            if rng.random() < 0.5:
                values = np.repeat(values, 2)[::2]  # strided
            sender, msg_id = int(rng.integers(0, 2**32)), int(rng.integers(0, 2**63))
            expected = struct.pack("<2sBBIQ", b"A2", 1, MSG_SAMPLE_RESPONSE, sender, msg_id)
            expected += struct.pack(f"<H{values.size}d", values.size, *values.tolist())
            assert codec.encode_sample_response(sender, msg_id, values) == expected
        scalar = codec.encode_sample_response(3, 4, np.float64(2.5))
        assert scalar[-10:] == struct.pack("<Hd", 1, 2.5)

    def test_decoded_arrays_are_independent_and_own_their_memory(self):
        rng = make_rng(77)
        codec = WireCodec()
        state = random_state(rng, (9, 9))
        while state.v_fractions.size == 0:
            state = random_state(rng, (9, 9))
        datagram = codec.encode_states(MSG_PULL, 9, 1, {(9, 9): state})
        before = bytes(datagram)
        wire = codec.decode(datagram).states[(9, 9)]
        arrays = {
            "thresholds": wire.h.thresholds, "fractions": wire.h.fractions,
            "v_thresholds": wire.v_thresholds, "v_fractions": wire.v_fractions,
        }
        originals = {
            "thresholds": state.h.thresholds, "fractions": state.h.fractions,
            "v_thresholds": state.v_thresholds, "v_fractions": state.v_fractions,
        }
        for name, array in arrays.items():
            assert array.flags.writeable
            array[...] = -1.0  # in-place write to one array ...
            for other, untouched in arrays.items():
                if other != name:  # ... leaves the other three alone
                    np.testing.assert_array_equal(untouched, originals[other])
            array[...] = originals[name]
        wire.h.fractions *= 3.0
        wire.weight = 99.0
        assert datagram == before  # the datagram is not the arrays' buffer
        again = codec.decode(datagram).states[(9, 9)]
        assert_states_equal(again, state)

    def test_encoding_live_state_then_mutating_it_keeps_the_bytes(self):
        """encode_state's bytes are final: the handler merges right after."""
        rng = make_rng(78)
        codec = WireCodec()
        local = random_state(rng, (4, 2))
        frozen = local.snapshot()
        record = codec.encode_state((4, 2), local)
        remote = local.snapshot()
        remote.h.fractions = remote.h.fractions + 1.0
        remote.weight = 0.75
        local.merge_from(remote)
        local.h.fractions[...] = 0.0  # even an in-place write
        assert record == reference_state_record((4, 2), frozen)
