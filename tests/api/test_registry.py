"""Backend registry edge cases: registration, replacement, lookup."""

from __future__ import annotations

import pytest

from repro.api import (
    Backend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.api import _REGISTRY  # noqa: PLC2701 — tests restore registry state
from repro.errors import ConfigurationError


class _Stub(Backend):
    name = "stub"
    supported_options = frozenset({"knob"})

    def run(self, spec, hub):  # pragma: no cover - never executed
        raise NotImplementedError


@pytest.fixture
def clean_registry():
    """Snapshot and restore the process-wide registry around each test."""
    snapshot = dict(_REGISTRY)
    try:
        yield
    finally:
        _REGISTRY.clear()
        _REGISTRY.update(snapshot)


class TestRegisterBackend:
    def test_builtin_backends_present(self):
        assert {"fast", "async", "net"} <= set(list_backends())

    def test_register_and_lookup(self, clean_registry):
        stub = _Stub()
        register_backend(stub)
        assert get_backend("stub") is stub

    def test_duplicate_name_replaces_silently(self, clean_registry):
        first, second = _Stub(), _Stub()
        register_backend(first)
        register_backend(second)
        assert get_backend("stub") is second  # latest registration wins

    def test_blank_name_rejected(self, clean_registry):
        stub = _Stub()
        stub.name = ""
        with pytest.raises(ConfigurationError, match="distinctive name"):
            register_backend(stub)

    def test_default_base_name_rejected(self, clean_registry):
        stub = _Stub()
        stub.name = Backend.name  # "backend": forgot to override
        with pytest.raises(ConfigurationError, match="distinctive name"):
            register_backend(stub)

    def test_replacement_does_not_change_other_entries(self, clean_registry):
        before = set(list_backends())
        register_backend(_Stub())
        register_backend(_Stub())
        assert set(list_backends()) == before | {"stub"}


class TestListBackends:
    def test_sorted_order(self, clean_registry):
        stub_z, stub_a = _Stub(), _Stub()
        stub_z.name = "zzz"
        stub_a.name = "aaa"
        register_backend(stub_z)
        register_backend(stub_a)
        names = list_backends()
        assert names == sorted(names)
        assert names.index("aaa") < names.index("zzz")

    def test_listing_is_a_copy(self, clean_registry):
        names = list_backends()
        names.append("bogus")
        assert "bogus" not in list_backends()


class TestGetBackend:
    def test_unknown_name_fails_loudly_with_known_names(self):
        with pytest.raises(ConfigurationError, match="unknown backend 'nope'"):
            get_backend("nope")

    def test_error_lists_registered_backends(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("nope")
        message = str(excinfo.value)
        # Every registered backend must be named, quoted, in the message —
        # the caller should never have to guess what `backend=` accepts.
        for name in list_backends():
            assert repr(name) in message
        assert "registered backends:" in message

    def test_net_backend_options(self):
        net = get_backend("net")
        assert "drop_rate" in net.supported_options
        with pytest.raises(ConfigurationError, match="does not support"):
            net.validate_options({"warp_speed": True})
