"""Node-daemon runtime: Adam2 over actual UDP sockets on localhost, or
over an in-memory fabric on virtual time.

The package layers the engine-independent protocol core onto real
networking, bottom-up:

* :mod:`repro.net.codec` — the versioned, length-budgeted wire format;
* :mod:`repro.net.faults` — seeded drop/delay/reorder fault injection;
* :mod:`repro.net.transport` — asyncio UDP endpoint with retries,
  timeouts, and duplicate suppression (at-most-once merges);
* :mod:`repro.net.peers` — the membership table and each daemon's
  liveness-aware view of it;
* :mod:`repro.net.node` — the node daemon (gossip timer, instance
  lifecycle, request handling) plus a per-process CLI;
* :mod:`repro.net.cluster` — the localhost cluster harness, in-process
  or one-OS-process-per-node;
* :mod:`repro.net.virtual` — an event loop on virtual time with an
  in-memory datagram fabric, which runs all of the above unchanged;
* :mod:`repro.net.backend` — the ``net`` backend behind
  :func:`repro.api.run`, and ``async``: the same on virtual time.

This is the only package allowed to open sockets or read real clocks
(lint rule ADM008 keeps everything else deterministic).

Attribute access is lazy (PEP 562) so ``python -m repro.net.node`` does
not re-execute a module the package already imported.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

__all__ = [
    "FaultInjector",
    "LocalCluster",
    "MemberTable",
    "Message",
    "NetBackend",
    "NodeDaemon",
    "FrameCodec",
    "PeerDirectory",
    "ServiceClient",
    "ServiceEndpoint",
    "ServiceWorkerPool",
    "UdpTransport",
    "WIRE_VERSION",
    "WireCodec",
    "run_process_cluster",
]

_EXPORTS = {
    "FaultInjector": "repro.net.faults",
    "LocalCluster": "repro.net.cluster",
    "MemberTable": "repro.net.peers",
    "Message": "repro.net.codec",
    "NetBackend": "repro.net.backend",
    "NodeDaemon": "repro.net.node",
    "FrameCodec": "repro.net.frames",
    "PeerDirectory": "repro.net.peers",
    "ServiceClient": "repro.net.service_endpoint",
    "ServiceEndpoint": "repro.net.service_endpoint",
    "ServiceWorkerPool": "repro.net.service_worker",
    "UdpTransport": "repro.net.transport",
    "WIRE_VERSION": "repro.net.codec",
    "WireCodec": "repro.net.codec",
    "run_process_cluster": "repro.net.cluster",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
