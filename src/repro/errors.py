"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch a single base class.  Lower-level substrates define subclasses
here rather than locally, which keeps failure handling uniform across the
simulators, the node runtime and the protocol layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent."""


class ProtocolError(ReproError):
    """A protocol invariant was violated (malformed message, bad merge)."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class WorkloadError(ReproError):
    """A workload/trace could not be generated or parsed."""


class EstimationError(ReproError):
    """A CDF estimate is unusable (e.g. queried before any instance ran)."""


class ServiceError(ReproError):
    """The estimation service cannot satisfy a request (:mod:`repro.service`).

    ``code`` classifies the failure for frontends: ``"bad_request"``
    (caller error — invalid arguments), ``"unavailable"`` (no estimate
    published yet, or the requested version was evicted), or
    ``"server_error"`` (anything else).  The TCP endpoint maps the code
    straight onto its wire-level error field.
    """

    def __init__(self, message: str, *, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


class PersistError(ReproError):
    """A durable snapshot-log operation failed (:mod:`repro.persist`).

    Raised for unusable log directories, invalid policies, and records
    that cannot be decoded.  Recovery itself never raises it for
    *corruption* — torn tails are truncated and corrupt records skipped
    (and counted) so a crashed service always restarts.
    """


class NetworkError(ReproError):
    """A real-network operation failed (:mod:`repro.net` runtime)."""


class CodecError(NetworkError):
    """A wire datagram could not be encoded within budget or decoded."""


class TransportTimeout(NetworkError):
    """A request exhausted its retries without receiving a response."""
