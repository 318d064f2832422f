"""Adam2 protocol configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.core.conservation import register_non_conserving

__all__ = ["Adam2Config", "LITERAL_JOIN_BIAS", "bootstrap_sample_size"]

_JOIN_MODES = ("symmetric", "literal")

#: The estimation bias of the paper's Fig. 1 join rule, declared once so
#: every kernel implementing the mode registers the same account of it.
LITERAL_JOIN_BIAS = (
    "Fig. 1 literal join: the joiner averages with the contacted peer's state "
    "but the peer ignores the empty reply, duplicating the peer's averaged "
    "mass; fraction/weight column sums inflate with every join, so size "
    "estimates 1/w are biased low and fractions are pulled towards "
    "already-joined nodes' values"
)
register_non_conserving("literal", LITERAL_JOIN_BIAS)
_ERROR_TARGETS = ("average", "maximum")


@dataclass(frozen=True)
class Adam2Config:
    """Parameters of the Adam2 protocol.

    Attributes:
        points: number of interpolation points ``λ`` (paper default 50).
        rounds_per_instance: the instance time-to-live in gossip rounds;
            the paper considers 25 rounds sufficient for the averaging
            protocol to converge at the interpolation points.
        instance_frequency: the system constant ``R``; in the
            self-organising mode a node starts a new instance each round
            with probability ``1 / (N_p * R)``, so a new instance appears
            on average every ``R`` rounds system-wide.
        selection: threshold-refinement heuristic used from the second
            instance on: ``"hcut"``, ``"minmax"``, or ``"lcut"``.
        bootstrap: threshold-selection used for the very first instance
            (no previous estimate): ``"uniform"`` or ``"neighbour"``.
        verification_points: number of verification points for dynamic
            confidence estimation; 0 disables it.
        verification_target: which error metric the verification points
            are placed for — ``"average"`` (uniform placement) or
            ``"maximum"`` (widest-vertical-gap bisection), per §VI.
        join_mode: how a peer joins a running instance mid-gossip.
            ``"symmetric"`` (default) initialises the joiner and performs
            a normal symmetric averaging exchange, which conserves mass
            and converges to the exact fractions.  ``"literal"`` follows
            the paper's Fig. 1 pseudocode to the letter (the joiner merges
            but the contacted peer ignores the empty reply), which is not
            mass-conserving; it is kept for the ablation benchmark.
        initial_size_estimate: bootstrap value for ``N_p`` before the
            first completed instance (nodes joining the system are
            bootstrapped by their initial neighbours, §IV).
        point_bytes: wire-size model — bytes per interpolation point; the
            paper's 800-byte message at λ=50 implies 16 bytes per point.
        header_bytes: fixed per-message overhead in the cost model.
    """

    points: int = 50
    rounds_per_instance: int = 25
    instance_frequency: int = 50
    selection: str = "minmax"
    bootstrap: str = "neighbour"
    verification_points: int = 0
    verification_target: str = "average"
    join_mode: str = "symmetric"
    initial_size_estimate: float = 100.0
    point_bytes: int = 16
    header_bytes: int = 0

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ConfigurationError(f"need at least 2 interpolation points, got {self.points}")
        if self.rounds_per_instance < 1:
            raise ConfigurationError("rounds_per_instance must be >= 1")
        if self.instance_frequency < 1:
            raise ConfigurationError("instance_frequency must be >= 1")
        if self.selection not in ("hcut", "minmax", "lcut", "lcut_global"):
            raise ConfigurationError(f"unknown selection heuristic {self.selection!r}")
        if self.bootstrap not in ("uniform", "neighbour"):
            raise ConfigurationError(f"unknown bootstrap mode {self.bootstrap!r}")
        if self.verification_points < 0:
            raise ConfigurationError("verification_points must be >= 0")
        if self.verification_target not in _ERROR_TARGETS:
            raise ConfigurationError(f"unknown verification target {self.verification_target!r}")
        if self.join_mode not in _JOIN_MODES:
            raise ConfigurationError(f"unknown join mode {self.join_mode!r}")
        if self.initial_size_estimate <= 0:
            raise ConfigurationError("initial_size_estimate must be positive")
        if self.point_bytes <= 0 or self.header_bytes < 0:
            raise ConfigurationError("invalid wire-size model")

    def message_bytes(self) -> int:
        """Model of one gossip message's size for this configuration.

        Counts the interpolation points, the two extreme values, the
        verification points, and the weight variable, at
        :attr:`point_bytes` per (threshold, fraction) pair.
        """
        pairs = self.points + self.verification_points + 1  # +1: extremes
        return self.header_bytes + self.point_bytes * pairs + 8  # +8: weight


def bootstrap_sample_size(config: Adam2Config, requested: int | None = None) -> int:
    """Neighbour attribute values an initiator collects for the
    neighbour-based bootstrap: the caller's choice, else enough to place
    every interpolation point (at least 20)."""
    return requested or max(config.points, 20)
