"""Adam2 node logic: starting, joining, gossiping and terminating instances.

:class:`Adam2Node` is independent of any transport, so it can be
unit-tested by wiring nodes together directly.  The node daemons of
:mod:`repro.net` run it over datagrams (``backend="net"``/``"async"``);
:func:`gossip_exchange` is one exchange of :mod:`repro.fastsim`'s
sequential round in object form, which the tests use as that kernel's
exact oracle.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

import numpy as np

from repro.errors import EstimationError, ProtocolError
from repro.core.cdf import EstimatedCDF
from repro.core.config import Adam2Config
from repro.core.confidence import ConfidenceReport, estimate_errors, select_verification_points
from repro.core.instance import InstanceState
from repro.core.selection import get_selection
from repro.core.sizing import size_from_weight

__all__ = ["Adam2Node", "gossip_exchange", "CompletedInstance"]


class CompletedInstance:
    """Record of one terminated instance at one node."""

    __slots__ = ("instance_id", "estimate", "system_size", "confidence", "round")

    def __init__(
        self,
        instance_id: Hashable,
        estimate: EstimatedCDF,
        system_size: float | None,
        confidence: ConfidenceReport | None,
        round_: int,
    ):
        self.instance_id = instance_id
        self.estimate = estimate
        self.system_size = system_size
        self.confidence = confidence
        self.round = round_


class Adam2Node:
    """One peer executing the Adam2 protocol.

    Args:
        node_id: stable identifier of the peer.
        values: the peer's attribute value(s); scalar or 1-D array
            (multi-value mode, §IV).
        config: protocol parameters.
        rng: the peer's private random generator.
    """

    def __init__(
        self,
        node_id: Hashable,
        values: float | np.ndarray,
        config: Adam2Config,
        rng: np.random.Generator,
    ):
        self.node_id = node_id
        self.values = np.atleast_1d(np.asarray(values, dtype=float))
        if self.values.size == 0:
            raise ProtocolError("node must hold at least one attribute value")
        self.config = config
        self.rng = rng
        #: running instances, keyed by instance id
        self.instances: dict[Hashable, InstanceState] = {}
        #: most recent finalised CDF estimate (None until one completes)
        self.current_estimate: EstimatedCDF | None = None
        #: most recent system-size estimate ``N_p``
        self.size_estimate: float = config.initial_size_estimate
        #: most recent confidence self-assessment
        self.last_confidence: ConfidenceReport | None = None
        #: history of completed instances at this node
        self.completed: list[CompletedInstance] = []
        #: ids of instances this node already terminated (tombstones);
        #: prevents re-joining an instance via a stale in-flight message
        #: after local termination (an async/churn race).
        self.finished_ids: set[Hashable] = set()
        self._instance_counter = 0

    # ------------------------------------------------------------------
    # Instance lifecycle
    # ------------------------------------------------------------------

    def should_start_instance(self) -> bool:
        """Probabilistic self-selection: ``P_s = 1 / (N_p * R)`` (§IV)."""
        probability = 1.0 / (max(self.size_estimate, 1.0) * self.config.instance_frequency)
        return bool(self.rng.random() < probability)

    def start_instance(
        self,
        neighbour_values: np.ndarray | None = None,
        round_: int = 0,
        instance_id: Hashable | None = None,
    ) -> Hashable:
        """Start a new aggregation instance as initiator.

        Thresholds come from the configured refinement heuristic when a
        previous estimate exists, else from the configured bootstrap
        heuristic (which may need ``neighbour_values``).
        """
        if instance_id is None:
            instance_id = (self.node_id, self._instance_counter)
            self._instance_counter += 1
        if instance_id in self.instances:
            raise ProtocolError(f"instance {instance_id!r} already running at this node")

        local = self.values
        pool = local if neighbour_values is None else np.concatenate(
            (np.asarray(neighbour_values, dtype=float), local)
        )
        heuristic = self.config.selection if self.current_estimate is not None else self.config.bootstrap
        thresholds = get_selection(heuristic).select(
            self.config.points, self.current_estimate, self.rng, neighbour_values=pool
        )

        if self.current_estimate is not None:
            domain = (self.current_estimate.minimum, self.current_estimate.maximum)
        else:
            domain = (float(pool.min()), float(pool.max()))
        v_thresholds = select_verification_points(
            self.config.verification_points,
            self.config.verification_target,
            self.current_estimate,
            domain[0],
            domain[1],
        )
        self.instances[instance_id] = InstanceState.initial(
            instance_id=instance_id,
            values=self.values,
            thresholds=thresholds,
            v_thresholds=v_thresholds,
            ttl=self.config.rounds_per_instance,
            initiator=True,
            started_round=round_,
        )
        return instance_id

    def join_instance(self, template: InstanceState, round_: int = 0) -> InstanceState:
        """Initialise local state for an instance first seen via gossip."""
        if template.instance_id in self.instances:
            raise ProtocolError(f"already participating in {template.instance_id!r}")
        if template.instance_id in self.finished_ids:
            raise ProtocolError(f"instance {template.instance_id!r} already terminated here")
        state = InstanceState.initial(
            instance_id=template.instance_id,
            values=self.values,
            thresholds=template.h.thresholds,
            v_thresholds=template.v_thresholds,
            ttl=template.ttl,
            initiator=False,
            started_round=round_,
        )
        self.instances[template.instance_id] = state
        return state

    def receive(
        self,
        states: Mapping[Hashable, InstanceState],
        round_: int = 0,
        before_merge: Callable[[Hashable, InstanceState], None] | None = None,
    ) -> None:
        """The passive half of a push–pull exchange, per delivered message.

        For every remote state: an instance unknown here is joined unless
        it is about to expire or was already terminated here (a stale
        in-flight message must not resurrect it); ``before_merge`` sees
        the local state after the join but before the merge — replying
        with exactly that state is what lets the sender's own merge
        complete a mass-conserving symmetric exchange; then MERGE.
        """
        instances = self.instances
        for iid, remote in states.items():
            local = instances.get(iid)
            if local is None:
                if remote.ttl <= 1 or iid in self.finished_ids:
                    continue
                local = self.join_instance(remote, round_=round_)
            if before_merge is not None:
                before_merge(iid, local)
            local.merge_from(remote)

    def end_of_round(self, round_: int = 0) -> list[CompletedInstance]:
        """Decrement TTLs; finalise and drop any expired instances."""
        finished: list[CompletedInstance] = []
        for iid in list(self.instances):
            state = self.instances[iid]
            state.ttl -= 1
            if state.ttl <= 0:
                finished.append(self._finalise(state, round_))
                del self.instances[iid]
        return finished

    def _finalise(self, state: InstanceState, round_: int) -> CompletedInstance:
        """Terminate an instance: build the CDF estimate and bookkeeping."""
        fractions = state.normalised_fractions()
        estimate = EstimatedCDF(
            thresholds=state.h.thresholds,
            fractions=fractions,
            minimum=state.h.minimum,
            maximum=state.h.maximum,
        )
        try:
            system_size = size_from_weight(state.weight)
        except EstimationError:
            system_size = None
        confidence = None
        if state.v_thresholds.size > 0:
            confidence = estimate_errors(estimate, state.v_thresholds, state.normalised_v_fractions())
        estimate.system_size = system_size
        self.current_estimate = estimate
        if system_size is not None:
            self.size_estimate = system_size
        self.last_confidence = confidence
        self.finished_ids.add(state.instance_id)
        completed = CompletedInstance(state.instance_id, estimate, system_size, confidence, round_)
        self.completed.append(completed)
        return completed


def gossip_exchange(initiator: Adam2Node, responder: Adam2Node, round_: int = 0) -> int:
    """Perform one symmetric push–pull exchange between two peers.

    Every instance active at either peer is exchanged.  For an instance
    known to only one peer the other joins; the configured ``join_mode``
    decides whether the join exchange is mass-conserving (``"symmetric"``,
    default: the joiner initialises and a normal averaging exchange
    follows) or follows the Fig. 1 pseudocode to the letter
    (``"literal"``: the joiner merges the received state, the other peer
    ignores the empty reply and keeps its values unchanged).

    It is one exchange of :func:`repro.fastsim.exchange.sequential_round`
    in object form; the tests hold the two bit-identical.

    Returns:
        The number of instances exchanged (for cost accounting).
    """
    if initiator is responder:
        raise ProtocolError("a node cannot gossip with itself")
    join_mode = initiator.config.join_mode
    ids = set(initiator.instances) | set(responder.instances)
    for iid in ids:
        state_i = initiator.instances.get(iid)
        state_r = responder.instances.get(iid)
        if state_i is not None and state_r is not None:
            snap_i = state_i.snapshot()
            state_i.merge_from(state_r)
            state_r.merge_from(snap_i)
        elif state_i is None:
            if iid not in initiator.finished_ids:
                _join_and_merge(initiator, state_r, join_mode, round_)
        else:
            if iid not in responder.finished_ids:
                _join_and_merge(responder, state_i, join_mode, round_)
    return len(ids)


def _join_and_merge(joiner: Adam2Node, remote: InstanceState, join_mode: str, round_: int) -> None:
    fresh = joiner.join_instance(remote, round_=round_)
    if join_mode == "symmetric":
        snap = fresh.snapshot()
        fresh.merge_from(remote)
        remote.merge_from(snap)
    else:  # literal Fig. 1 semantics: only the joiner updates
        fresh.merge_from(remote)
