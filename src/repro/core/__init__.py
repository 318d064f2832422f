"""Adam2 core: the paper's primary contribution.

This subpackage implements the Adam2 protocol itself: the interpolation
data structure ``H``, the merge rules, the threshold-selection heuristics
(Uniform, Neighbour-based, HCut, MinMax, LCut), verification points and
confidence estimation, per-instance node state, and the node logic that
the node daemons run (:mod:`repro.net`).
"""

from repro.core.cdf import EmpiricalCDF, EstimatedCDF
from repro.core.config import Adam2Config
from repro.core.confidence import (
    ConfidenceReport,
    estimate_errors,
    select_verification_points,
)
from repro.core.instance import InstanceState
from repro.core.interpolation import InterpolationSet, interpolate_matrix
from repro.core.node import Adam2Node
from repro.core.selection import (
    HCutSelection,
    LCutSelection,
    MinMaxSelection,
    NeighbourBasedSelection,
    SelectionStrategy,
    UniformSelection,
    get_selection,
)
from repro.core.sizing import size_from_weight

__all__ = [
    "EmpiricalCDF",
    "EstimatedCDF",
    "Adam2Config",
    "ConfidenceReport",
    "estimate_errors",
    "select_verification_points",
    "InstanceState",
    "InterpolationSet",
    "interpolate_matrix",
    "Adam2Node",
    "SelectionStrategy",
    "UniformSelection",
    "NeighbourBasedSelection",
    "HCutSelection",
    "MinMaxSelection",
    "LCutSelection",
    "get_selection",
    "size_from_weight",
]
