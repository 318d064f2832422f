"""Baseline CDF estimators the paper compares against.

* :mod:`repro.baselines.sampling` — random-sampling estimation in the
  style of Hall & Carzaniga's uniform sampling, with its message-cost
  model.

The gossip histogram protocol of Haridasan & van Renesse (EquiDepth)
lives in :mod:`repro.fastsim.equidepth`.
"""

from repro.baselines.sampling import RandomSamplingEstimator, SamplingResult

__all__ = ["RandomSamplingEstimator", "SamplingResult"]
