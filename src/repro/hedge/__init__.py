"""Closed-form oracle for synchronized request cloning.

:mod:`repro.hedge.oracle` holds closed-form M/G/1-PS mean-response-time
predictions for synchronized clone-to-c (Pellegrini 2020).  The CLONING
experiment compares them against the simulated
:class:`repro.apps.CloneService` across an arrival-rate x clone-factor
x seed grid in CI.
"""

from .oracle import (CloneDivergence, Deterministic, Exponential, HyperExp,
                     ServiceDist, best_clone_factor, clone_mean_response,
                     clone_utilization, compare_cells, group_arrival_rate,
                     ps_mean_response, tolerance_for)

__all__ = [
    "CloneDivergence", "Deterministic", "Exponential", "HyperExp",
    "ServiceDist", "best_clone_factor", "clone_mean_response",
    "clone_utilization", "compare_cells", "group_arrival_rate",
    "ps_mean_response", "tolerance_for",
]
