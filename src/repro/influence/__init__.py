"""Influence maximisation: the classic greedy baseline (InfMax_std), the
paper's max-cover method over spheres of influence (InfMax_TC, Algorithm 3),
spread estimation, the RIS comparator, and the saturation analysis of
Figure 7.

The max-cover, budgeted-cover and CELF++ greedies each exist once, as a
stepwise engine (``maxcover.StepwiseMaxCover``,
``maxcover.StepwiseBudgetedCover``, ``celfpp.StepwiseCelfpp``): the
offline functions here run them to completion, and the job service
(:mod:`repro.jobs`) steps them one journalled iteration at a time.
"""

from repro.influence.spread import SpreadOracle, evaluate_spread_curve
from repro.influence.greedy_std import infmax_std, infmax_std_mc, GreedyTrace
from repro.influence.greedy_tc import infmax_tc
from repro.influence.maxcover import (
    greedy_max_cover,
    weighted_greedy_max_cover,
    budgeted_greedy_max_cover,
)
from repro.influence.ris import infmax_ris
from repro.influence.saturation import marginal_gain_ratios
from repro.influence.celfpp import infmax_celfpp
from repro.influence.weighted import WeightedSpreadOracle, infmax_std_weighted

__all__ = [
    "SpreadOracle",
    "evaluate_spread_curve",
    "infmax_std",
    "infmax_std_mc",
    "GreedyTrace",
    "infmax_tc",
    "greedy_max_cover",
    "weighted_greedy_max_cover",
    "budgeted_greedy_max_cover",
    "infmax_ris",
    "marginal_gain_ratios",
    "infmax_celfpp",
    "WeightedSpreadOracle",
    "infmax_std_weighted",
]
