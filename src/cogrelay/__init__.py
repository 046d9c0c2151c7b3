"""Cooperative cognitive relaying: ZF beamforming, outage analysis, DMT, QoS.

A slotted network where secondary users relay the primary packet in exchange
for spectrum access.  The library provides the channel model, zero-forcing
cooperative beamformer, exact and high-SNR primary outage probabilities for
both topologies (with and without a primary direct link), Monte Carlo
validation, diversity-multiplexing tradeoff curves, and the QoS-feasible
TDMA assignment, plus a CLI driver for the standard experiments.
"""
from .analytic import (InvalidCase, OutageBreakdown, QuadratureFailure,
                       case1_outage, case2_outage, outage_highsnr,
                       outage_probability)
from .beamform import (BeamformerResult, DegenerateChannel, effective_gain,
                       optimal_weights)
from .channel import ChannelBlock, decode_mask, draw_realizations
from .config import Case, SystemConfig
from .dmt import (DegenerateFit, DiversitySource, DmtCurve, analytic_dmt,
                  empirical_diversity, max_diversity, multiplexing_limit)
from .qos import (PrimaryInfeasible, QosSolution, SecondaryInfeasible,
                  max_lambda_k, search_zeta, secondary_success_prob,
                  solve_assignment)
from .simulate import (OutageEstimate, OutageSimulation, ScheduleEstimate,
                       estimate_outage, estimate_schedule_throughput, substream)

__version__ = "0.1.0"

__all__ = [
    "BeamformerResult", "Case", "ChannelBlock", "DegenerateChannel",
    "DegenerateFit", "DiversitySource", "DmtCurve", "InvalidCase",
    "OutageBreakdown", "OutageEstimate", "OutageSimulation",
    "PrimaryInfeasible", "QosSolution", "QuadratureFailure",
    "ScheduleEstimate", "SecondaryInfeasible", "SystemConfig", "analytic_dmt",
    "case1_outage", "case2_outage", "decode_mask", "draw_realizations",
    "effective_gain", "empirical_diversity", "estimate_outage",
    "estimate_schedule_throughput", "max_diversity", "max_lambda_k",
    "multiplexing_limit", "optimal_weights", "outage_highsnr",
    "outage_probability", "search_zeta", "secondary_success_prob",
    "solve_assignment", "substream",
]
