"""Diversity-multiplexing tradeoff: analytic lines and empirical slope fits.

An empirical slope is the least-squares line through the top half of the
(log gamma, log nu) points, summed in floats as
fsum((x - x_mean)(y - y_mean)) / fsum((x - x_mean)^2).  For the few points
a fit takes (4 of the CLI's 7), that costs less than a numpy fit's call
overhead.  A closed-form fit varies only R and gamma_p, so it builds no
config per point: `analytic._outage_parts` gives each point's nu1 and nu2
from the thresholds, through the nu1 kernel `analytic._nu1` that
`outage_probability` and `qos.search_zeta` share, and `analytic._nu` clips
their sum into [0, 1], bit for bit `outage_probability`'s nu.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import fsum, inf, log, log2

import numpy as np

from .analytic import _nu, _outage_parts
from .config import Case, SystemConfig, _as_index, _as_real, _as_reals, _check_rate
from .simulate import _check_run, estimate_outage


class DegenerateFit(Exception):
    """Raised when no log-log slope can be fitted: a fitted outage sample is zero
    or invalid, the top half of the grid spans no range of log gamma, or a Monte
    Carlo fit would need more than _MC_MAX_SLOTS slots."""


class DiversitySource(str, Enum):
    CLOSED_FORM = "closed_form"
    MONTE_CARLO = "monte_carlo"


_MC_MIN_TRIALS = 1_000_000
_MC_MAX_SLOTS = 10**8     # slots per fit: about 80 s on one core at 1.26 Mslot/s


@dataclass(frozen=True)
class DmtCurve:
    points: tuple  # ((r, d), ...) with r ascending
    case: Case
    zeta: float


def multiplexing_limit(cfg: SystemConfig) -> float:
    """Largest multiplexing gain with nonzero diversity, min(zeta, 1 - zeta): the
    shorter phase of the slot caps it, at 1/2 with a direct link (zeta = 1/2)."""
    return min(cfg.zeta, 1.0 - cfg.zeta)


def max_diversity(cfg: SystemConfig) -> int:
    """Diversity order at fixed rate (r = 0)."""
    return cfg.M - 1 if cfg.case is Case.DIRECT_LINK else cfg.M - 2


def analytic_dmt(cfg: SystemConfig, num_points: int = 51) -> DmtCurve:
    """The straight-line tradeoff d(r) = d_max (1 - r / r_max) at num_points rates.

    num_points is an integer >= 2; anything else raises ValueError.
    """
    num_points = _as_index("num_points", num_points, 2)
    r_max = multiplexing_limit(cfg)
    d_max = max_diversity(cfg)
    rs = np.linspace(0.0, r_max, num_points)
    pts = tuple((float(r), float(d_max * (1.0 - r / r_max))) for r in rs)
    return DmtCurve(points=pts, case=cfg.case, zeta=cfg.zeta)


def empirical_diversity(cfg: SystemConfig, r: float, gamma_grid,
                        source=DiversitySource.CLOSED_FORM,
                        seed: int = 0, workers: int = 1) -> float:
    """Fit -d log nu / d log gamma over the top half of an ascending SNR grid.

    At r = 0 the rate stays pinned at cfg.R; for r > 0 each grid point uses
    R_i = r log2(gamma_i).  The secondary SNR is held at cfg.gamma_s
    throughout so only the primary link scales.  gamma_grid holds at least 3
    strictly ascending finite real SNRs > 0, else ValueError.  Only the
    fitted points, gamma_grid[len(gamma_grid) // 2:], are evaluated: a zero
    or invalid outage among them raises DegenerateFit, while one below them,
    or a negative rate r log2(gamma) at gamma < 1, raises nothing.  The Monte
    Carlo source draws every fitted point from the one key seed, in [0, 2^128),
    so the points share common random numbers; workers is an integer >= 1.
    Its one limit is the slot budget: a plan of max(10^6, 100 / nu) slots per
    point that exceeds _MC_MAX_SLOTS in all raises DegenerateFit before any draw.
    """
    source = DiversitySource(source)
    r = _as_real("r", r)
    grid = _as_reals("gamma_grid", gamma_grid)
    if len(grid) < 3:
        raise ValueError("gamma_grid must hold at least 3 SNRs")
    if not all(g0 < g1 for g0, g1 in zip((0.0, *grid), (*grid, inf))):   # 0 < g_0 < ... < inf
        raise ValueError("gamma_grid must be strictly ascending finite SNRs > 0")
    if not 0.0 <= r < multiplexing_limit(cfg):
        raise ValueError("r must lie in [0, multiplexing limit)")
    if source is DiversitySource.MONTE_CARLO:
        _, seed, workers = _check_run(_MC_MIN_TRIALS, seed, workers)   # as a run checks them

    fit = grid[len(grid) // 2:]
    x = [log(g) for g in fit]
    if x[0] == x[-1]:
        raise DegenerateFit(f"the top of gamma_grid, {fit[0]:g}..{fit[-1]:g}, "
                            "spans no range of log gamma")
    rates = [cfg.R if r == 0.0 else r * log2(g) for g in fit]
    for R in rates:
        _check_rate(R)
    # outage_probability's nu, with no config per point
    nus = [_nu(*_outage_parts(cfg, R, g)) for g, R in zip(fit, rates)]
    if source is DiversitySource.MONTE_CARLO:
        cfgs = [replace(cfg, gamma_p=g, R=R) for g, R in zip(fit, rates)]
        trials = [int(max(_MC_MIN_TRIALS, 100.0 / max(nu, 1e-12))) for nu in nus]
        if sum(trials) > _MC_MAX_SLOTS:
            raise DegenerateFit(f"Monte Carlo fit plans {sum(trials):.3g} slots, "
                                f"over the budget of {_MC_MAX_SLOTS:.0e}")
        nus = [estimate_outage(c, n, seed=seed, workers=workers).primary.p_hat
               for c, n in zip(cfgs, trials)]
    for g, nu in zip(fit, nus):
        if not nu > 0.0:
            raise DegenerateFit(f"outage {nu} at gamma={g:g} admits no log-log fit")
    y = [log(nu) for nu in nus]
    x_mean, y_mean = fsum(x) / len(x), fsum(y) / len(y)
    dx = [xi - x_mean for xi in x]
    slope = fsum(d * (yi - y_mean) for d, yi in zip(dx, y)) / fsum(d * d for d in dx)
    return 0.0 - slope     # +0.0, not -0.0, for a flat outage
