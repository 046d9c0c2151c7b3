"""Diversity-multiplexing tradeoff: analytic lines and empirical slope fits."""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import log2

import numpy as np

from .analytic import outage_probability
from .config import Case, SystemConfig, _as_index, _as_real
from .simulate import estimate_outage


class DegenerateFit(Exception):
    """Raised when no log-log slope can be fitted: an outage sample is zero or
    invalid, or a Monte Carlo fit would need more than _MC_MAX_SLOTS slots."""


class DiversitySource(str, Enum):
    CLOSED_FORM = "closed_form"
    MONTE_CARLO = "monte_carlo"


# Monte Carlo slopes are hopeless once nu drops below ~1/trials; beyond this
# SNR the closed form is the only practical source.
_MC_GAMMA_CAP = 1.0e4
_MC_MIN_TRIALS = 1_000_000
_MC_MAX_SLOTS = 10**8     # slots per fit: about 80 s on one core at 1.26 Mslot/s


@dataclass(frozen=True)
class DmtCurve:
    points: tuple  # ((r, d), ...) with r ascending
    case: Case
    zeta: float


def multiplexing_limit(cfg: SystemConfig) -> float:
    """Largest multiplexing gain with nonzero diversity."""
    if cfg.case is Case.DIRECT_LINK:
        return 0.5
    return min(cfg.zeta, 1.0 - cfg.zeta)


def max_diversity(cfg: SystemConfig) -> int:
    """Diversity order at fixed rate (r = 0)."""
    return cfg.M - 1 if cfg.case is Case.DIRECT_LINK else cfg.M - 2


def analytic_dmt(cfg: SystemConfig, num_points: int = 51) -> DmtCurve:
    """The straight-line tradeoff d(r) = d_max (1 - r / r_max) at num_points rates.

    num_points is an integer >= 2; anything else raises ValueError.
    """
    num_points = _as_index("num_points", num_points)
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
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
    throughout so only the primary link scales.
    """
    source = DiversitySource(source)
    r = _as_real("r", r)
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("gamma_grid must hold at least 3 SNRs")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("gamma_grid must be strictly ascending")
    if not 0.0 <= r < multiplexing_limit(cfg):
        raise ValueError("r must lie in [0, multiplexing limit)")
    if source is DiversitySource.MONTE_CARLO and grid[-1] > _MC_GAMMA_CAP:
        raise ValueError(f"MonteCarlo source is capped at gamma <= {_MC_GAMMA_CAP:g}")

    cfgs = [replace(cfg, gamma_p=float(g), R=cfg.R if r == 0.0 else r * log2(g))
            for g in grid]
    nus = [outage_probability(c).nu for c in cfgs]
    if source is DiversitySource.MONTE_CARLO:
        trials = [int(max(_MC_MIN_TRIALS, 100.0 / max(nu, 1e-12))) for nu in nus]
        if sum(trials) > _MC_MAX_SLOTS:
            raise DegenerateFit(f"Monte Carlo fit plans {sum(trials):.3g} slots, "
                                f"over the budget of {_MC_MAX_SLOTS:.0e}")
        nus = [estimate_outage(c, n, seed=seed + i, workers=workers).primary.p_hat
               for i, (c, n) in enumerate(zip(cfgs, trials))]
    for g, nu in zip(grid, nus):
        if not nu > 0.0:
            raise DegenerateFit(f"outage {nu} at gamma={g:g} admits no log-log fit")

    top = slice(grid.size // 2, None)
    slope = np.polyfit(np.log(grid[top]), np.log(nus)[top], 1)[0]
    return 0.0 - float(slope)     # +0.0, not -0.0, for a flat outage
