import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from cogrelay import dmt
from cogrelay import (Case, DegenerateFit, DiversitySource, SystemConfig,
                      analytic_dmt, empirical_diversity, max_diversity,
                      multiplexing_limit, outage_probability)


def _cfg(case="direct", M=4, zeta=0.5, R=0.5):
    return SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=R, case=case, zeta=zeta)


def test_analytic_endpoints_direct():
    curve = analytic_dmt(_cfg(M=5), num_points=11)
    rs = [p[0] for p in curve.points]
    ds = [p[1] for p in curve.points]
    assert curve.case is Case.DIRECT_LINK
    assert rs[0] == 0.0 and math.isclose(rs[-1], 0.5)
    assert ds[0] == 4.0 and abs(ds[-1]) < 1e-12
    # straight line: halfway in r means halfway down in d
    assert math.isclose(ds[5], 2.0, rel_tol=1e-12)
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_analytic_endpoints_split_slot():
    cfg = _cfg("nodirect", M=6, zeta=0.3)
    curve = analytic_dmt(cfg, num_points=7)
    assert multiplexing_limit(cfg) == 0.3   # min(zeta, 1-zeta)
    assert max_diversity(cfg) == 4          # M-2 without the direct link
    assert curve.points[0][1] == 4.0
    assert math.isclose(curve.points[-1][0], 0.3)
    cfg2 = _cfg("nodirect", M=6, zeta=0.8)
    assert math.isclose(multiplexing_limit(cfg2), 0.2)


def test_analytic_validation():
    # num_points is an integer >= 2; anything else is a ValueError, never
    # numpy's TypeError
    for num_points in (1, 0, 2.5, 3.0, math.nan, "7"):
        with pytest.raises(ValueError, match="num_points"):
            analytic_dmt(_cfg(), num_points=num_points)
    assert len(analytic_dmt(_cfg(), num_points=np.int64(3)).points) == 3


def test_empirical_diversity_fixed_rate():
    grid = np.logspace(3, 5, 5)
    d = empirical_diversity(_cfg(M=3), 0.0, grid)
    assert abs(d - 2.0) < 0.3
    d2 = empirical_diversity(_cfg("nodirect", M=4), 0.0, grid)
    assert abs(d2 - 2.0) < 0.3


def test_empirical_diversity_of_flat_outage_is_positive_zero():
    # nu = 1 at every SNR (no relaying at M = 2 without a direct link): the
    # slope is 0 and its negation must not print as -0.0
    d = empirical_diversity(_cfg("nodirect", M=2), 0.0, np.logspace(2, 4, 5))
    assert d == 0.0 and math.copysign(1.0, d) == 1.0


def test_empirical_diversity_scaling_rate():
    # r > 0: rate grows with SNR, so the slope drops below the r=0 order
    grid = np.logspace(3, 5, 5)
    d = empirical_diversity(_cfg(M=3), 0.25, grid)
    assert abs(d - 1.0) < 0.4   # analytic line: (1 - 2*0.25) * 2 = 1


def test_closed_form_slope_follows_dmt_line_away_from_r0():
    # With R = r log2(gamma) the closed form must fall like gamma^-d(r),
    # d(r) = d_max (1 - r/r_max), read over the highest decade 10^e -> 10^(e+1)
    # where nu stays above 1e-300.  With the pmf's failure probability taken
    # as 1 - L, case 2 at zeta = 0.3 missed the line by up to 1.14 here.
    cases = [("direct", 0.5)] + [("nodirect", zeta) for zeta in (0.3, 0.5, 0.7)]
    for (case, zeta), M, frac in itertools.product(cases, (3, 4, 6), (0.1, 0.5, 0.9)):
        cfg = _cfg(case, M=M, zeta=zeta)
        r_max = multiplexing_limit(cfg)
        r = frac * r_max

        def nu(e):
            g = 10.0 ** e
            return outage_probability(replace(cfg, gamma_p=g, R=r * math.log2(g))).nu

        e = next(e for e in range(299, 0, -1) if nu(e + 1) > 1e-300)
        slope = math.log10(nu(e)) - math.log10(nu(e + 1))
        line = max_diversity(cfg) * (1.0 - r / r_max)
        assert abs(slope - line) <= 1e-2, (case, zeta, M, frac, e, slope, line)


def test_empirical_diversity_monte_carlo():
    grid = np.logspace(1.5, 2.5, 4)
    d1 = empirical_diversity(_cfg(M=3), 0.0, grid,
                             source=DiversitySource.MONTE_CARLO, seed=3)
    d2 = empirical_diversity(_cfg(M=3), 0.0, grid, source="monte_carlo", seed=3)
    assert d1 == d2              # string and enum spell the same source
    assert 1.3 < d1 < 2.5        # converging toward M-1 = 2 from finite SNR


def test_empirical_diversity_validation():
    cfg = _cfg(M=3)
    good = np.logspace(3, 5, 5)
    with pytest.raises(ValueError):
        empirical_diversity(cfg, 0.7, good)          # beyond the tradeoff limit
    with pytest.raises(ValueError):
        empirical_diversity(cfg, 0.0, [10.0, 20.0])  # too few points
    with pytest.raises(ValueError):
        empirical_diversity(cfg, 0.0, [10.0, 10.0, 20.0])
    with pytest.raises(ValueError):
        empirical_diversity(cfg, 0.0, np.logspace(3, 5, 5), source="monte_carlo")
    for r in ("0", None, 0j, False):                 # not a real multiplexing gain
        with pytest.raises(ValueError, match="r must be a real number"):
            empirical_diversity(cfg, r, good)


def test_degenerate_fit():
    # R = 0 makes the outage identically zero: no slope exists
    with pytest.raises(DegenerateFit):
        empirical_diversity(_cfg(M=3, R=0.0), 0.0, np.logspace(3, 5, 5))


def _no_draws(*args, **kwargs):
    raise AssertionError("estimate_outage was called")


def test_monte_carlo_fit_beyond_budget_raises_before_drawing(monkeypatch):
    # the CLI's default Monte Carlo grid plans 3.1e11 slots for its r = 0 fit
    monkeypatch.setattr(dmt, "estimate_outage", _no_draws)
    with pytest.raises(DegenerateFit, match="slots"):
        empirical_diversity(_cfg(), 0.0, np.logspace(2, 4, 7), source="monte_carlo")
