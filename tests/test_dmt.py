import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
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
    # no SNR cap: a Monte Carlo fit past 10^4 meets the slot budget like any other
    with pytest.raises(DegenerateFit, match="slots"):
        empirical_diversity(cfg, 0.0, np.logspace(3, 5, 5), source="monte_carlo")
    for r in ("0", None, 0j, False):                 # not a real multiplexing gain
        with pytest.raises(ValueError, match="r must be a real number"):
            empirical_diversity(cfg, r, good)
    # SNRs are real numbers, as every other real input: no string parsing, no bools
    for grid in (["100", "1000", "10000"], [100.0, "1000", 10000.0], [True, 10.0, 100.0],
                 [10.0, 100.0, np.bool_(True)], 5, np.ones((3, 3))):
        with pytest.raises(ValueError, match="gamma_grid must be"):
            empirical_diversity(cfg, 0.0, grid)
    for grid in ([10.0, math.nan, 100.0], [math.nan, 10.0, 100.0], [10.0, 100.0, math.inf],
                 [-math.inf, 10.0, 100.0]):
        with pytest.raises(ValueError):
            empirical_diversity(cfg, 0.0, grid)
    assert (empirical_diversity(cfg, 0.0, [1000, 10**4, np.int64(10**5)])
            == empirical_diversity(cfg, 0.0, np.array([1e3, 1e4, 1e5])))


@pytest.mark.parametrize("case, M", [("direct", 3), ("direct", 5), ("nodirect", 4),
                                     ("nodirect", 6)])
def test_empirical_diversity_matches_polyfit_oracle(case, M):
    rng = np.random.default_rng(M)
    cfg = _cfg(case, M=M)
    for size in range(3, 10):
        # ascending log10 gamma from 1 to at most 6.4, at least 0.1 decade apart
        grid = 10.0 ** (1.0 + np.cumsum(rng.uniform(0.1, 0.6, size)))
        for r in (0.0, rng.uniform(0.05, 0.9) * multiplexing_limit(cfg)):
            d = empirical_diversity(cfg, r, grid)
            ref = oracles.empirical_diversity_ref(cfg, r, grid)
            assert math.isclose(d, ref, rel_tol=1e-12, abs_tol=1e-12), (size, r, d, ref)


def test_empirical_diversity_makes_no_polyfit_call(monkeypatch):
    # at the fig1 point (gamma_p 50, gamma_s 30, R 0.75) the slope is summed in floats
    calls = []
    polyfit = np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda *a, **k: calls.append(a) or polyfit(*a, **k))
    for r in (0.0, 0.25):
        empirical_diversity(_cfg(M=4, R=0.75), r, np.logspace(2, 4, 7))
    assert calls == []


def test_degenerate_fit():
    # R = 0 makes the outage identically zero: no slope exists
    with pytest.raises(DegenerateFit):
        empirical_diversity(_cfg(M=3, R=0.0), 0.0, np.logspace(3, 5, 5))
    # the top half of the grid is two SNRs one ulp apart, with one log
    with pytest.raises(DegenerateFit, match="log gamma"):
        empirical_diversity(_cfg(M=2), 0.0, [2.0, 3.0, 1e300, np.nextafter(1e300, math.inf)])


def test_fit_evaluates_only_the_points_it_fits(monkeypatch):
    # a 7-point grid fits its top 4 points, and only those reach the closed form
    gammas = []
    parts = dmt._outage_parts
    monkeypatch.setattr(dmt, "_outage_parts",
                        lambda c, R, g: gammas.append(g) or parts(c, R, g))
    grid = np.logspace(2, 5, 7)
    for r in (0.0, 0.25):
        gammas.clear()
        empirical_diversity(_cfg(), r, grid)
        assert gammas == list(grid[3:])
    # so neither a zero outage (R = r log2(1) = 0) nor a negative rate (gamma
    # below 1) under the fitted half stops the fit, nor changes its bits
    for low in (1.0, 0.5):
        assert (empirical_diversity(_cfg(), 0.1, [low, 10.0, 1e2, 1e3])
                == empirical_diversity(_cfg(), 0.1, [2.0, 10.0, 1e2, 1e3]))


def test_fit_nu_is_outage_probability_bit_for_bit(monkeypatch):
    # the fit forms each point's nu from the thresholds, as outage_probability
    # does from a config; on random configs of both cases the two agree bit for bit
    nus = []
    clip = dmt._clip_unit
    monkeypatch.setattr(dmt, "_clip_unit", lambda x: nus.append(clip(x)) or nus[-1])
    rng = np.random.default_rng(34)
    for case, _ in itertools.product(("direct", "nodirect"), range(40)):
        cfg = SystemConfig(M=int(rng.choice([2, 3, 4, 6, 10, 40, 200])),
                           gamma_p=50.0, gamma_s=10.0 ** rng.uniform(-2, 4),
                           R=rng.uniform(0.0, 1.5), case=case, zeta=rng.uniform(0.1, 0.9))
        grid = 10.0 ** np.cumsum(rng.uniform(0.1, 1.0, int(rng.integers(3, 8))))
        r = rng.choice([0.0, rng.uniform(0.0, multiplexing_limit(cfg))])
        nus.clear()
        try:
            empirical_diversity(cfg, r, grid)
        except DegenerateFit:
            pass                 # an outage that underflows to 0: nu is compared all the same
        fit = grid[len(grid) // 2:]
        ref = [outage_probability(replace(cfg, gamma_p=g, R=cfg.R if r == 0.0 else r * math.log2(g))).nu
               for g in fit]
        assert len(nus) == len(fit), (cfg, r, grid)
        assert [v.hex() for v in nus] == [v.hex() for v in ref], (cfg, r, grid)


def test_closed_form_fit_builds_no_config(monkeypatch):
    # a closed-form fit varies only R and gamma_p, so it builds no SystemConfig;
    # the Monte Carlo source still builds one per fitted point for estimate_outage
    built = []
    post_init = SystemConfig.__post_init__
    monkeypatch.setattr(SystemConfig, "__post_init__", lambda c: built.append(c) or post_init(c))
    grid = np.logspace(2, 4, 7)
    for case, r in itertools.product(("direct", "nodirect"), (0.0, 0.25)):
        cfg = _cfg(case, zeta=0.4)
        built.clear()
        empirical_diversity(cfg, r, grid)
        assert built == []
    monkeypatch.setattr(dmt, "estimate_outage", _closed_form_draws([]))
    cfg = _cfg(M=2)
    built.clear()
    empirical_diversity(cfg, 0.0, [1e3, 1e4, 1e5], source="monte_carlo")
    assert [c.gamma_p for c in built] == [1e4, 1e5]


def test_fitted_negative_rate_raises_before_any_outage(monkeypatch):
    # R = r log2(gamma) < 0 at a fitted gamma below 1 is the config's ValueError,
    # raised before any point is evaluated
    def no_outage(*args):
        raise AssertionError("an outage was evaluated")
    monkeypatch.setattr(dmt, "_outage_parts", no_outage)
    for case in ("direct", "nodirect"):
        with pytest.raises(ValueError, match="rate must be finite and nonnegative, got R=-"):
            empirical_diversity(_cfg(case), 0.1, [0.1, 0.2, 0.5, 0.9])
        with pytest.raises(ValueError, match="rate must be finite and nonnegative, got R=-"):
            empirical_diversity(_cfg(case), 0.1, [0.1, 0.2, 0.5, 2.0])


def _no_draws(*args, **kwargs):
    raise AssertionError("estimate_outage was called")


def test_monte_carlo_fit_beyond_budget_raises_before_drawing(monkeypatch):
    # the CLI's default Monte Carlo grid plans 3.1e11 slots for its r = 0 fit
    monkeypatch.setattr(dmt, "estimate_outage", _no_draws)
    with pytest.raises(DegenerateFit, match="slots"):
        empirical_diversity(_cfg(), 0.0, np.logspace(2, 4, 7), source="monte_carlo")


@pytest.mark.parametrize("kwargs", [{"workers": 0}, {"seed": -1}, {"seed": 2**128},
                                    {"seed": 1.5}, {"workers": True}])
def test_monte_carlo_fit_checks_seed_and_workers_before_budget(monkeypatch, kwargs):
    # the same grid as the budget test: a bad argument is a ValueError, not DegenerateFit
    monkeypatch.setattr(dmt, "estimate_outage", _no_draws)
    with pytest.raises(ValueError, match="seed|workers"):
        empirical_diversity(_cfg(), 0.0, np.logspace(2, 4, 7), source="monte_carlo",
                            **kwargs)


def _closed_form_draws(keys):
    """An estimate_outage stand-in: it appends each seed to keys and returns the closed form."""
    def estimate(cfg, trials, seed, workers):
        keys.append(seed)
        return SimpleNamespace(primary=SimpleNamespace(p_hat=outage_probability(cfg).nu))
    return estimate


def test_monte_carlo_fit_past_1e4_draws_within_budget(monkeypatch):
    # M = 2 plans 1.1e7 slots for its fit up to gamma = 1e5, inside the 10^8 budget
    keys = []
    monkeypatch.setattr(dmt, "estimate_outage", _closed_form_draws(keys))
    grid = [1e3, 1e4, 1e5]
    d = empirical_diversity(_cfg(M=2), 0.0, grid, source="monte_carlo", seed=5)
    assert keys == [5, 5]
    assert d == empirical_diversity(_cfg(M=2), 0.0, grid)


def test_monte_carlo_fit_draws_every_point_from_its_seed(monkeypatch):
    # one key for the whole fit (common random numbers), so any seed below 2^128 will do
    keys = []
    monkeypatch.setattr(dmt, "estimate_outage", _closed_form_draws(keys))
    grid = [10.0, 20.0, 40.0]
    d = empirical_diversity(_cfg(M=3), 0.0, grid, source="monte_carlo", seed=2**128 - 1)
    assert keys == [2**128 - 1] * 2     # only the fitted points 1 and 2 are drawn
    assert d == empirical_diversity(_cfg(M=3), 0.0, grid)
