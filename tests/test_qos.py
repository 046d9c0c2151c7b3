import math
from math import fsum
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cogrelay.qos
from cogrelay import (InvalidCase, PrimaryInfeasible, SecondaryInfeasible,
                      SystemConfig, decoding_set_pmf, max_lambda_k,
                      outage_probability, search_zeta, secondary_success_prob,
                      solve_assignment)
from cogrelay.analytic import _nu_small_k
from cogrelay.config import _split_threshold, snr_threshold
from cogrelay.qos import QosSolution, _solve
from oracles import decoding_q, search_zeta_exhaustive

# the figure presets: users 2..M demand these rates, user 1 is the tagged one
_TARGETS = (0.1, 0.2, 0.1, 0.15, 0.1)


def _preset(M, R, case="direct", zeta=0.5):
    return SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=R, case=case,
                        zeta=zeta, lambda_p=0.1, lambda_s=(0.0,) + _TARGETS[:M - 1])


def _nu2_checked(cfg):
    """nu2 of a no-direct-link config through `_nu_small_k`, checked bit for bit
    against pmf[0] + pmf[1] of `decoding_set_pmf` (1 at M = 2, where K < 2 surely)."""
    nu2 = _nu_small_k(cfg, decoding_q(cfg))
    pmf = decoding_set_pmf(cfg)
    assert nu2 == (pmf[0] + pmf[1] if cfg.M > 2 else 1.0), cfg
    return nu2


def test_success_prob_value():
    cfg = SystemConfig(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5)
    # secondary transmits at 2R=1 bit: exp(-(2-1)/30)
    assert math.isclose(secondary_success_prob(cfg), 0.9672161004820059,
                        rel_tol=1e-15)
    # same threshold when the slot split is even and R/(1-zeta) = 2R
    cfg2 = SystemConfig(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5,
                        case="nodirect", zeta=0.5)
    assert secondary_success_prob(cfg2) == secondary_success_prob(cfg)


def test_max_lambda_rate_zero_endpoints():
    # f(0) = 1, so the headroom is exactly 1 minus the other users' demands
    for M, expect in ((4, 0.6), (5, 0.45), (6, 0.35)):
        got = max_lambda_k(_preset(M, 0.0), 0)
        assert abs(got - expect) <= 1e-15, (M, got)


def test_max_lambda_worked_value():
    # M=5 preset at R=0.5: exp(-1/30) - 0.55
    got = max_lambda_k(_preset(5, 0.5), 0)
    assert math.isclose(got, math.exp(-1.0 / 30.0) - 0.55, rel_tol=1e-12)
    assert math.isclose(got, 0.417216, abs_tol=5e-7)


def test_max_lambda_clamps_and_k_validation():
    cfg = SystemConfig(M=3, gamma_p=50.0, gamma_s=30.0, R=2.0,
                       lambda_s=(0.0, 0.5, 0.4))
    assert max_lambda_k(cfg, 0) == 0.0   # others already exceed f(2.0)
    with pytest.raises(ValueError):
        max_lambda_k(cfg, 3)
    with pytest.raises(ValueError):
        max_lambda_k(cfg, -1)
    # k must be an integer: int(1.7) would tag user 1 and int(inf) overflow
    for bad in (1.7, 1.0, math.inf, math.nan, "1", None):
        for solver in (max_lambda_k, solve_assignment):
            with pytest.raises(ValueError, match="k must be an integer"):
                solver(cfg, bad)
    assert max_lambda_k(cfg, np.int64(0)) == 0.0


def test_primary_infeasible():
    cfg = SystemConfig(M=3, gamma_p=2.0, gamma_s=30.0, R=2.0, lambda_p=0.9)
    nu = outage_probability(cfg).nu
    assert 1.0 - nu < 0.9   # precondition of the scenario
    with pytest.raises(PrimaryInfeasible):
        max_lambda_k(cfg, 0)
    with pytest.raises(PrimaryInfeasible):
        solve_assignment(cfg, 0)


def test_solve_assignment_shares():
    cfg = _preset(5, 0.5)
    sol = solve_assignment(cfg, 0)
    f = secondary_success_prob(cfg)
    assert sol.feasible
    for j in range(1, 5):
        assert math.isclose(sol.omega[j], cfg.lambda_s[j] / f, rel_tol=1e-14)
        # each promised rate is actually met
        assert sol.omega[j] * f >= cfg.lambda_s[j] - 1e-12
    assert math.isclose(sum(sol.omega), 1.0, rel_tol=1e-12)
    assert math.isclose(sol.lambda_k_max, f - 0.55, rel_tol=1e-12)
    assert math.isclose(sol.slack, f - 0.55, rel_tol=1e-12)  # tagged demand is 0
    assert sol.zeta == cfg.zeta and sol.k == 0


def test_solve_assignment_boundary_feasible():
    base = SystemConfig(M=3, gamma_p=50.0, gamma_s=30.0, R=0.5)
    f = secondary_success_prob(base)
    lam = (f - 0.3, 0.1, 0.2)
    cfg = SystemConfig(M=3, gamma_p=50.0, gamma_s=30.0, R=0.5, lambda_s=lam)
    sol = solve_assignment(cfg, 0)     # demands sum exactly to f
    assert sol.feasible
    assert abs(sol.slack) < 1e-12
    assert math.isclose(sum(sol.omega), 1.0, rel_tol=1e-12)
    too_much = (f - 0.3 + 1e-6, 0.1, 0.2)
    cfg2 = SystemConfig(M=3, gamma_p=50.0, gamma_s=30.0, R=0.5, lambda_s=too_much)
    with pytest.raises(SecondaryInfeasible):
        solve_assignment(cfg2, 0)


def test_solve_assignment_all_idle():
    cfg = SystemConfig(M=3, gamma_p=50.0, gamma_s=30.0, R=0.5)
    sol = solve_assignment(cfg, 1)
    assert sol.omega == (0.0, 1.0, 0.0)   # tagged user gets the whole frame
    f = secondary_success_prob(cfg)
    assert math.isclose(sol.lambda_k_max, f, rel_tol=1e-14)


def test_solve_assignment_zero_demands_at_zero_success_prob():
    # R/(1-zeta) = 75 bits: f underflows to 0, yet zero demands are still met
    cfg = SystemConfig(M=2, gamma_p=50.0, gamma_s=30.0, R=1.5, case="nodirect",
                       zeta=0.98)
    assert secondary_success_prob(cfg) == 0.0
    sol = solve_assignment(cfg, 0)
    assert sol.feasible and sol.omega == (1.0, 0.0)
    assert sol.slack == 0.0 and sol.lambda_k_max == 0.0


def test_search_zeta_keeps_split_where_nu2_rounds_above_one():
    cfg = SystemConfig(M=4, gamma_p=1.0, gamma_s=30.0, R=0.25326530612244896,
                       case="nodirect")
    first = replace(cfg, zeta=0.05)
    # the raw nu2 that search_zeta prunes with rounds above 1; the public
    # breakdown clips it
    assert _nu2_checked(first) > 1.0
    out = outage_probability(first)
    assert out.nu2 == 1.0 and out.nu == 1.0
    assert search_zeta(cfg, 0, grid_size=19).zeta == 0.05


def test_search_zeta_needs_split_slot_case():
    with pytest.raises(InvalidCase):
        search_zeta(_preset(5, 0.5, case="direct"), 0)


def test_search_zeta_picks_grid_optimum():
    cfg = _preset(5, 0.5, case="nodirect")
    grid_size = 99
    best = search_zeta(cfg, 0, grid_size=grid_size)
    assert best.feasible
    # brute-force re-scan confirms optimality over the same grid
    from dataclasses import replace
    ref = None
    for i in range(1, grid_size + 1):
        z = i / (grid_size + 1)
        try:
            sol = solve_assignment(replace(cfg, zeta=z), 0)
        except (PrimaryInfeasible, SecondaryInfeasible):
            continue
        if ref is None or (sol.slack, sol.lambda_k_max) > (ref.slack, ref.lambda_k_max):
            ref = sol
    assert best.zeta == ref.zeta and best.slack == ref.slack


def test_search_zeta_infeasible_marker():
    cfg = SystemConfig(M=4, gamma_p=2.0, gamma_s=30.0, R=1.5, case="nodirect",
                       lambda_p=0.95, lambda_s=(0.0, 0.1, 0.2, 0.1))
    sol = search_zeta(cfg, 0, grid_size=49)
    assert not sol.feasible
    assert sol.lambda_k_max == 0.0
    assert math.isnan(sol.zeta) and math.isnan(sol.slack)
    assert all(math.isnan(w) for w in sol.omega)


def test_search_zeta_validation():
    cfg = _preset(4, 0.5, case="nodirect")
    with pytest.raises(ValueError):
        search_zeta(cfg, 0, grid_size=0)
    with pytest.raises(ValueError):
        search_zeta(cfg, 9)
    for bad in (2.5, math.inf, math.nan, "3", None):
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            search_zeta(cfg, 0, grid_size=bad)
    with pytest.raises(ValueError, match="k must be an integer"):
        search_zeta(cfg, 1.7)
    assert search_zeta(cfg, np.int64(0), grid_size=np.int64(9)) == search_zeta(cfg, 0, 9)


@st.composite
def _zeta_scenarios(draw):
    M = draw(st.integers(2, 8))
    R = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    base = SystemConfig(M=M, gamma_p=10.0 ** draw(st.floats(0.0, 4.0)),
                        gamma_s=10.0 ** draw(st.floats(-1.0, 4.0)), R=R, case="nodirect",
                        lambda_p=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.95))))
    grid_size = draw(st.sampled_from((1, 2, 49, 999)))
    # total demand set against f at one grid point: at, just around, or past it
    f_ref = secondary_success_prob(replace(
        base, zeta=draw(st.integers(1, grid_size)) / (grid_size + 1)))
    scale = draw(st.one_of(st.sampled_from((1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.05)),
                           st.floats(0.0, 1.2)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=M, max_size=M))
    target = scale * f_ref
    lam = [min(1.0, target * w / (sum(weights) or 1.0)) for w in weights[:-1]]
    lam.append(min(1.0, max(0.0, target - math.fsum(lam))))
    return (replace(base, lambda_s=tuple(lam)),
            draw(st.integers(0, M - 1)), grid_size)


def _at_nu2_edge(shift, grid_size=49, i=20):
    """lambda_p = 1 - nu2 at split i of the grid, shifted; nu2 there is about 1/2."""
    cfg = SystemConfig(M=4, gamma_p=2.0, gamma_s=30.0, R=0.5, case="nodirect",
                       lambda_s=(0.0, 0.1, 0.1, 0.1))
    nu2 = _nu_small_k(cfg, snr_threshold(cfg.R / (i / (grid_size + 1))) / cfg.gamma_p)
    return replace(cfg, lambda_p=1.0 - nu2 + shift), 0, grid_size


@settings(max_examples=150, deadline=None)
@given(_zeta_scenarios())
# lambda_p on the nu2 prune's edge at one split: exactly, and across it by
# less and by more than the bisection's 1e-12 margin
@example(_at_nu2_edge(0.0))
@example(_at_nu2_edge(1e-16))
@example(_at_nu2_edge(-1e-16))
@example(_at_nu2_edge(1e-13))
@example(_at_nu2_edge(-1e-13))
# the smallest grids, and lambda_p = 0, which no split fails on nu2
@example(_at_nu2_edge(0.0, grid_size=1, i=1))
@example(_at_nu2_edge(0.0, grid_size=2, i=1))
@example(_at_nu2_edge(0.0, grid_size=2, i=2))
@example((replace(_at_nu2_edge(0.0)[0], lambda_p=0.0), 0, 999))
# nu2 rounds to 1 + 2^-52 at the first split, where lambda_p = 0 is still met
@example((SystemConfig(M=4, gamma_p=1.0, gamma_s=30.0, R=0.25326530612244896,
                       case="nodirect"), 0, 19))
# f underflows to 0 at the last splits while the demands are all 0
@example((SystemConfig(M=2, gamma_p=50.0, gamma_s=30.0, R=1.5, case="nodirect"), 0, 49))
def test_search_zeta_matches_exhaustive_scan(scenario):
    cfg, k, grid_size = scenario
    # repr compares every field exactly, with nan equal to nan
    assert repr(search_zeta(cfg, k, grid_size)) == \
        repr(search_zeta_exhaustive(cfg, k, grid_size))


def test_search_zeta_fig2_rows_make_few_outage_calls(monkeypatch):
    calls = []
    real = cogrelay.qos.outage_probability

    def counted(cfg):
        calls.append(cfg.zeta)
        return real(cfg)

    monkeypatch.setattr(cogrelay.qos, "outage_probability", counted)
    for M in (4, 5, 6):
        for R in np.linspace(0.0, 1.5, 31):
            search_zeta(_preset(M, float(R), case="nodirect"), 0)
    # the exhaustive scan made 93 * 999 = 92,907 of them
    assert len(calls) < 1000


def test_search_zeta_bisects_past_the_nu2_prune(monkeypatch):
    # the 93 fig2 searches rule most low splits out on nu2 alone; testing
    # them one at a time took 11,116 nu2 evaluations
    calls = []
    real = cogrelay.qos._nu_small_k
    monkeypatch.setattr(cogrelay.qos, "_nu_small_k",
                        lambda cfg, q: calls.append(q) or real(cfg, q))
    for M in (4, 5, 6):
        for R in np.linspace(0.0, 1.5, 31):
            search_zeta(_preset(M, float(R), case="nodirect"), 0)
    assert len(calls) < 1600


def test_search_zeta_scan_matches_public_functions(monkeypatch):
    # f, nu2 and nu as the scan forms them, at every split, against the public
    # functions at replace(cfg, zeta=zeta), bit for bit.  Recording every nu as
    # 1 fails the primary at each split (lambda_p > 0), so the scan visits the
    # whole grid; with zero demands the f test never stops it, even where f
    # underflows to 0.
    def recorder(name, fn, result=None):
        def wrapped(*args):
            value = fn(*args)
            # tag each value with its split: f comes first in every split
            seen[name].append((len(seen["f"]) - (name != "f"), value))
            return value if result is None else result
        return wrapped

    qos = cogrelay.qos
    monkeypatch.setattr(qos, "_success_prob", recorder("f", qos._success_prob))
    monkeypatch.setattr(qos, "_nu_small_k", recorder("nu2", qos._nu_small_k))
    monkeypatch.setattr(qos, "_clip_unit", recorder("nu", qos._clip_unit, 1.0))
    grid_size = 9
    cfgs = [SystemConfig(M=M, gamma_p=gp, gamma_s=gs, R=R, case="nodirect", lambda_p=1e-300)
            for M in (2, 3, 6, 40, 1024) for R in (0.0, 0.5, 4.0)
            for gp, gs in ((50.0, 30.0), (1e4, 0.01))]
    scans = []
    for cfg in cfgs:
        seen = {"f": [], "nu2": [], "nu": []}
        assert not search_zeta(cfg, 0, grid_size).feasible
        scans.append(seen)
    monkeypatch.undo()
    n_nu = n_f0 = 0
    for cfg, seen in zip(cfgs, scans):
        assert [i for i, _ in seen["f"]] == list(range(grid_size))
        at = [replace(cfg, zeta=(i + 1) / (grid_size + 1)) for i in range(grid_size)]
        for i, f in seen["f"]:
            assert f == secondary_success_prob(at[i]), (cfg, i)
            n_f0 += f == 0.0
        for i, nu2 in seen["nu2"]:
            assert nu2 == _nu2_checked(at[i]), (cfg, i)
        for i, nu in seen["nu"]:
            assert nu == outage_probability(at[i]).nu, (cfg, i)
        n_nu += len(seen["nu"])
    assert n_f0 > 0 and n_nu > 0


def test_search_zeta_builds_at_most_one_config(monkeypatch):
    # a feasible search validates one config, the split it returns; an
    # infeasible one none, and neither evaluates the outage of a config
    built, outages = [], []
    post_init = SystemConfig.__post_init__
    real_outage = cogrelay.analytic.outage_probability

    def counted_post_init(self):
        built.append(self.zeta)
        post_init(self)

    monkeypatch.setattr(SystemConfig, "__post_init__", counted_post_init)
    for mod in (cogrelay.analytic, cogrelay.qos):
        monkeypatch.setattr(mod, "outage_probability",
                            lambda cfg: outages.append(cfg) or real_outage(cfg))
    for M in (4, 5, 6):
        for R in np.linspace(0.0, 1.5, 31):
            cfg = _preset(M, float(R), case="nodirect")
            built.clear()
            sol = search_zeta(cfg, 0)
            assert built == ([sol.zeta] if sol.feasible else []), (M, R)
    assert not outages


def test_search_zeta_builds_pmf_only_for_nu1(monkeypatch):
    # the K < 2 prune reads a scalar mass, so every pmf list built over the
    # 93 fig2 searches feeds a case-2 nu1 sum; a list per split that reaches
    # the prune would be 11,116 of them
    counts = {"pmf": 0, "nu1": 0}

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    analytic = cogrelay.analytic     # where `_nu1` looks both names up
    monkeypatch.setattr(analytic, "_binomial_pmf", counted("pmf", analytic._binomial_pmf))
    monkeypatch.setattr(analytic, "_case2_nu1", counted("nu1", analytic._case2_nu1))
    for M in (4, 5, 6):
        for R in np.linspace(0.0, 1.5, 31):
            search_zeta(_preset(M, float(R), case="nodirect"), 0)
    assert counts == {"pmf": 572, "nu1": 572}


def test_split_threshold_is_thresholds_bit_for_bit():
    # the search's split function at i/n is replace(cfg, zeta=i/n).thresholds()
    for R in (0.0, 1e-300, 0.05, 0.6, 1.5, 7.0, 900.0):
        cfg = _preset(4, R, case="nodirect")
        for n in (2, 3, 4, 10, 50, 1000):
            for i in range(1, n):
                zeta = i / n
                assert (_split_threshold(R, zeta), _split_threshold(R, zeta, True)) == \
                    replace(cfg, zeta=zeta).thresholds(), (R, i, n)


def test_infeasible_markers_are_the_cli_rows():
    # the solution `_solve` returns at an infeasible point is the row the CLI
    # prints: NaN omega and slack, zeta echoed, lambda_k_max as max_lambda_k
    # reports it (0 when the primary fails)
    nan = math.nan
    primary = SystemConfig(M=3, gamma_p=2.0, gamma_s=30.0, R=2.0, lambda_p=0.9)
    sol, err = _solve(primary, np.int64(1))
    assert isinstance(err, PrimaryInfeasible)
    assert repr(sol) == repr(QosSolution(feasible=False, omega=(nan, nan, nan), zeta=0.5,
                                         lambda_k_max=0.0, slack=nan, k=1))
    assert type(sol.k) is int
    secondary = SystemConfig(M=3, gamma_p=50.0, gamma_s=30.0, R=0.6, case="nodirect",
                             zeta=0.25, lambda_s=(0.3, 0.4, 0.5))
    sol, err = _solve(secondary, 2)
    f = secondary_success_prob(secondary)
    assert isinstance(err, SecondaryInfeasible)
    assert repr(sol) == repr(QosSolution(feasible=False, omega=(nan, nan, nan), zeta=0.25,
                                         lambda_k_max=max(0.0, f - fsum((0.3, 0.4))),
                                         slack=nan, k=2))
    assert sol.lambda_k_max == max_lambda_k(secondary, 2)
