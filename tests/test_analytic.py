"""Outage closed forms against independent oracles.

Oracle strategy: everything here is checked against something that does NOT
share code with the implementation — hand-derived special cases (M = 2, 3),
direct scipy quadrature of the defining integrals, or conditional Monte
Carlo with fixed seeds.  No expected value is copied out of the library.
"""
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import oracles
from cogrelay import (Case, InvalidCase, SystemConfig, case1_outage,
                      case2_outage, effective_gain,
                      outage_highsnr, outage_probability, substream)
from cogrelay import analytic
from cogrelay.channel import _binomial_pmf
from oracles import (SeriesNotConverged, _case1_bracket, average_over_phi,
                     case1_outage_given_phi, case2_outage_given_phi,
                     case2_nu1_mp, outage_highsnr_direct, outage_mp, snr_threshold)


def _cfg(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5, case="direct", zeta=0.5):
    return SystemConfig(M=M, gamma_p=gamma_p, gamma_s=gamma_s, R=R,
                        case=case, zeta=zeta)


def _draw(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


# ---------------------------------------------------------------- exact special cases

def test_m2_case1_is_direct_link_only():
    # a single candidate relay can never form a 2+ beamforming set, so the
    # primary survives on its direct link alone
    for g, R in ((10.0, 0.5), (50.0, 1.0), (200.0, 0.25)):
        cfg = _cfg(M=2, gamma_p=g, R=R)
        q = snr_threshold(2.0 * R) / g
        b = case1_outage(cfg)
        assert math.isclose(b.nu, -math.expm1(-q), rel_tol=1e-12)
        assert b.nu1 == 0.0


def test_m2_case2_always_fails():
    for R in (0.0, 0.5, 2.0):
        cfg = _cfg(M=2, R=R, case="nodirect")
        assert case2_outage(cfg).nu == 1.0


def test_m3_case1_closed_oracle():
    # For M=3 only K=2 beamforms and alpha ~ Exp(1).  Averaging the
    # conditional outage over phi ~ Exp(mean gamma_s) reduces, via the
    # Frullani integral, to:  nu1 = L^2 (1 - e^-Q - e^-Q ln(1+Q gs)/gs).
    for g, R, gs in ((50.0, 0.5, 30.0), (10.0, 1.0, 5.0), (200.0, 0.25, 80.0)):
        cfg = _cfg(M=3, gamma_p=g, gamma_s=gs, R=R)
        q = snr_threshold(2.0 * R) / g
        L = math.exp(-q)
        bracket = (1.0 - L) - L * math.log1p(q * gs) / gs
        nu1 = L * L * bracket
        nu2 = (1.0 - L * L) * (1.0 - L)  # pmf0+pmf1 = 1-L^2, times direct failure
        got = case1_outage(cfg)
        assert math.isclose(got.nu1, nu1, rel_tol=1e-7)
        assert math.isclose(got.nu2, nu2, rel_tol=1e-12)
        assert math.isclose(got.nu, nu1 + nu2, rel_tol=1e-7)


def test_m3_case2_closed_oracle():
    # K=2 gives alpha ~ Exp(1): E_phi[1 - e^{-c(1+phi)}] = 1 - e^-c/(1+c gs)
    for g, R, gs, z in ((50.0, 0.5, 30.0, 0.5), (10.0, 0.8, 5.0, 0.4),
                        (200.0, 0.25, 80.0, 0.6)):
        cfg = _cfg(M=3, gamma_p=g, gamma_s=gs, R=R, case="nodirect", zeta=z)
        Lb = math.exp(-snr_threshold(R / z) / g)
        c = snr_threshold(R / (1.0 - z)) / g
        nu2 = 1.0 - Lb * Lb
        nu1 = Lb * Lb * (1.0 - math.exp(-c) / (1.0 + c * gs))
        got = case2_outage(cfg)
        assert math.isclose(got.nu2, nu2, rel_tol=1e-12)
        assert math.isclose(got.nu1, nu1, rel_tol=1e-10)


# ------------------------------------------------- conditional forms vs quadrature

def test_case1_given_phi_u_integral_oracle():
    # Pr{alpha/(1+phi) + beta < Q} = Q e^-Q int_0^1 e^{Qu} P(K-1, Q(1+phi)u) du
    # with alpha ~ Gamma(K-1,1), beta ~ Exp(1); evaluated by adaptive
    # quadrature on the defining integral, independent of the series code.
    for M, g, R in ((4, 50.0, 0.5), (6, 10.0, 1.0), (4, 10.0, 0.25)):
        cfg = _cfg(M=M, gamma_p=g, R=R)
        q = snr_threshold(2.0 * R) / g
        pmf = oracles.decoding_pmf(cfg)
        for phi in (0.05, 1.0, 40.0):
            ref = 0.0
            for K in range(2, M):
                val, err = integrate.quad(
                    lambda u, K=K: math.exp(q * u) * special.gammainc(K - 1, q * (1.0 + phi) * u),
                    0.0, 1.0, epsabs=0.0, epsrel=1e-11)
                ref += pmf[K] * q * math.exp(-q) * val
            got = case1_outage_given_phi(cfg, phi)
            assert math.isclose(got.nu1, ref, rel_tol=1e-8), (M, g, R, phi)


def test_case2_given_phi_formula():
    for M, g, R, z in ((4, 50.0, 0.5, 0.5), (6, 20.0, 0.7, 0.35)):
        cfg = _cfg(M=M, gamma_p=g, R=R, case="nodirect", zeta=z)
        pmf = oracles.decoding_pmf(cfg)
        for phi in (0.2, 1.0, 10.0):
            x = snr_threshold(R / (1.0 - z)) * (1.0 + phi) / g
            ref = sum(pmf[K] * special.gammainc(K - 1, x) for K in range(2, M))
            got = case2_outage_given_phi(cfg, phi)
            assert math.isclose(got.nu1, ref, rel_tol=1e-12)
            assert math.isclose(got.nu2, pmf[0] + pmf[1], rel_tol=1e-12)


def test_expected_poisson_tail_quadrature_oracle(monkeypatch):
    # E_phi[P(n, c(1+phi))] by direct integration of the Gamma CDF, read off
    # case2_outage as nu1 when the decoding set has exactly n + 1 relays
    for n, c, gs in ((1, 0.04, 30.0), (2, 0.3, 5.0), (4, 0.02, 30.0),
                     (5, 1.5, 80.0), (3, 2e-4, 30.0)):
        ref, err = integrate.quad(
            lambda t: special.gammainc(n, c * (1.0 + gs * t)) * math.exp(-t),
            0.0, 60.0, epsabs=0.0, epsrel=1e-11, limit=200)
        cfg = _cfg(M=n + 3, gamma_s=gs, case="nodirect")
        cfg = replace(cfg, gamma_p=snr_threshold(oracles.phase_rates(cfg)[1]) / c)
        pmf = [0.0] * cfg.M
        pmf[n + 1] = 1.0
        monkeypatch.setattr(analytic, "_binomial_pmf", lambda _m, _q: pmf)
        got = case2_outage(cfg).nu1
        assert math.isclose(got, ref, rel_tol=1e-8), (n, c, gs, got, ref)


def test_case2_outage_equals_phi_average():
    # averaging the conditional form over phi must reproduce the closed form:
    # three random configs, then weak interference (where a gamma_s < 1/700
    # shortcut that dropped phi was off by 1.8e-3) and the deep tail at
    # nu ~ 1.2e-11
    rng = np.random.default_rng(2024)
    cfgs = [_cfg(M=int(rng.integers(3, 7)), gamma_p=float(rng.uniform(5, 300)),
                 gamma_s=float(rng.uniform(5, 80)),
                 R=float(rng.uniform(0.1, 1.2)), case="nodirect",
                 zeta=float(rng.uniform(0.25, 0.75)))
            for _ in range(3)]
    cfgs += [_cfg(M=10, gamma_p=1e4, gamma_s=1e-3, R=0.5, case="nodirect"),
             _cfg(M=5, gamma_p=1e4, gamma_s=30.0, R=0.05, case="nodirect")]
    for cfg in cfgs:
        closed = case2_outage(cfg).nu
        avg = average_over_phi(lambda p: case2_outage_given_phi(cfg, p).nu,
                               cfg.gamma_s)
        assert math.isclose(avg, closed, rel_tol=1e-6), (cfg, closed, avg)


def test_case1_outage_dual_quadrature_route():
    # independent integration path: raw quad over phi with the Exp density,
    # no substitution, no tail doubling
    for M, g, R, gs in ((4, 50.0, 0.5, 30.0), (3, 10.0, 1.0, 5.0),
                        (5, 100.0, 0.4, 30.0)):
        cfg = _cfg(M=M, gamma_p=g, gamma_s=gs, R=R)
        ref, err = integrate.quad(
            lambda p: case1_outage_given_phi(cfg, p).nu1 * math.exp(-p / gs) / gs,
            0.0, np.inf, epsabs=0.0, epsrel=1e-10, limit=400, points=None)
        got = case1_outage(cfg).nu1
        assert math.isclose(got, ref, rel_tol=2e-6), (M, g, R)


# ------------------------------------------------------------ conditional Monte Carlo

def _conditional_mc_case1(cfg, phi, n, seed):
    rng = substream(seed, 0)
    m = cfg.M - 1
    h_p_relay = _draw(rng, (n, m))
    h_relay_pd = _draw(rng, (n, m))
    h_relay_sd = _draw(rng, (n, m))
    h_p_pd = _draw(rng, n)
    thr_b, thr_f = (snr_threshold(rate) for rate in oracles.phase_rates(cfg))
    mask = cfg.gamma_p * np.abs(h_p_relay) ** 2 >= thr_b
    k = mask.sum(axis=1)
    alpha = np.where(k >= 2, effective_gain(h_relay_pd, h_relay_sd, mask), 0.0)
    combined = cfg.gamma_p * alpha / (1.0 + phi) + cfg.gamma_p * np.abs(h_p_pd) ** 2
    p = float(np.mean(combined < thr_f))
    return p


def _conditional_mc_case2(cfg, phi, n, seed):
    rng = substream(seed, 0)
    m = cfg.M - 1
    h_p_relay = _draw(rng, (n, m))
    h_relay_pd = _draw(rng, (n, m))
    h_relay_sd = _draw(rng, (n, m))
    thr_b, thr_f = (snr_threshold(rate) for rate in oracles.phase_rates(cfg))
    mask = cfg.gamma_p * np.abs(h_p_relay) ** 2 >= thr_b
    k = mask.sum(axis=1)
    alpha = np.where(k >= 2, effective_gain(h_relay_pd, h_relay_sd, mask), 0.0)
    fail = (k < 2) | (cfg.gamma_p * alpha / (1.0 + phi) < thr_f)
    return float(np.mean(fail))


def test_case1_given_phi_vs_conditional_mc():
    n = 1_000_000
    for phi, seed in ((0.3, 11), (1.0, 12)):
        cfg = _cfg(M=4, gamma_p=10.0, R=1.0)
        nu = case1_outage_given_phi(cfg, phi).nu
        p_hat = _conditional_mc_case1(cfg, phi, n, seed)
        se = math.sqrt(nu * (1.0 - nu) / n)
        assert abs(p_hat - nu) <= 4.0 * se, (phi, p_hat, nu)


def test_case2_given_phi_vs_conditional_mc():
    n = 1_000_000
    for phi, seed in ((1.0, 21), (0.25, 22)):
        cfg = _cfg(M=4, gamma_p=50.0, R=0.5, case="nodirect", zeta=0.5)
        nu = case2_outage_given_phi(cfg, phi).nu
        p_hat = _conditional_mc_case2(cfg, phi, n, seed)
        se = math.sqrt(nu * (1.0 - nu) / n)
        assert abs(p_hat - nu) <= 4.0 * se, (phi, p_hat, nu)


# ----------------------------------------------------------------- high-SNR asymptotes

def test_highsnr_hand_values():
    # M=3, case 1: [C(2,2) E[1+phi]/2! + (M-1)] Q^2 = (31/2 + 2) Q^2 at gs=30
    cfg = _cfg(M=3, gamma_p=1e3, R=0.5)
    q = 1.0 / 1e3
    assert math.isclose(outage_highsnr(cfg), 17.5 * q * q, rel_tol=1e-12)
    # M=4, case 2, zeta=1/2, R=0.3: equal thresholds q = (2^0.6 - 1)/g and
    # 3q^2 + 3q^2 E[1+phi] + q^2 E[(1+phi)^2]/2 with E-moments 31 and 1861
    cfg2 = _cfg(M=4, gamma_p=1e3, R=0.3, case="nodirect", zeta=0.5)
    qb = (2.0 ** 0.6 - 1.0) / 1e3
    hand = (3.0 + 3.0 * 31.0 + 1861.0 / 2.0) * qb * qb
    assert math.isclose(outage_highsnr(cfg2), hand, rel_tol=1e-12)
    # M=2, case 2: no pair of relays ever exists, so the asymptote is 1
    assert outage_highsnr(_cfg(M=2, case="nodirect")) == 1.0


def test_highsnr_ratio_converges_to_one():
    for case in ("direct", "nodirect"):
        for M in (3, 4, 6):
            ratios = []
            for g in (1e2, 1e3, 1e4):
                cfg = _cfg(M=M, gamma_p=g, R=0.5, case=case)
                ratios.append(outage_probability(cfg).nu / outage_highsnr(cfg))
            assert 0.5 < ratios[-1] < 2.0, (case, M, ratios)
            assert abs(1.0 - ratios[0]) > abs(1.0 - ratios[-1])


def test_highsnr_gap_never_grows_with_snr():
    # |nu / outage_highsnr - 1| falls (or holds) from each decade of gamma_p
    # to the next, from 1e2 up to 1e14 or until nu drops below 1e-290; the
    # worst gap left in the last decade is about 1.2e-4
    splits = [("direct", 0.5)] + [("nodirect", z) for z in (0.3, 0.5, 0.9)]
    for (case, zeta), M, gs, R in itertools.product(
            splits, (2, 3, 4, 6, 10, 40), (0.01, 1.0, 30.0, 1e4), (0.1, 0.5, 1.5)):
        prev = None
        for e in range(2, 15):
            cfg = _cfg(M=M, gamma_p=10.0**e, gamma_s=gs, R=R, case=case, zeta=zeta)
            nu = outage_probability(cfg).nu
            if nu < 1e-290:
                break
            gap = abs(nu / outage_highsnr(cfg) - 1.0)
            if prev is not None:
                assert gap <= (1.0 + 1e-6) * prev + 1e-12, (cfg, prev, gap)
            prev = gap


def test_highsnr_finite_up_to_m170():
    # the plain-float sums gave inf from M = 60 at the first point, NaN at M = 170
    for case in ("direct", "nodirect"):
        for g, gs in ((1e3, 1e4), (1e8, 30.0)):
            for M in range(2, 171):
                hs = outage_highsnr(_cfg(M=M, gamma_p=g, gamma_s=gs, R=0.5, case=case))
                assert math.isfinite(hs) and hs >= 0.0, (case, g, gs, M, hs)


def test_highsnr_matches_plain_float_sum():
    # wherever the plain products neither overflow nor underflow on the way
    for case, zetas in (("direct", (0.5,)), ("nodirect", (0.1, 0.5, 0.9))):
        for M in range(2, 41):
            for g in (1.0, 10.0, 1e3, 1e5):
                for gs in (1e-2, 0.5, 30.0, 1e4):
                    for R in (0.0, 0.05, 0.5, 1.5):
                        for zeta in zetas:
                            cfg = _cfg(M=M, gamma_p=g, gamma_s=gs, R=R, case=case, zeta=zeta)
                            ref = outage_highsnr_direct(cfg)
                            if math.isfinite(ref):
                                assert math.isclose(outage_highsnr(cfg), ref, rel_tol=1e-12), cfg


def test_highsnr_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def moment(n, gs):    # E[(1+phi)^n] as raw exponential moments
        return mpmath.fsum(mpmath.factorial(n) / mpmath.factorial(n - j) * gs ** j
                           for j in range(n + 1))

    def thr(rate):
        return mpmath.mpf(2) ** rate - 1

    # (1e8, 1e4, 0.05) is where the plain-float sums lose their leading terms
    for M, (g, gs, R) in itertools.product(
            (3, 10, 40, 60, 100, 170),
            ((1e3, 1e4, 0.5), (1e8, 30.0, 0.5), (1e8, 1e4, 0.05), (1.0, 1e-2, 1.5))):
        with mpmath.workdps(50):
            m, gs_mp, R_mp = M - 1, mpmath.mpf(gs), mpmath.mpf(R)
            Q = thr(2 * R_mp) / g
            ref1 = Q ** m * (m + mpmath.fsum(mpmath.binomial(m, K) * moment(K - 1, gs_mp)
                                             / mpmath.factorial(K) for K in range(2, M)))
            qb, qf = thr(R_mp / mpmath.mpf(0.1)) / g, thr(R_mp / mpmath.mpf(0.9)) / g
            ref2 = m * qb ** (m - 1) + mpmath.fsum(
                mpmath.binomial(m, K) * qb ** (m - K) * qf ** (K - 1)
                * moment(K - 1, gs_mp) / mpmath.factorial(K - 1) for K in range(2, M))
        for cfg, ref in ((_cfg(M=M, gamma_p=g, gamma_s=gs, R=R), ref1),
                         (_cfg(M=M, gamma_p=g, gamma_s=gs, R=R, case="nodirect",
                               zeta=0.1), ref2)):
            if 1e-300 < ref < 1e300:
                assert abs(outage_highsnr(cfg) - ref) <= 1e-12 * ref, (cfg, ref)


# ------------------------------------------------------- independent mpmath oracle

def test_closed_forms_match_mpmath_oracle():
    # outage_mp shares no code with analytic.py or channel.py; with the
    # decoding-set pmf's failure probability taken as 1 - L, nu was off by
    # up to 4.4e-8 relative at gamma_p = 1e8
    checked = 0
    for case, M, g, gs, R in itertools.product(("direct", "nodirect"), (3, 6, 10, 40),
                                               (1e2, 1e4, 1e8), (1e-3, 1e-2, 30.0, 1e4),
                                               (0.05, 0.5)):
        cfg = _cfg(M=M, gamma_p=g, gamma_s=gs, R=R, case=case, zeta=0.5)
        ref = outage_mp(cfg)
        if ref > 1e-300:              # a few M = 40 points leave the normal range
            got = outage_probability(cfg).nu
            assert abs(got - ref) <= 1e-12 * ref, (cfg, got, ref)
            checked += 1
    assert checked >= 185, checked


def test_case2_outage_where_poisson_weight_underflows():
    # c = (2^25 - 1)/gamma_p in 700..760 at R = 1, zeta = 0.96: e^-c is
    # normal, subnormal or 0.  A shortcut that took A_n = 1 once e^-c was 0
    # gave nu1 = 1.0 at c = 760 (mpmath: 0.99956 / 0.99829 / 0.99397), and
    # a subnormal e^-c cost up to 2.6e-3 relative at c = 740
    for c, M in itertools.product((700, 720, 740, 760), (760, 800, 900)):
        cfg = _cfg(M=M, gamma_p=(2**25 - 1) / c, gamma_s=30.0, R=1.0,
                   case="nodirect", zeta=0.96)
        got, ref = case2_outage(cfg).nu1, case2_nu1_mp(cfg)
        assert abs(got - ref) <= 1e-12 * ref, (c, M, got, ref)
    # deep in the tail, where Pr{Poisson(c) >= n} formed as 1 - Pr{< n}
    # cancelled: the oracle gave 1.1e-41 for 5.985e-229 and 4.8e-178 for
    # 1.298e-177
    for gamma_p, R in ((10**6.5, 0.5), (1e8, 1.5)):
        cfg = _cfg(M=40, gamma_p=gamma_p, gamma_s=0.01, R=R, case="nodirect", zeta=0.9)
        got, ref = case2_outage(cfg).nu1, case2_nu1_mp(cfg)
        assert abs(got - ref) <= 1e-12 * ref, (gamma_p, R, got, ref)
    # an infinite threshold leaves every A_n = 1 and no NaN
    cfg = _cfg(M=6, R=1.5, case="nodirect", zeta=0.999)
    pmf = _binomial_pmf(cfg.M - 1, cfg.thresholds()[0] / cfg.gamma_p)
    assert case2_outage(cfg).nu1 == sum(pmf[2:])


# ------------------------------------------------------------------ series term caps

def test_series_caps_raise_on_nan():
    # looped forever before the term cap
    with pytest.raises(SeriesNotConverged):
        case1_outage_given_phi(_cfg(), math.nan)


def test_series_caps_raise_when_terms_run_out(monkeypatch):
    monkeypatch.setattr(oracles, "_MAX_TERMS", 2)
    with pytest.raises(SeriesNotConverged):
        _case1_bracket(3, 0.5, 0.1)               # V(m, s) series
    with pytest.raises(SeriesNotConverged):
        _case1_bracket(30, 10.0, 0.0)             # positive tail from m = K-1


# ------------------------------------------------------------------------- properties

def test_monotone_in_rate_and_snr():
    nus = [outage_probability(_cfg(M=4, R=r)).nu for r in (0.1, 0.3, 0.6, 1.0, 1.5)]
    assert all(a < b for a, b in zip(nus, nus[1:]))
    nus = [outage_probability(_cfg(M=4, gamma_p=g, case="nodirect")).nu
           for g in (5.0, 20.0, 80.0, 320.0)]
    assert all(a > b for a, b in zip(nus, nus[1:]))


@settings(max_examples=200, deadline=None)
@given(M=st.integers(2, 12), gamma_p=st.floats(0.1, 1e8), gamma_s=st.floats(1e-2, 1e4),
       R=st.floats(0.0, 2.0), zeta=st.floats(0.05, 0.95),
       case=st.sampled_from(("direct", "nodirect")))
# nu2 rounded to 1.0000000000000002 here before nu1 and nu2 were clipped
@example(M=5, gamma_p=36.01, gamma_s=0.04455, R=1.615, zeta=0.1563, case="nodirect")
def test_outage_parts_lie_in_unit_interval_and_fall_with_snr(M, gamma_p, gamma_s, R,
                                                             zeta, case):
    cfg = _cfg(M=M, gamma_p=gamma_p, gamma_s=gamma_s, R=R, case=case, zeta=zeta)
    b = outage_probability(cfg)
    assert all(0.0 <= x <= 1.0 for x in (b.nu1, b.nu2, b.nu)), b
    # doubling gamma_p at fixed R and zeta never raises nu beyond rounding
    doubled = outage_probability(replace(cfg, gamma_p=2.0 * gamma_p)).nu
    assert doubled <= b.nu * (1.0 + 1e-15), (b.nu, doubled)


def test_breakdown_consistency():
    for case in ("direct", "nodirect"):
        for M in (2, 3, 5):
            b = outage_probability(_cfg(M=M, case=case))
            assert 0.0 <= b.nu1 <= 1.0 and 0.0 <= b.nu2 <= 1.0
            assert math.isclose(b.nu, min(1.0, b.nu1 + b.nu2), rel_tol=1e-12)
            assert b.nu <= 1.0 + 1e-9


def test_zeta_continuity_and_edges():
    base = case2_outage(_cfg(case="nodirect", zeta=0.5)).nu
    for dz in (1e-9, -1e-9):
        v = case2_outage(_cfg(case="nodirect", zeta=0.5 + dz)).nu
        assert math.isclose(v, base, rel_tol=1e-6)
    # starving either phase forces certain outage
    assert case2_outage(_cfg(case="nodirect", zeta=0.999)).nu > 0.99
    assert case2_outage(_cfg(case="nodirect", zeta=0.001)).nu > 0.99


def test_gamma_doubling_matches_diversity_order():
    # at high SNR nu ~ C gamma^-(M-1), so doubling gamma divides by 2^(M-1)
    for M in (3, 4):
        a = outage_probability(_cfg(M=M, gamma_p=1e4)).nu
        b = outage_probability(_cfg(M=M, gamma_p=2e4)).nu
        assert math.isclose(a / b, 2.0 ** (M - 1), rel_tol=0.05)


def test_rate_zero_edges():
    assert case1_outage(_cfg(R=0.0)).nu == 0.0
    assert case2_outage(_cfg(M=3, R=0.0, case="nodirect")).nu == 0.0
    assert case2_outage(_cfg(M=2, R=0.0, case="nodirect")).nu == 1.0


@pytest.mark.parametrize("M", [2, 3, 1024])
def test_rate_zero_has_no_relayed_outage(M):
    # at R = 0 the thresholds vanish, so the general sums give nu1 = +0.0
    # exactly, with no R = 0 branch
    for out in (case1_outage(_cfg(M=M, R=0.0)),
                case2_outage(_cfg(M=M, R=0.0, case="nodirect"))):
        assert out.nu1 == 0.0 and math.copysign(1.0, out.nu1) == 1.0, (M, out)


def test_closed_forms_stop_within_time_budget():
    # every point of a fixed grid over the domain returns in well under 5 s;
    # the slowest, M = 1024 in case 1, took about 0.4 s on a 2-core host
    for M, case, gamma_p, R in itertools.product(
            (2, 40, 1024), ("direct", "nodirect"), (1e-3, 1.0, 1e8), (0.01, 4.0)):
        cfg = _cfg(M=M, gamma_p=gamma_p, R=R, case=case)
        for fn in (outage_probability, outage_highsnr):
            t0 = time.perf_counter()
            fn(cfg)
            assert time.perf_counter() - t0 < 5.0, (fn.__name__, cfg)


_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(M=st.integers(2, 1024), case=st.sampled_from(("direct", "nodirect")),
       gamma_p=_POSITIVE, gamma_s=_POSITIVE, R=st.floats(0.0, allow_infinity=False),
       zeta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_closed_forms_stop_within_time_budget_anywhere(M, case, gamma_p, gamma_s, R, zeta):
    # the fixed grid above, drawn over the whole documented domain instead
    cfg = _cfg(M=M, gamma_p=gamma_p, gamma_s=gamma_s, R=R, case=case, zeta=zeta)
    for fn in (outage_probability, outage_highsnr):
        t0 = time.perf_counter()
        fn(cfg)
        assert time.perf_counter() - t0 < 5.0, (fn.__name__, cfg)


def test_extreme_rate_saturates_cleanly():
    b = case1_outage(_cfg(R=3000.0))
    assert b.nu == 1.0 and not math.isnan(b.nu1)
    b2 = case2_outage(_cfg(R=3000.0, case="nodirect"))
    assert b2.nu == 1.0


def test_case_dispatch_errors():
    c1 = _cfg(case="direct")
    c2 = _cfg(case="nodirect")
    with pytest.raises(InvalidCase):
        case1_outage(c2)
    with pytest.raises(InvalidCase):
        case2_outage(c1)
    with pytest.raises(InvalidCase):
        case1_outage_given_phi(c2, 1.0)
    with pytest.raises(InvalidCase):
        case2_outage_given_phi(c1, 1.0)
    assert outage_probability(c1).nu == case1_outage(c1).nu
    assert outage_probability(c2).nu == case2_outage(c2).nu


# ------------------------------------------------------------- case-1 closed form

def _raw_phi_quad(cfg):
    # raw quad over phi in [0, inf) with the Exp density, as in the dual route
    val, err = integrate.quad(
        lambda p: case1_outage_given_phi(cfg, p).nu1 * math.exp(-p / cfg.gamma_s) / cfg.gamma_s,
        0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return val


def test_case1_closed_form_stress_grid():
    # gamma_p x gamma_s corners for each M, with R cycling through its range
    # so that (gamma_p = 1, gamma_s = 1e4) never meets R = 1.5: that corner
    # defeats this oracle and is checked against the raw route below
    rates = (0.05, 0.5, 1.5)
    corners = [(g, gs) for g in (1.0, 1e2, 1e4, 1e8) for gs in (1e-2, 1.0, 30.0, 1e4)]
    points = [(M, g, gs, rates[(i + M) % 3])
              for M in (3, 4, 6, 10) for i, (g, gs) in enumerate(corners)]
    points += [(40, 1e4, 1e-2, 1.5), (40, 1e8, 1.0, 1.5)]
    for M, g, gs, R in points:
        cfg = _cfg(M=M, gamma_p=g, gamma_s=gs, R=R)
        ref = average_over_phi(lambda p: case1_outage_given_phi(cfg, p).nu1, gs,
                               rel_tol=1e-11)
        got = case1_outage(cfg).nu1
        assert math.isclose(got, ref, rel_tol=1e-10), (M, g, gs, R, got, ref)


def test_case1_former_quadrature_failures():
    # the phi-averaging route raised QuadratureFailure on these valid inputs
    for M in (3, 4, 6):
        cfg = _cfg(M=M, gamma_p=1.0, gamma_s=1e4, R=1.5)
        got = case1_outage(cfg)
        assert math.isclose(got.nu1, _raw_phi_quad(cfg), rel_tol=1e-10), M
        assert 0.0 <= got.nu <= 1.0


def test_case1_hypergeometric_recurrence_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")
    from cogrelay.analytic import _case1_h, _case1_row_down
    with mpmath.workdps(30):
        for n in (1, 2, 7, 40, 98, 99, 120, 168):
            # every k up to n = 40, then both ends, the quarters and the a = 0.9 seed
            ks = range(1, n + 1) if n <= 40 else sorted(
                {1, 2, n // 4, n // 2, 3 * n // 4, round((n + 1) / 1.1), n - 1, n})
            for a in (1e-12, 0.5, 0.9, 0.99, 1.0 - 1e-9):
                h = _case1_h(n, a, 1.0 - a)
                for k in ks:
                    ref = float(mpmath.hyp2f1(1, k, n + 2, a))
                    assert math.isclose(h[k], ref, rel_tol=1e-13), (n, a, k, h[k], ref)
        # rows descended from one seeded top row N, as `_case1_nu1` builds them
        for top in (40, 168, 1022):
            rows = {1, 2, 3, top // 4, top // 2, top - 1}
            for a in (1e-12, 0.5, 0.9, 0.99, 1.0 - 1e-9):
                h = _case1_h(top, a, 1.0 - a)
                for n in range(top - 1, 0, -1):
                    h = _case1_row_down(h, a, n)
                    if n not in rows:
                        continue
                    for k in sorted({1, max(n // 2, 1), n}):
                        ref = float(mpmath.hyp2f1(1, k, n + 2, a))
                        assert math.isclose(h[k], ref, rel_tol=1e-13), (top, n, a, k, h[k], ref)
        # both sides of a = 0.6 (a seed series of 100 terms) and of the
        # log-branch boundary (n+1) b = 1/2, every k
        for n in (1, 2, 4, 8, 38):
            a_log = 1.0 - 0.5 / (n + 1)
            for a in (0.6 - 1e-9, 0.6 + 1e-9, a_log - 1e-9, a_log + 1e-9):
                h = _case1_h(n, a, 1.0 - a)
                for k in range(1, n + 1):
                    ref = float(mpmath.hyp2f1(1, k, n + 2, a))
                    assert math.isclose(h[k], ref, rel_tol=1e-13), (n, a, k, h[k], ref)
        # long seed series, from just past the log boundary: a running sum of
        # their 5,700 to 63,000 terms drifts to 1e-13
        for n, nb in itertools.product((499, 1022), (0.505, 1.0, 5.0)):
            a = 1.0 - nb / (n + 1)
            h = _case1_h(n, a, 1.0 - a)
            k_seed = min(max(round((n + 1) / (2.0 - a)), 1), n)
            for k in sorted({1, n // 4, n // 2, k_seed, 3 * n // 4, n}):
                ref = float(mpmath.hyp2f1(1, k, n + 2, a))
                assert math.isclose(h[k], ref, rel_tol=1e-13), (n, a, k, h[k], ref)


def _log_seed_rule(n, b):
    """The documented rule for `_case1_h`'s log-form seed, restated from its docstring."""
    if n * b > 1.0:
        return False
    a = 1.0 - b
    lb = -math.log(b)
    tail = lb - math.fsum(a**i / i for i in range(1, n + 1))
    return (n + 1) * b <= 0.5 or 8.0 * tail >= lb > 0.0


def _log_seed_boundary(n):
    """(lo, hi), one ulp-scale bracket around the largest b the rule gives the log form at n."""
    lo, hi = 0.5 / (n + 1), min(1.0, 1.0 / n * (1.0 + 1e-12))
    assert _log_seed_rule(n, lo) and not _log_seed_rule(n, hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _log_seed_rule(n, mid) else (lo, mid)
    return lo, hi


def test_case1_log_seed_boundary_vs_mpmath(monkeypatch):
    # the log-form seed reaches past (n+1) b = 1/2 up to n b = 1 or until its
    # subtraction would keep less than 1/8 of -ln b; on both sides of where it
    # stops, each h_k agrees with mpmath
    mpmath = pytest.importorskip("mpmath")
    sums = []                 # only the seed series calls fsum
    monkeypatch.setattr(analytic, "fsum", lambda xs: sums.append(1) or math.fsum(xs))
    for n in (1, 2, 3, 4, 8, 25, 38, 98, 300, 499, 1022):
        lo, hi = _log_seed_boundary(n)
        ks = range(1, n + 1) if n <= 40 else sorted(
            {1, 2, n // 4, n // 2, 3 * n // 4, n - 1, n})
        for b, log_form in ((lo * (1.0 - 1e-6), True), (hi * (1.0 + 1e-6), False)):
            a = 1.0 - b
            sums.clear()
            h = analytic._case1_h(n, a, 1.0 - a)
            assert len(sums) == (0 if log_form else 1), (n, b)
            with mpmath.workdps(30):
                for k in ks:
                    ref = float(mpmath.hyp2f1(1, k, n + 2, a))
                    assert math.isclose(h[k], ref, rel_tol=1e-13), (n, a, k, h[k], ref)


def test_case1_log_seed_sweep_vs_mpmath(monkeypatch):
    # seeded draws past the old bound (n+1) b = 1/2 that the log-form seed
    # now takes: every checked h_k is within 5e-15 of 40-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    sums = []
    monkeypatch.setattr(analytic, "fsum", lambda xs: sums.append(1) or math.fsum(xs))
    rng = np.random.default_rng(34)
    worst, draws = 0.0, 0
    while draws < 60:
        n = int(rng.integers(1, 41) if draws % 2 else rng.integers(1, 301))
        a = 1.0 - rng.uniform(0.5 / (n + 1), _log_seed_boundary(n)[0])
        if (n + 1) * (1.0 - a) <= 0.5 or not _log_seed_rule(n, 1.0 - a):
            continue
        h = analytic._case1_h(n, a, 1.0 - a)
        assert sums == [], (n, a)
        draws += 1
        ks = range(1, n + 1) if n <= 40 else sorted({1, 2, n // 4, n // 2, 3 * n // 4, n})
        with mpmath.workdps(40):
            for k in ks:
                ref = mpmath.hyp2f1(1, k, n + 2, a)
                worst = max(worst, float(abs((h[k] - ref) / ref)))
    assert worst <= 5e-15, worst


@pytest.mark.parametrize("M", [3, 6, 40])
def test_case1_seeds_one_row_per_call(monkeypatch, M):
    calls = []
    seed = analytic._case1_h
    monkeypatch.setattr(analytic, "_case1_h", lambda *a: calls.append(a) or seed(*a))
    outage_probability(_cfg(M=M, R=0.75))
    assert [n for n, _a, _b in calls] == [M - 2]


def test_case1_seed_at_the_fig1_point_builds_no_array(monkeypatch):
    # gamma_p 50, gamma_s 30: R 0.75 gives a = 0.52 and the last fig1 rate,
    # R 1.5, a = 0.81; either seed series is summed in floats
    calls = []
    arange = np.arange
    monkeypatch.setattr(np, "arange", lambda *a, **k: calls.append(a) or arange(*a, **k))
    for M, R in itertools.product((4, 5, 6), (0.75, 1.5)):
        outage_probability(_cfg(M=M, R=R))
    assert calls == []


def test_case1_large_m_stays_finite():
    # scipy's hyp2f1 is inf or out of bounds here (n >= 99, a > 0.9); the
    # phi-quadrature route gave nu1 = 0.8730261390729194 in about 20 s
    b = case1_outage(_cfg(M=120, gamma_p=1.0, gamma_s=30.0, R=1.0))
    assert math.isfinite(b.nu) and 0.0 <= b.nu <= 1.0
    assert abs(b.nu1 - 0.8730261390729194) <= 1e-12


def test_case1_total_over_m_range():
    for M in range(2, 171):
        for g, gs, R in ((1.0, 1e4, 1.5), (1e8, 1e-2, 0.05), (50.0, 30.0, 0.5),
                         (1e2, 1e4, 1.0)):
            nu = case1_outage(_cfg(M=M, gamma_p=g, gamma_s=gs, R=R)).nu
            assert math.isfinite(nu) and 0.0 <= nu <= 1.0, (M, g, gs, R, nu)


def test_case1_deep_tail_highsnr_ratio():
    for M in (3, 10, 40):
        cfg = _cfg(M=M, gamma_p=1e8, gamma_s=30.0, R=0.5)
        ratio = case1_outage(cfg).nu / outage_highsnr(cfg)
        assert abs(ratio - 1.0) <= 0.01, (M, ratio)


def test_case1_outage_m40_is_fast():
    import time
    cfg = _cfg(M=40)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        case1_outage(cfg)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.05, best


def test_breakdown_fields_are_plain_floats():
    for case in ("direct", "nodirect"):
        b = outage_probability(_cfg(M=5, case=case))
        assert all(type(x) is float for x in (b.nu1, b.nu2, b.nu)), (case, b)
