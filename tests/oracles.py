"""Reference implementations shared by the tests; the library has none of them.

`average_over_phi` is the adaptive quadrature the closed forms are checked
against, and `case1_outage_given_phi` / `case2_outage_given_phi` the
phi-conditional outages it averages, built on `decoding_q`, the per-relay
threshold, and `decoding_pmf`, the Binomial law of the decoding-set size,
alone: they share no closed-form code with `cogrelay.analytic`.
`outage_mp` builds nu from the model's laws in high-precision finite sums,
sharing no code with the closed forms;
`case2_nu1_mp` is the case-2 finite sum itself, where float e^-c underflows.
`search_zeta_exhaustive` is the full grid scan behind `search_zeta`,
`outage_highsnr_direct` the high-SNR asymptotes summed in plain floats,
`projection_matrix` the K x K projector the beamformer applies in rank-1 form,
`effective_gain_ref` the batched gain with explicit |h|^2 temporaries, and
`outage_block_ref` / `schedule_block_ref` the Monte Carlo block tasks that
fold a whole block at once instead of chunk by chunk, and
`empirical_diversity_ref` the closed-form DMT slope by numpy's line fit.
"""
from dataclasses import replace
from math import comb, exp, expm1, factorial, inf, lgamma, log, log2, nan
from typing import Callable

import mpmath
import numpy as np
from scipy import integrate, special

from cogrelay.analytic import (InvalidCase, OutageBreakdown, QuadratureFailure,
                               outage_probability)
from cogrelay.beamform import _DEGENERACY_FLOOR, DegenerateChannel
from cogrelay.channel import draw_realizations
from cogrelay.config import Case, SystemConfig, _as_index
from cogrelay.qos import (PrimaryInfeasible, QosSolution, SecondaryInfeasible,
                          solve_assignment)
from cogrelay.simulate import _slot_events, substream

# term cap for the open-ended series of `_case1_bracket`: over its reachable
# domain none takes more than ~10^4 terms, so hitting it means a NaN or an
# absurd input
_MAX_TERMS = 1_000_000


class SeriesNotConverged(Exception):
    """A series hit its term cap without meeting its stopping rule."""


def _cap_reached(name: str) -> SeriesNotConverged:
    return SeriesNotConverged(f"{name} did not converge in {_MAX_TERMS} terms")


def average_over_phi(fn: Callable[[float], float], gamma_s: float,
                     rel_tol: float = 1e-8) -> float:
    """E[fn(phi)] over phi ~ Exponential(mean gamma_s).

    Substitutes phi = gamma_s*t and integrates fn(gamma_s*t) e^-t on [0, T]
    by adaptive Gauss-Kronrod, doubling T from 30 until two successive
    truncations agree to rel_tol (the e^-30 tail is already < 1e-12).
    """
    T = 30.0
    prev = None
    while T <= 3840.0:
        res = integrate.quad(lambda t: fn(gamma_s * t) * exp(-t), 0.0, T,
                             epsabs=0.0, epsrel=rel_tol / 10.0, limit=200,
                             full_output=1)
        val, err = res[0], res[1]
        clean = len(res) == 3 and err <= rel_tol * max(abs(val), 1e-300)
        if clean and prev is not None and abs(val - prev) <= rel_tol * abs(val):
            return val
        prev = val if clean else None
        T *= 2.0
    raise QuadratureFailure(
        f"phi-average did not converge to rel_tol={rel_tol} by T={T / 2}")


def _case1_bracket(K: int, Q: float, phi: float) -> float:
    """Pr{direct < Q and Gamma(K-1,1) < (Q - direct)(1+phi)} for direct ~ Exp(1).

    Expanding the Gamma CDF termwise gives
        bracket = sum_{m >= K-1} W_m,
        W_m = e^-Q Q (X^m/m!) V(m, s),  X = Q(1+phi),  s = Q*phi,
    with V(m, s) = integral_0^1 u^m e^-su du.  Each W_m also regroups as
        W_m = (e^-Q/phi) ((1+phi)/phi)^m Pr{Poisson(s) >= m+1},
    which is the stable factorization once s >= m+2.  The complement
    Lbar - sum_{m <= K-2} W_m is preferred whenever it keeps at least half
    of Lbar = 1 - e^-Q (no meaningful cancellation there).
    """
    if Q <= 0.0:
        return 0.0
    lbar = -expm1(-Q)

    def term(m: int, u_m: float) -> float:
        s = Q * phi
        if s >= m + 2:
            # log form keeps e^-Q * ((1+phi)/phi)^m overflow-free jointly
            scale = exp(-Q + m * log(1.0 + 1.0 / phi) - log(phi))
            return scale * special.gammainc(m + 1, s)
        # V(m, s) by its positive series: e^-s/(m+1) * (1 + s/(m+2) + ...)
        v = 1.0 / (m + 1)
        total_v = v
        for i in range(m + 2, m + 2 + _MAX_TERMS):
            v *= s / i
            total_v += v
            if v <= 1e-17 * total_v:
                return u_m * exp(-s) * total_v
        else:
            raise _cap_reached("_case1_bracket")

    # U_m = e^-Q Q X^m / m!, tracked multiplicatively for the series branch
    X = Q * (1.0 + phi)
    u_m = exp(-Q) * Q
    partial = 0.0
    for m in range(K - 1):
        partial += term(m, u_m)
        u_m *= X / (m + 1)
    complement = lbar - partial
    if complement >= 0.5 * lbar:
        return max(complement, 0.0)

    # positive tail from m = K-1; terms decay once X/(m+1) < 1
    acc = 0.0
    u_m = exp(-Q + (K - 1) * log(X) + log(Q) - lgamma(K))
    for m in range(K - 1, K - 1 + _MAX_TERMS):
        acc += term(m, u_m)
        u_m *= X / (m + 1)
        rho = X / (m + 2)
        if rho < 1.0 and u_m / (m + 2) <= (1.0 - rho) * 1e-16 * acc:
            return acc
    else:
        raise _cap_reached("_case1_bracket")


def _case1_nu1_given_phi(cfg: SystemConfig, phi: float) -> float:
    Q = phase_q(cfg)[1]
    pmf = decoding_pmf(cfg)
    return sum(pmf[K] * _case1_bracket(K, Q, phi) for K in range(2, cfg.M))


def snr_threshold(rate: float) -> float:
    """Minimum SNR 2^rate - 1 for rate, saturating to inf past the float range;
    formed as `config._split_threshold` forms it, so exact comparisons keep their bits."""
    try:
        return expm1(rate * log(2.0))
    except OverflowError:
        return inf


def phase_rates(cfg: SystemConfig) -> tuple:
    """(broadcast, forward) rates of the paper's slot: 2R on both hops with a
    direct link; R/zeta and R/(1-zeta) without one."""
    if cfg.case is Case.DIRECT_LINK:
        return 2.0 * cfg.R, 2.0 * cfg.R
    return cfg.R / cfg.zeta, cfg.R / (1.0 - cfg.zeta)


def phase_q(cfg: SystemConfig) -> tuple:
    """(broadcast, forward) thresholds (2^rate - 1)/gamma_p of `phase_rates`."""
    return tuple(snr_threshold(rate) / cfg.gamma_p for rate in phase_rates(cfg))


def decoding_q(cfg: SystemConfig) -> float:
    """Per-relay decoding threshold (2^broadcast_rate - 1)/gamma_p."""
    return phase_q(cfg)[0]


def decoding_pmf(cfg: SystemConfig) -> np.ndarray:
    """Binomial(M-1, e^-q) pmf of the decoding-set size, q = `decoding_q(cfg)`;
    1 - e^-q is -expm1(-q), exact as q -> 0."""
    q, m = decoding_q(cfg), cfg.M - 1
    return np.array([comb(m, K) * exp(-q) ** K * (-expm1(-q)) ** (m - K) for K in range(m + 1)])


def _given_phi(cfg: SystemConfig, nu1: float) -> OutageBreakdown:
    """nu1 with nu2 = Pr{K < 2} = pmf[0] + pmf[1] of `decoding_pmf`, times the direct
    link's failure 1 - e^-q when there is one; each and their sum clipped into [0, 1]."""
    pmf = decoding_pmf(cfg)
    nu2 = float(pmf[0] + pmf[1])
    if cfg.case is Case.DIRECT_LINK:
        nu2 *= -expm1(-decoding_q(cfg))
    return OutageBreakdown(nu1=min(max(nu1, 0.0), 1.0), nu2=min(max(nu2, 0.0), 1.0),
                           nu=min(max(nu1 + nu2, 0.0), 1.0))


def case1_outage_given_phi(cfg: SystemConfig, phi: float) -> OutageBreakdown:
    """Outage probabilities conditioned on the interference level phi."""
    if cfg.case is not Case.DIRECT_LINK:
        raise InvalidCase("case1_outage_given_phi needs cfg.case = DIRECT_LINK")
    return _given_phi(cfg, _case1_nu1_given_phi(cfg, phi))


def case2_outage_given_phi(cfg: SystemConfig, phi: float) -> OutageBreakdown:
    """Outage probabilities without a direct link, conditioned on phi."""
    if cfg.case is not Case.NO_DIRECT_LINK:
        raise InvalidCase("case2_outage_given_phi needs cfg.case = NO_DIRECT_LINK")
    x_zeta = snr_threshold(phase_rates(cfg)[1]) * (1.0 + phi) / cfg.gamma_p
    pmf = decoding_pmf(cfg)
    nu1 = sum(pmf[K] * special.gammainc(K - 1, x_zeta) for K in range(2, cfg.M))
    return _given_phi(cfg, nu1)


def projection_matrix(h_sd: np.ndarray) -> np.ndarray:
    """Orthogonal projector Psi = I - h_sd h_sd'/||h_sd||^2 (Hermitian, idempotent).

    Materialized K x K form, mainly for verification; the solver itself uses
    the O(K) rank-1 update.
    """
    h_sd = np.asarray(h_sd, dtype=complex)
    b2 = float(np.real(np.vdot(h_sd, h_sd)))
    if b2 < _DEGENERACY_FLOOR:
        raise DegenerateChannel(f"||h_sd||^2 = {b2:.3e} below degeneracy floor")
    return np.eye(len(h_sd), dtype=complex) - np.outer(h_sd, h_sd.conj()) / b2


def effective_gain_ref(h_pd: np.ndarray, h_sd: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Batched alpha through masked sums of |h|^2 temporaries.

    The library's earlier `effective_gain`, kept as the reference for the
    fused form that works on the float64 views of the masked arrays.
    """
    a2 = np.sum(np.abs(h_pd) ** 2, axis=1, where=mask, initial=0.0)
    b2 = np.sum(np.abs(h_sd) ** 2, axis=1, where=mask, initial=0.0)
    ip = np.sum(h_sd.conj() * h_pd * mask, axis=1)
    safe = b2 > _DEGENERACY_FLOOR
    alpha = a2 - np.abs(ip) ** 2 / np.where(safe, b2, 1.0)
    return np.where(safe, np.clip(alpha, 0.0, None), 0.0)


def outage_block_ref(cfg, seed, index, n):
    """(primary outages, secondary outages, K histogram) of one whole-block draw."""
    block = draw_realizations(cfg, n, substream(seed, index))
    primary_ok, secondary_ok, k = _slot_events(cfg, block)
    return (
        int(np.count_nonzero(~primary_ok)),
        int(np.count_nonzero(~secondary_ok)),
        np.bincount(k, minlength=cfg.M),
    )


def schedule_block_ref(cfg, omega, seed, index, n):
    """(per-user successes, primary successes) of one whole-block draw."""
    rng = substream(seed, index)
    block = draw_realizations(cfg, n, rng)      # channel draws first,
    u = rng.random(n)                           # scheduling uniforms after
    scheduled = np.searchsorted(np.cumsum(omega), u, side="right")
    scheduled = np.minimum(scheduled, len(omega) - 1)
    primary_ok, secondary_ok, _ = _slot_events(cfg, block)
    succ = np.bincount(scheduled[secondary_ok], minlength=len(omega))
    return succ, int(np.count_nonzero(primary_ok))


def search_zeta_exhaustive(cfg: SystemConfig, k: int, grid_size: int = 999) -> QosSolution:
    """Best slot split for the no-direct-link case by exhaustive grid scan.

    Evaluates zeta = i/(grid_size+1) for i = 1..grid_size and keeps the
    feasible point with the largest slack (ties: larger lambda_k_max, then
    smaller zeta).  Returns an infeasible marker solution when no grid point
    satisfies both the primary and secondary constraints.
    """
    if cfg.case is not Case.NO_DIRECT_LINK:
        raise InvalidCase("search_zeta applies to the no-direct-link case only")
    k, grid_size = _as_index("k", k, 0, cfg.M), _as_index("grid_size", grid_size, 1)
    best = None
    for i in range(1, grid_size + 1):
        zeta = i / (grid_size + 1)
        try:
            sol = solve_assignment(replace(cfg, zeta=zeta), k)
        except (PrimaryInfeasible, SecondaryInfeasible):
            continue
        if best is None or (sol.slack, sol.lambda_k_max) > (best.slack, best.lambda_k_max):
            best = sol
    if best is None:
        return QosSolution(feasible=False, omega=(nan,) * cfg.M, zeta=nan,
                           lambda_k_max=0.0, slack=nan, k=k)
    return best


def empirical_diversity_ref(cfg: SystemConfig, r: float, gamma_grid) -> float:
    """-slope of `np.polyfit`'s line through the top half of (log gamma, log nu),
    with nu the closed form at the configs `empirical_diversity` builds."""
    grid = np.asarray(gamma_grid, dtype=float)
    nus = [outage_probability(replace(cfg, gamma_p=g, R=cfg.R if r == 0.0 else r * log2(g))).nu
           for g in grid]
    top = slice(grid.size // 2, None)
    return -float(np.polyfit(np.log(grid[top]), np.log(nus)[top], 1)[0])


def moment_one_plus_phi(n: int, gamma_s: float) -> float:
    """E[(1+phi)^n] for phi ~ Exponential(mean gamma_s).

    Equals sum_{j<=n} n!/(n-j)! gamma_s^j (exponential raw moments); e.g.
    n=1 -> 1 + gamma_s, n=2 -> 1 + 2 gamma_s + 2 gamma_s^2.
    """
    term = 1.0
    total = 1.0
    for j in range(1, n + 1):
        term *= (n - j + 1) * gamma_s
        total += term
    return total


def outage_highsnr_direct(cfg: SystemConfig) -> float:
    """High-SNR asymptote of either case, each term a plain float product.

    Overflows (inf, or NaN from inf * 0) once E[(1+phi)^(M-2)] leaves the
    float range, from about M = 60 at gamma_s = 1e4.
    """
    if cfg.case is Case.DIRECT_LINK:
        Q = phase_q(cfg)[1]
        bracket = sum(
            comb(cfg.M - 1, K) * moment_one_plus_phi(K - 1, cfg.gamma_s) / factorial(K)
            for K in range(2, cfg.M)
        )
        return (bracket + (cfg.M - 1)) * Q ** (cfg.M - 1)
    q_b, q_f = phase_q(cfg)
    total = (cfg.M - 1) * q_b ** (cfg.M - 2)
    for K in range(2, cfg.M):
        total += (
            comb(cfg.M - 1, K)
            * q_b ** (cfg.M - 1 - K)
            * q_f ** (K - 1)
            * moment_one_plus_phi(K - 1, cfg.gamma_s)
            / factorial(K - 1)
        )
    return total



def _nu_mp(cfg: SystemConfig):
    """nu of either case as an mpf, at the caller's working precision."""
    mp = mpmath.mp
    M, gs = cfg.M, mp.mpf(cfg.gamma_s)
    R, zeta = mp.mpf(cfg.R), mp.mpf(cfg.zeta)

    def threshold(rate):                         # (2^rate - 1)/gamma_p
        return mp.expm1(rate * mp.ln2) / cfg.gamma_p

    if cfg.case is Case.DIRECT_LINK:
        q_b = q_f = threshold(2 * R)
    else:
        q_b, q_f = threshold(R / zeta), threshold(R / (1 - zeta))
    # a relay decodes w.p. L = e^-q_b, so K ~ Binomial(M-1, L)
    L, L_bar = mp.exp(-q_b), -mp.expm1(-q_b)
    pmf = [mp.binomial(M - 1, K) * L**K * L_bar ** (M - 1 - K) for K in range(M)]
    # With K >= 2 relays the ZF gain is G ~ Gamma(n, 1), n = K - 1, and the
    # relayed SNR is gamma_p G/(1+phi), phi ~ Exp(mean gs).  Both cases give
    # Pr{outage | K} = base - sum_{i<n} c[i].
    if cfg.case is Case.NO_DIRECT_LINK:
        # Pr{G < q(1+phi)} = 1 - sum_{i<n} E[e^{-q(1+phi)} (q(1+phi))^i]/i!,
        # with E[(1+phi)^i e^{-q phi}] = sum_j C(i,j) j! gs^j/(1+q gs)^{j+1}
        q = q_f
        base, nu2 = mp.mpf(1), pmf[0] + pmf[1]
        c = [mp.exp(-q) * q**i / mp.factorial(i)
             * mp.fsum(mp.binomial(i, j) * mp.factorial(j) * gs**j / (1 + q * gs) ** (j + 1)
                       for j in range(i + 1))
             for i in range(M - 2)]
    else:
        # The direct branch D ~ Exp(1) adds: Pr{D + G/(1+phi) < Q} averages
        # the case-2 form at q = v = Q - D over D in [0, Q], which leaves
        # e^-Q sum_j gs^j/(i-j)! int_0^Q v^i (1+gs v)^-(j+1) dv for c[i]; with
        # w = 1 + gs v that integral is
        # gs^-(i+1) sum_l C(i,l) (-1)^(i-l) int_1^(1+gs Q) w^(l-j-1) dw.
        Q = q_f
        W = 1 + gs * Q
        base = -mp.expm1(-Q)
        nu2 = (pmf[0] + pmf[1]) * base

        # int_1^W w^(p-1) dw for every exponent p = l - j that occurs
        w_int = {p: mp.log(W) if p == 0 else (W**p - 1) / p for p in range(3 - M, M - 2)}
        c = []
        for i in range(M - 2):
            signed = [mp.binomial(i, l) * (-1) ** (i - l) for l in range(i + 1)]
            v_int = [mp.fsum(b * w_int[l - j] for l, b in enumerate(signed)) / gs ** (i + 1)
                     for j in range(i + 1)]
            c.append(mp.exp(-Q) * mp.fsum(gs**j / mp.factorial(i - j) * v_int[j]
                                          for j in range(i + 1)))
    return mp.fsum(pmf[K] * (base - mp.fsum(c[:K - 1])) for K in range(2, M)) + nu2


def case2_nu1_mp(cfg: SystemConfig, dps: int = 40) -> float:
    """Case-2 nu1 as the finite sum sum_{K>=2} pmf[K] A_{K-1}(c), in mpmath.

    A_n(c) = Pr{Poisson(c) >= n} + S_n, S_n = sum_{j=1..n} pi_{n-j}(c) a^j =
    a (S_{n-1} + pi_{n-1}), with a = c gamma_s/(1 + c gamma_s) and pi the
    Poisson(c) pmf.  The tail is mpmath's regularized lower incomplete gamma
    P(n, c), not 1 - Pr{Poisson(c) < n}, which cancels once the tail is
    below 10^-dps.  So every term is a positive product and the sum holds at
    `dps` digits over the whole no-direct-link domain: where float e^-c is
    subnormal or 0, and deep in the tail (nu1 ~ 1e-229 at M = 40).
    """
    mp = mpmath.mp
    with mpmath.workdps(dps):
        def threshold(rate):                     # (2^rate - 1)/gamma_p
            return mp.expm1(rate * mp.ln2) / cfg.gamma_p

        R = mp.mpf(cfg.R)
        q_b, c = threshold(R / cfg.zeta), threshold(R / (1 - mp.mpf(cfg.zeta)))
        L, L_bar = mp.exp(-q_b), -mp.expm1(-q_b)
        a = c * cfg.gamma_s / (1 + c * cfg.gamma_s)
        pois, s, nu1 = mp.exp(-c), mp.mpf(0), mp.mpf(0)
        for n in range(1, cfg.M - 1):            # n = K - 1; pois = pi_{n-1}
            s = a * (s + pois)
            tail = mp.gammainc(n, 0, c, regularized=True)   # Pr{Poisson(c) >= n}
            K = n + 1
            nu1 += mp.binomial(cfg.M - 1, K) * L**K * L_bar ** (cfg.M - 1 - K) * (tail + s)
            pois *= c / n
        return float(nu1)


def outage_mp(cfg: SystemConfig) -> float:
    """Primary outage nu of either case, from the model's laws in mpmath.

    Shares no code with `cogrelay.analytic` or `cogrelay.channel`, and uses
    only finite sums (see `_nu_mp`): no quadrature, no series truncation.
    Deep in the tail those sums cancel by hundreds of digits (nu ~ 1e-291
    out of terms of order 1 at M = 40, gamma_p = 1e8), so the working
    precision doubles from 50 digits until two successive results agree to
    30 digits.
    """
    dps, prev = 50, None
    while True:
        with mpmath.workdps(dps):
            nu = _nu_mp(cfg)
        if prev is not None and abs(nu - prev) <= mpmath.mpf(10) ** -30 * abs(nu):
            return float(nu)
        dps, prev = 2 * dps, nu
