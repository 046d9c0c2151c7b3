"""Reference implementations shared by the tests; the library has none of them.

`average_over_phi` is the adaptive quadrature the closed forms are checked
against, `search_zeta_exhaustive` the full grid scan behind `search_zeta`, and
`outage_highsnr_direct` the high-SNR asymptotes summed in plain floats.
"""
from dataclasses import replace
from math import comb, exp, factorial, nan
from typing import Callable

from scipy import integrate

from cogrelay.analytic import InvalidCase, QuadratureFailure, _threshold_q
from cogrelay.config import Case, SystemConfig, snr_threshold
from cogrelay.qos import (PrimaryInfeasible, QosSolution, SecondaryInfeasible,
                          _check_k, solve_assignment)


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


def search_zeta_exhaustive(cfg: SystemConfig, k: int, grid_size: int = 999) -> QosSolution:
    """Best slot split for the no-direct-link case by exhaustive grid scan.

    Evaluates zeta = i/(grid_size+1) for i = 1..grid_size and keeps the
    feasible point with the largest slack (ties: larger lambda_k_max, then
    smaller zeta).  Returns an infeasible marker solution when no grid point
    satisfies both the primary and secondary constraints.
    """
    if cfg.case is not Case.NO_DIRECT_LINK:
        raise InvalidCase("search_zeta applies to the no-direct-link case only")
    k = _check_k(cfg, k)
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
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
        Q = _threshold_q(cfg)
        bracket = sum(
            comb(cfg.M - 1, K) * moment_one_plus_phi(K - 1, cfg.gamma_s) / factorial(K)
            for K in range(2, cfg.M)
        )
        return (bracket + (cfg.M - 1)) * Q ** (cfg.M - 1)
    q_b = snr_threshold(cfg.broadcast_rate()) / cfg.gamma_p
    q_f = snr_threshold(cfg.forward_rate()) / cfg.gamma_p
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
