"""Quadrature oracles shared by the tests; the library itself has none."""
from math import exp
from typing import Callable

from scipy import integrate

from cogrelay.analytic import QuadratureFailure


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
