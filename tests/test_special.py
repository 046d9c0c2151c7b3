"""Integer-order incomplete gamma helpers against frozen values and scipy."""
import math

import numpy as np
import pytest
from scipy import special

from cogrelay import lower_incomplete_gamma, upper_incomplete_gamma
from cogrelay.analytic import QuadratureFailure, poisson_tail
from oracles import average_over_phi, moment_one_plus_phi


def test_frozen_values():
    # int_0^1 e^-t dt
    assert math.isclose(lower_incomplete_gamma(1, 1.0), 0.6321205588285577,
                        rel_tol=1e-14)
    # int_0^2 t^2 e^-t dt = 2 - 10 e^-2
    assert math.isclose(lower_incomplete_gamma(3, 2.0), 0.6466471676338731,
                        rel_tol=1e-14)
    # int_1^inf t^2 e^-t dt = 5/e
    assert math.isclose(upper_incomplete_gamma(3, 1.0), 1.8393972058572117,
                        rel_tol=1e-14)


def test_complement_identity():
    for n in range(1, 21):
        for s in (0.1, 1.0, 10.0):
            total = lower_incomplete_gamma(n, s) + upper_incomplete_gamma(n, s)
            assert math.isclose(total, math.factorial(n - 1), rel_tol=1e-12)


def test_against_scipy():
    for n in (1, 2, 5, 12, 30):
        for s in (1e-3, 0.3, 2.0, 7.5, 40.0, 200.0):
            lo = special.gammainc(n, s) * special.gamma(n)
            hi = special.gammaincc(n, s) * special.gamma(n)
            assert math.isclose(lower_incomplete_gamma(n, s), lo,
                                rel_tol=1e-12, abs_tol=1e-300)
            assert math.isclose(upper_incomplete_gamma(n, s), hi,
                                rel_tol=1e-12, abs_tol=1e-300)


def test_edges():
    assert lower_incomplete_gamma(4, 0.0) == 0.0
    assert math.isclose(upper_incomplete_gamma(4, 0.0), 6.0, rel_tol=1e-15)
    # far tail underflows cleanly to zero rather than overflowing or raising
    assert upper_incomplete_gamma(5, 800.0) == 0.0
    with pytest.raises(ValueError):
        lower_incomplete_gamma(0, 1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(500, 1.0)  # beyond the supported order


def test_poisson_tail():
    assert poisson_tail(0, 5.0) == 1.0
    assert poisson_tail(3, 0.0) == 0.0
    # Pr{Pois(2) >= 2} = 1 - e^-2 (1 + 2)
    assert math.isclose(poisson_tail(2, 2.0), 1.0 - 3.0 * math.exp(-2.0),
                        rel_tol=1e-13)


def test_moment_one_plus_phi():
    # E[(1+phi)^n] with phi ~ Exp(mean gamma_s): sum_j n!/(n-j)! gamma_s^j
    assert moment_one_plus_phi(0, 30.0) == 1.0
    assert math.isclose(moment_one_plus_phi(1, 30.0), 31.0, rel_tol=1e-15)
    assert math.isclose(moment_one_plus_phi(2, 30.0), 1861.0, rel_tol=1e-15)
    # cross-check by quadrature
    for n in (1, 2, 3):
        ref = average_over_phi(lambda p: (1.0 + p) ** n, 7.0)
        assert math.isclose(moment_one_plus_phi(n, 7.0), ref, rel_tol=1e-7)


def test_average_over_phi_known_expectations():
    gs = 30.0
    assert math.isclose(average_over_phi(lambda p: 1.0, gs), 1.0, rel_tol=1e-9)
    assert math.isclose(average_over_phi(lambda p: p, gs), gs, rel_tol=1e-8)
    # E[e^-phi] = 1/(1+gamma_s)
    assert math.isclose(average_over_phi(lambda p: math.exp(-p), gs),
                        1.0 / 31.0, rel_tol=1e-8)
    # E[1/(1+phi)] = e^{1/gs} E1(1/gs) / gs
    ref = math.exp(1.0 / gs) * special.exp1(1.0 / gs) / gs
    assert math.isclose(average_over_phi(lambda p: 1.0 / (1.0 + p), gs),
                        ref, rel_tol=1e-8)


def test_average_over_phi_tiny_gamma_s():
    # degenerate spread: the average collapses onto fn(0)
    val = average_over_phi(lambda p: math.exp(-p), 1e-6)
    assert math.isclose(val, 1.0, rel_tol=1e-5)
