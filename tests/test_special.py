"""The library's incomplete gamma and the phi-averaging oracles, against known values."""
import math

from scipy import special

from cogrelay.analytic import poisson_tail
from oracles import average_over_phi, moment_one_plus_phi


def test_frozen_values():
    # Pr{Gamma(n, 1) <= s} = Pr{Poisson(s) >= n} at integer order n
    # int_0^1 e^-t dt
    assert math.isclose(poisson_tail(1, 1.0), 0.6321205588285577, rel_tol=1e-14)
    # int_0^2 t^2 e^-t dt / 2! = (2 - 10 e^-2)/2
    assert math.isclose(poisson_tail(3, 2.0), 0.32332358381693654, rel_tol=1e-14)
    # int_1^inf t^2 e^-t dt / 2! = 5/(2e)
    assert math.isclose(1.0 - poisson_tail(3, 1.0), 0.9196986029286058, rel_tol=1e-14)


def test_complement_identity():
    # Pr{Poisson(s) >= n} + e^-s sum_{i<n} s^i/i! = 1
    for n in range(1, 21):
        for s in (0.1, 1.0, 10.0):
            head = math.exp(-s) * math.fsum(s**i / math.factorial(i) for i in range(n))
            assert math.isclose(poisson_tail(n, s) + head, 1.0, rel_tol=1e-14)


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
