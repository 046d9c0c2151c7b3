"""The library's Poisson pmf and tails and the phi-averaging oracles, against known values."""
import math
from sys import float_info

import mpmath
from scipy import special

from cogrelay.analytic import _poisson
from oracles import average_over_phi, moment_one_plus_phi


def _tail(n, x):
    """Pr{Poisson(x) >= n} = Pr{Gamma(n, 1) <= x}, the top tail of `_poisson`."""
    return _poisson(n, x)[1][n]


def test_frozen_values():
    # Pr{Gamma(n, 1) <= s} = Pr{Poisson(s) >= n} at integer order n
    # int_0^1 e^-t dt
    assert math.isclose(_tail(1, 1.0), 0.6321205588285577, rel_tol=1e-14)
    # int_0^2 t^2 e^-t dt / 2! = (2 - 10 e^-2)/2
    assert math.isclose(_tail(3, 2.0), 0.32332358381693654, rel_tol=1e-14)
    # int_1^inf t^2 e^-t dt / 2! = 5/(2e)
    assert math.isclose(1.0 - _tail(3, 1.0), 0.9196986029286058, rel_tol=1e-14)


def test_complement_identity():
    # Pr{Poisson(s) >= n} + e^-s sum_{i<n} s^i/i! = 1
    for n in range(1, 21):
        for s in (0.1, 1.0, 10.0):
            head = math.exp(-s) * math.fsum(s**i / math.factorial(i) for i in range(n))
            assert math.isclose(_tail(n, s) + head, 1.0, rel_tol=1e-14)


def test_poisson_tail():
    assert _poisson(0, 5.0) == ([math.exp(-5.0)], [1.0])
    assert _poisson(0, 800.0) == ([0.0], [1.0])
    assert _poisson(3, 0.0) == ([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    # Pr{Pois(2) >= 2} = 1 - e^-2 (1 + 2)
    assert math.isclose(_tail(2, 2.0), 1.0 - 3.0 * math.exp(-2.0), rel_tol=1e-13)
    # an infinite mean leaves no mass on any finite count, and no NaN
    assert _poisson(3, math.inf) == ([0.0] * 4, [1.0] * 4)


def _poisson_mp(n, x):
    """pmf and tails of _poisson in 40 digits: T_n from mpmath's regularized
    incomplete gamma, p_j by the recurrence from e^-x, T_j = T_{j+1} + p_j."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        x = mp.mpf(x)
        pmf = [mp.exp(-x)]
        for j in range(1, n + 1):
            pmf.append(pmf[-1] * x / j)
        tail = [mp.gammainc(n, 0, x, regularized=True) if n else mp.one]
        for j in range(n - 1, -1, -1):
            tail.append(tail[-1] + pmf[j])
        return pmf, tail[::-1]


def test_poisson_vs_mpmath():
    # every p_j and T_j, j <= n, over both pmf branches (e^-x normal; or
    # subnormal or 0, past x ~ 708), both top-tail branches (the series for
    # x < n+1, the complement from x = n+1) and their seam x = n, n+1.  The
    # oracle is mpmath: scipy's gammainc is itself 9.5e-13 off at (1000, 578).
    # Past x ~ 708 a p_j far below the mode keeps a few ulp of |x - j| in its
    # exponent, hence the looser bound there
    for n in (0, 1, 2, 7, 29, 30, 100, 511, 708, 1000, 1023, 1024):
        for x in (1e-8, 0.5, 3.0, 100.0, 700.0, 708.0, 709.0, 750.0, 980.0,
                  2000.0, 5000.0, float(n), n + 1.0):
            pmf_tol = 1e-14 if math.exp(-x) >= float_info.min else 1e-12
            for got, want, tol in zip(_poisson(n, x), _poisson_mp(n, x), (pmf_tol, 1e-14)):
                assert len(got) == n + 1
                for j, (g, w) in enumerate(zip(got, want)):
                    if w >= float_info.min:
                        assert abs(g - w) <= tol * w, (n, x, j, g, float(w))
                    else:             # below the normal range: no digits to keep
                        assert g < 2.0 * float_info.min, (n, x, j, g, float(w))


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
