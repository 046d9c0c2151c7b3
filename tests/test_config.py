import math
from fractions import Fraction

import numpy as np
import pytest

from cogrelay import (Case, SystemConfig, analytic_dmt, draw_realizations, estimate_outage,
                      estimate_schedule_throughput, max_lambda_k, outage_highsnr,
                      outage_probability, search_zeta, snr_threshold, solve_assignment,
                      substream)


def test_defaults():
    cfg = SystemConfig(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5)
    assert cfg.case is Case.DIRECT_LINK
    assert cfg.zeta == 0.5
    assert cfg.lambda_p == 0.0
    assert cfg.lambda_s == (0.0, 0.0, 0.0, 0.0)


def test_case_accepts_strings():
    cfg = SystemConfig(M=3, gamma_p=10.0, gamma_s=5.0, R=1.0, case="nodirect")
    assert cfg.case is Case.NO_DIRECT_LINK
    cfg = SystemConfig(M=3, gamma_p=10.0, gamma_s=5.0, R=1.0, case="direct")
    assert cfg.case is Case.DIRECT_LINK


def test_lambda_s_normalized_to_floats():
    cfg = SystemConfig(M=3, gamma_p=10.0, gamma_s=5.0, R=1.0, lambda_s=[0, 1, 0.5])
    assert cfg.lambda_s == (0.0, 1.0, 0.5)
    assert all(isinstance(v, float) for v in cfg.lambda_s)


@pytest.mark.parametrize("kwargs", [
    dict(M=1),
    dict(gamma_p=0.0),
    dict(gamma_p=-3.0),
    dict(gamma_s=0.0),
    dict(R=-0.1),
    dict(zeta=0.0),
    dict(zeta=1.0),
    dict(lambda_p=-0.01),
    dict(lambda_p=1.01),
    dict(lambda_s=(0.1, 0.2)),           # wrong length for M=4
    dict(lambda_s=(0.1, 0.2, 0.3, 1.5)),  # out of [0, 1]
    dict(lambda_s=5),                    # not a sequence
    dict(lambda_s=0.5),
    dict(M=1025),                        # past the largest M, 1024
    dict(M=1025, case=Case.NO_DIRECT_LINK),
])
def test_validation_rejects(kwargs):
    base = dict(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SystemConfig(**base)


_NOT_REAL = ["0.5", None, 0.5 + 0j, True, False, np.bool_(True), 10**400]


@pytest.mark.parametrize("bad", _NOT_REAL)
@pytest.mark.parametrize("name", ["gamma_p", "gamma_s", "R", "zeta", "lambda_p", "lambda_s"])
def test_real_fields_reject_non_reals(name, bad):
    # strings, None, complex numbers, bools and ints past the float range are
    # a ValueError, never a TypeError; True would otherwise pass as 1
    base = dict(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5)
    base[name] = (0.0, bad, 0.0, 0.0) if name == "lambda_s" else bad
    with pytest.raises(ValueError, match=name):
        SystemConfig(**base)


def test_real_fields_stored_as_plain_floats():
    # ints, numpy scalars and fractions are stored as floats of equal value,
    # so every outcome matches the all-float config
    cfg = SystemConfig(M=4, gamma_p=50, gamma_s=np.float32(30.0), R=np.int64(1),
                       case=Case.NO_DIRECT_LINK, zeta=Fraction(1, 4),
                       lambda_p=np.float64(0.1), lambda_s=(0, np.float32(0.25), Fraction(1, 8), 1))
    ref = SystemConfig(M=4, gamma_p=50.0, gamma_s=30.0, R=1.0, case=Case.NO_DIRECT_LINK,
                       zeta=0.25, lambda_p=0.1, lambda_s=(0.0, 0.25, 0.125, 1.0))
    assert cfg == ref
    for v in (cfg.gamma_p, cfg.gamma_s, cfg.R, cfg.zeta, cfg.lambda_p, *cfg.lambda_s):
        assert type(v) is float, v
    assert outage_probability(cfg) == outage_probability(ref)


@pytest.mark.parametrize("case", list(Case))
def test_largest_m_is_total(case):
    # the largest accepted M runs through both closed forms and the asymptote
    for gamma_p in (0.01, 50.0, 1e8):
        cfg = SystemConfig(M=1024, gamma_p=gamma_p, gamma_s=30.0, R=0.5, case=case)
        out = outage_probability(cfg)
        assert 0.0 <= out.nu1 <= 1.0 and 0.0 <= out.nu <= 1.0
        assert outage_highsnr(cfg) >= 0.0


def test_rates_direct_link():
    cfg = SystemConfig(M=4, gamma_p=50.0, gamma_s=30.0, R=0.75)
    # both phases carry the packet in half the slot, so each must run at
    # twice the base rate, 2R = 1.5
    assert cfg.thresholds() == (snr_threshold(1.5), snr_threshold(1.5))


def test_rates_split_slot():
    # the broadcast runs at R/zeta, the forward phase (relayed packet and the
    # secondary's own) at R/(1-zeta)
    cfg = SystemConfig(M=4, gamma_p=50.0, gamma_s=30.0, R=0.6,
                       case=Case.NO_DIRECT_LINK, zeta=0.4)
    assert cfg.thresholds() == (snr_threshold(0.6 / 0.4), snr_threshold(0.6 / (1.0 - 0.4)))


def test_snr_threshold_values():
    assert snr_threshold(0.0) == 0.0
    assert math.isclose(snr_threshold(1.0), 1.0, rel_tol=1e-15)
    assert math.isclose(snr_threshold(2.0), 3.0, rel_tol=1e-15)
    assert math.isclose(snr_threshold(0.5), math.sqrt(2.0) - 1.0, rel_tol=1e-14)
    assert snr_threshold(5000.0) == math.inf  # saturates instead of overflowing


def test_frozen():
    cfg = SystemConfig(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5)
    with pytest.raises(Exception):
        cfg.M = 5


@pytest.mark.parametrize("kwargs", [
    dict(gamma_p=math.nan),
    dict(gamma_p=math.inf),
    dict(gamma_s=math.nan),
    dict(gamma_s=math.inf),
    dict(gamma_s=-math.inf),
    dict(R=math.nan),
    dict(R=math.inf),
    dict(M=3.5),
    dict(M=4.0),
    dict(M="4"),
])
def test_non_finite_and_non_integral_rejected(kwargs):
    base = dict(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SystemConfig(**base)


_NODIRECT = SystemConfig(M=3, gamma_p=50.0, gamma_s=30.0, R=0.5, case="nodirect")


@pytest.mark.parametrize("bad", [True, False])
@pytest.mark.parametrize("name, call", [
    ("M", lambda b: SystemConfig(M=b, gamma_p=50.0, gamma_s=30.0, R=0.5)),
    ("k", lambda b: max_lambda_k(_NODIRECT, b)),
    ("k", lambda b: solve_assignment(_NODIRECT, b)),
    ("k", lambda b: search_zeta(_NODIRECT, b)),
    ("grid_size", lambda b: search_zeta(_NODIRECT, 0, grid_size=b)),
    ("trials", lambda b: estimate_outage(_NODIRECT, b)),
    ("seed", lambda b: estimate_outage(_NODIRECT, 10, seed=b)),
    ("workers", lambda b: estimate_outage(_NODIRECT, 10, workers=b)),
    ("trials", lambda b: estimate_schedule_throughput(_NODIRECT, (0.2, 0.3, 0.5), b)),
    ("num_points", lambda b: analytic_dmt(_NODIRECT, num_points=b)),
    ("index", lambda b: substream(0, b)),
    ("n", lambda b: draw_realizations(_NODIRECT, b, substream(0, 0))),
])
def test_integer_arguments_reject_bools(name, call, bad):
    # a bool is no count or index, although operator.index(True) is 1
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call(bad)


def test_numpy_integer_m_accepted():
    cfg = SystemConfig(M=np.int64(4), gamma_p=50.0, gamma_s=30.0, R=0.5)
    assert cfg.M == 4 and type(cfg.M) is int
    assert cfg.lambda_s == (0.0,) * 4
