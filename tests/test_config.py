import contextlib
import io
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from cogrelay import (Case, SystemConfig, analytic_dmt, draw_realizations, estimate_outage,
                      estimate_schedule_throughput, max_lambda_k, outage_highsnr,
                      outage_probability, search_zeta, solve_assignment,
                      substream)
from cogrelay.cli import main
from cogrelay.config import _split_threshold
from oracles import snr_threshold


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


def test_direct_link_stores_the_half_split():
    # the direct-link protocol halves every slot, so a direct-link config stores
    # zeta = 1/2 whatever valid zeta it is given; an invalid zeta still raises
    base = dict(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5)
    cfg, half = SystemConfig(**base, zeta=0.3), SystemConfig(**base, zeta=0.5)
    assert cfg.zeta == 0.5 and cfg == half
    assert cfg.thresholds() == half.thresholds()
    assert SystemConfig(**base, case="nodirect", zeta=0.3).zeta == 0.3
    for bad in (0, 1, math.nan, "0.3"):
        with pytest.raises(ValueError, match="zeta"):
            SystemConfig(**base, zeta=bad)


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
    def thr(rate):     # 2^rate - 1 through the even split, rate/2 / (1/2) = rate exactly
        return _split_threshold(rate / 2.0, 0.5)
    assert thr(0.0) == 0.0
    assert math.isclose(thr(1.0), 1.0, rel_tol=1e-15)
    assert math.isclose(thr(2.0), 3.0, rel_tol=1e-15)
    assert math.isclose(thr(0.5), math.sqrt(2.0) - 1.0, rel_tol=1e-14)
    assert thr(5000.0) == math.inf  # saturates instead of overflowing


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


def _cli(key):
    """call(x) running the CLI with `--key x` on a small qos-sweep (M = 3): returns
    on exit 0 and raises ValueError with the one `cogrelay:` line of an exit 2."""
    def call(x):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--experiment", "qos-sweep", "--M", "3", "--n_points", "2",
                         f"--{key}", str(x), "--out", os.devnull])
        lines = err.getvalue().splitlines()
        if code == 2 and len(lines) == 1 and lines[0].startswith("cogrelay: "):
            raise ValueError(lines[0])
        assert (code, lines) == (0, []), (code, lines)
    return call


# name, call, lo, hi: call(x) takes exactly the integers in [lo, hi) (hi None: no bound)
_INTEGER_ARGS = [
    ("M", lambda b: SystemConfig(M=b, gamma_p=50.0, gamma_s=30.0, R=0.5), 2, 1025),
    ("k", lambda b: max_lambda_k(_NODIRECT, b), 0, 3),
    ("k", lambda b: solve_assignment(_NODIRECT, b), 0, 3),
    ("k", lambda b: search_zeta(_NODIRECT, b), 0, 3),
    ("grid_size", lambda b: search_zeta(_NODIRECT, 0, grid_size=b), 1, None),
    ("trials", lambda b: estimate_outage(_NODIRECT, b), 1, None),
    ("seed", lambda b: estimate_outage(_NODIRECT, 10, seed=b), 0, 2**128),
    ("workers", lambda b: estimate_outage(_NODIRECT, 10, workers=b), 1, None),
    ("trials", lambda b: estimate_schedule_throughput(_NODIRECT, (0.2, 0.3, 0.5), b), 1, None),
    ("num_points", lambda b: analytic_dmt(_NODIRECT, num_points=b), 2, None),
    ("index", lambda b: substream(0, b), 0, 2**128),
    ("n", lambda b: draw_realizations(_NODIRECT, b, substream(0, 0)), 0, None),
]
# the CLI's own bounds; k counts users from 1 there.  The CLI reads text, so no
# bool reaches its checks, and these rows get no bool cases.
_CLI_INTEGER_ARGS = [
    ("trials", _cli("trials"), 1, None),
    ("workers", _cli("workers"), 1, None),
    ("seed", _cli("seed"), 0, 2**64),
    ("n_points", _cli("n_points"), 2, None),
    ("k", _cli("k"), 1, 4),
]
# each row's id is "name-function"; a pair that repeats is numbered from 0, as
# pytest numbers repeated ids
_ROW_IDS = [f"{row[0]}-{row[1].__name__}" for row in _INTEGER_ARGS + _CLI_INTEGER_ARGS]
_ROW_IDS = [i + str(_ROW_IDS[:n].count(i)) if _ROW_IDS.count(i) > 1 else i
            for n, i in enumerate(_ROW_IDS)]


@pytest.mark.parametrize("name, call, lo, hi, bad", [
    pytest.param(*row, bad, id=f"{row_id}-{bad}")
    for row_id, row in zip(_ROW_IDS, _INTEGER_ARGS + _CLI_INTEGER_ARGS)
    for bad in (("outside", "inside") if row in _CLI_INTEGER_ARGS
                else (True, False, "outside", "inside"))])
def test_integer_arguments_reject_bools(name, call, lo, hi, bad):
    # a bool is no count or index, although operator.index(True) is 1; an integer
    # passes exactly in [lo, hi), and the rejection names the argument
    if bad == "inside":
        for x in (lo, hi - 1) if hi is not None else (lo,):
            call(x)
    elif bad == "outside":
        for x in (lo - 1, hi) if hi is not None else (lo - 1,):
            with pytest.raises(ValueError, match=f"{name} must (be >=|lie in)"):
                call(x)
    else:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(bad)


def test_numpy_integer_m_accepted():
    cfg = SystemConfig(M=np.int64(4), gamma_p=50.0, gamma_s=30.0, R=0.5)
    assert cfg.M == 4 and type(cfg.M) is int
    assert cfg.lambda_s == (0.0,) * 4
