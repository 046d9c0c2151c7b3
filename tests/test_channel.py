import math

import numpy as np
import pytest
from scipy import stats

from cogrelay import Case, SystemConfig, decode_mask, draw_realizations, substream
from cogrelay.channel import _binomial_pmf, _small_k_mass
from oracles import snr_threshold


def _cfg(case="direct", M=4, R=0.5):
    return SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=R, case=case)


POWER_FIELDS = ("h_p_pd", "h_p_relay", "h_v_pd", "h_v_sd")


def _raw(cfg, n, rng):
    """The two raw arrays a block is made of, drawn in order from rng.

    Exp(1) power gains [p->pd, p->relay_0..relay_{M-2}, v->pd, v->sd], then
    normal (re, im) pairs for [relay->pd | relay->sd], before the sqrt(1/2)
    scaling.
    """
    e = rng.standard_exponential((n, cfg.M + 2))
    z = rng.standard_normal((n, 2 * (cfg.M - 1), 2))
    return e, z


def test_substream_reproducible_and_distinct():
    a = substream(42, 0).standard_normal(8)
    b = substream(42, 0).standard_normal(8)
    c = substream(42, 1).standard_normal(8)
    d = substream(43, 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    top = 2**128 - 1
    assert np.array_equal(substream(np.uint64(42), np.int64(1)).standard_normal(8), c)
    assert substream(top, top).random() == substream(top, top).random()


@pytest.mark.parametrize("seed, index, name", [
    (1.5, 0, "seed"), (True, 0, "seed"), (-1, 0, "seed"), (2**128, 0, "seed"),
    (math.nan, 0, "seed"), ("1", 0, "seed"),
    (0, 1.7, "index"), (0, -1, "index"), (0, 2**128, "index"),
])
def test_substream_rejects_bad_seed_or_index(seed, index, name):
    # 1.5 and True used to draw seed 1's stream, index -1 that of 2**128 - 1
    with pytest.raises(ValueError, match=name):
        substream(seed, index)


@pytest.mark.parametrize("n", [2.5, -1, math.nan, "3", None])
def test_draw_realizations_rejects_bad_n(n):
    with pytest.raises(ValueError, match="n must"):
        draw_realizations(_cfg(), n, substream(0, 0))


def test_draw_realizations_of_no_slots():
    block = draw_realizations(_cfg(M=5), 0, substream(0, 0))
    assert len(block) == 0 and block.h_p_relay.shape == (0, 4)


def test_block_shapes_and_dtype():
    cfg = _cfg(M=5)
    block = draw_realizations(cfg, 100, substream(0, 0))
    assert block.h_p_pd.shape == (100,)
    assert block.h_p_relay.shape == (100, 4)
    assert block.h_relay_pd.shape == (100, 4)
    assert block.h_relay_sd.shape == (100, 4)
    assert block.h_v_pd.shape == (100,)
    assert block.h_v_sd.shape == (100,)
    # links that enter only through |h|^2 hold that power gain; the relay
    # vectors the beamformer projects stay complex
    for name in POWER_FIELDS:
        assert getattr(block, name).dtype == np.float64, name
        assert np.all(getattr(block, name) >= 0.0), name
    for name in ("h_relay_pd", "h_relay_sd"):
        assert getattr(block, name).dtype == np.complex128, name
    assert len(block) == 100


def test_power_gains_are_exp1_ks():
    # |h|^2 of a CN(0, 1) link is Exp(1); same bound as criterion 4's KS test
    block = draw_realizations(_cfg(M=4), 50_000, substream(11, 0))
    for name in POWER_FIELDS:
        d = stats.kstest(getattr(block, name).ravel(), "expon").statistic
        assert d < 0.01, (name, d)


def test_unit_variance_zero_mean():
    cfg = _cfg(M=4)
    block = draw_realizations(cfg, 400_000, substream(7, 0))
    h = block.h_relay_pd.ravel()
    # |h|^2 is Exp(1): mean 1 with sd 1, so the sample mean has sd ~9e-4
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 4e-3
    assert abs(np.mean(h.real)) < 4e-3 and abs(np.mean(h.imag)) < 4e-3
    # real and imaginary parts each carry half the power
    assert abs(np.mean(h.real ** 2) - 0.5) < 3e-3


def test_no_direct_link_zeroes_only_the_direct_channel():
    c1 = _cfg("direct")
    c2 = _cfg("nodirect")
    b1 = draw_realizations(c1, 500, substream(3, 0))
    b2 = draw_realizations(c2, 500, substream(3, 0))
    assert np.all(b2.h_p_pd == 0)
    assert np.any(b1.h_p_pd != 0)
    # identical stream consumption: every other coefficient matches exactly
    for name in ("h_p_relay", "h_relay_pd", "h_relay_sd", "h_v_pd", "h_v_sd"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name))


def test_block_is_the_two_raw_draws():
    # bitwise: a block (a single slot is n = 1) is one Exp(1) array and then
    # one normal array from the same substream, column by column
    for case, M, n in (("direct", 2, 1), ("direct", 3, 8), ("nodirect", 6, 64),
                       ("direct", 40, 5)):
        cfg = _cfg(case, M=M)
        block = draw_realizations(cfg, n, substream(9, 5))
        e, z = _raw(cfg, n, substream(9, 5))
        m = M - 1
        direct = e[:, 0] if case == "direct" else np.zeros(n)
        assert np.array_equal(block.h_p_pd, direct)
        assert np.array_equal(block.h_p_relay, e[:, 1 : 1 + m])
        assert np.array_equal(block.h_v_pd, e[:, 1 + m])
        assert np.array_equal(block.h_v_sd, e[:, 2 + m])
        s = np.sqrt(0.5)
        for name, cols in (("h_relay_pd", slice(0, m)), ("h_relay_sd", slice(m, 2 * m))):
            h = getattr(block, name)
            assert np.array_equal(h.real, z[:, cols, 0] * s), (case, M, name)
            assert np.array_equal(h.imag, z[:, cols, 1] * s), (case, M, name)


def test_form_decoding_set_matches_rule():
    # relay k decodes iff gamma_p |h_p_relay[k]|^2 >= 2^rate - 1
    # the broadcast rate is 2R with a direct link, R/zeta = 2R at zeta = 1/2 without
    for case, M, R in (("direct", 6, 0.8), ("nodirect", 5, 1.0)):
        cfg = _cfg(case, M=M, R=R)
        block = draw_realizations(cfg, 64, substream(8, 0))
        thr = 2.0 ** (2.0 * R) - 1.0
        e, _ = _raw(cfg, 64, substream(8, 0))
        mask = decode_mask(cfg, block)
        assert mask.shape == (64, M - 1)
        for i in range(64):
            expect = [cfg.gamma_p * e[i, 1 + k] >= thr for k in range(M - 1)]
            assert mask[i].tolist() == expect, i
        assert 0 < mask.sum() < mask.size


def test_decode_mask_agrees_with_decoding_set():
    # the decoding set of slot i, formed from that slot's raw power gains
    # alone, is row i of the block's mask; a one-slot block gives its one row
    cfg = _cfg(M=5, R=1.0)
    thr = 2.0 ** 2.0 - 1.0       # broadcast at 2R
    block = draw_realizations(cfg, 64, substream(8, 0))
    mask = decode_mask(cfg, block)
    e, _ = _raw(cfg, 64, substream(8, 0))
    for i in range(64):
        relays = [k for k in range(4) if cfg.gamma_p * e[i, 1 + k] >= thr]
        assert np.flatnonzero(mask[i]).tolist() == relays, i
    slot = decode_mask(cfg, draw_realizations(cfg, 1, substream(8, 1)))
    e1, _ = _raw(cfg, 1, substream(8, 1))
    assert slot.shape == (1, 4)
    assert slot[0].tolist() == [cfg.gamma_p * x >= thr for x in e1[0, 1:5]]


def _pmf(cfg):
    """The decoding-set pmf as `outage_probability` builds it: Binomial(M-1, e^-q),
    q = broadcast threshold/gamma_p."""
    return np.array(_binomial_pmf(cfg.M - 1, cfg.thresholds()[0] / cfg.gamma_p))


def test_pmf_is_binomial():
    cfg = _cfg(M=6, R=0.5)
    pmf = _pmf(cfg)
    L = math.exp(-snr_threshold(2.0 * cfg.R) / cfg.gamma_p)
    ref = stats.binom.pmf(np.arange(6), 5, L)
    assert pmf.shape == (6,)
    assert np.allclose(pmf, ref, rtol=1e-12)
    assert math.isclose(pmf.sum(), 1.0, rel_tol=1e-12)


def test_pmf_no_direct_link_uses_broadcast_rate():
    cfg = SystemConfig(M=4, gamma_p=20.0, gamma_s=30.0, R=0.6,
                       case=Case.NO_DIRECT_LINK, zeta=0.3)
    pmf = _pmf(cfg)
    L = math.exp(-(2.0 ** (0.6 / 0.3) - 1.0) / 20.0)
    ref = stats.binom.pmf(np.arange(4), 3, L)
    assert np.allclose(pmf, ref, rtol=1e-12)


def test_pmf_keeps_precision_at_tiny_threshold():
    # q = (2^rate - 1)/gamma_p = 1e-20: 1 - e^-q rounds to 0, -expm1(-q) = q
    cfg = SystemConfig(M=5, gamma_p=1e20, gamma_s=30.0, R=0.5)
    pmf = _pmf(cfg)
    assert math.isclose(pmf[3], 4 * 1e-20, rel_tol=1e-14)
    assert math.isclose(pmf[0], 1e-80, rel_tol=1e-14)
    assert pmf[4] == 1.0


def test_small_k_mass_is_first_two_pmf_terms_bit_for_bit():
    # the scalar K < 2 mass that prunes slot splits is the list's pmf[0] + pmf[1]
    # exactly, from the underflow edge of q through q = inf
    for m in (1, 2, 3, 6, 39, 1023):
        for q in (0.0, 5e-324, 1e-300, 1e-16, 0.5, 745.0, 800.0, math.inf):
            pmf = _binomial_pmf(m, q)
            assert _small_k_mass(m, q) == pmf[0] + pmf[1], (m, q)
