import math

import numpy as np
import pytest
from scipy import stats

from cogrelay import (Case, SystemConfig, decode_mask, decoding_set_pmf,
                      draw_realizations, snr_threshold, substream)


def _cfg(case="direct", M=4, R=0.5):
    return SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=R, case=case)


def test_substream_reproducible_and_distinct():
    a = substream(42, 0).standard_normal(8)
    b = substream(42, 0).standard_normal(8)
    c = substream(42, 1).standard_normal(8)
    d = substream(43, 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_block_shapes_and_dtype():
    cfg = _cfg(M=5)
    block = draw_realizations(cfg, 100, substream(0, 0))
    assert block.h_p_pd.shape == (100,)
    assert block.h_p_relay.shape == (100, 4)
    assert block.h_relay_pd.shape == (100, 4)
    assert block.h_relay_sd.shape == (100, 4)
    assert block.h_v_pd.shape == (100,)
    assert block.h_v_sd.shape == (100,)
    assert block.h_p_relay.dtype == np.complex128
    assert len(block) == 100


def test_unit_variance_zero_mean():
    cfg = _cfg(M=4)
    block = draw_realizations(cfg, 400_000, substream(7, 0))
    h = block.h_p_relay.ravel()
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


def test_single_draw_matches_block_head():
    # a single slot is a block of one, and it is the head of a longer block
    # drawn from the same stream
    cfg = _cfg(M=3)
    one = draw_realizations(cfg, 1, substream(9, 5))
    block = draw_realizations(cfg, 8, substream(9, 5))
    assert len(one) == 1
    for name in ("h_p_pd", "h_p_relay", "h_relay_pd", "h_relay_sd", "h_v_pd", "h_v_sd"):
        assert np.array_equal(getattr(one, name), getattr(block, name)[:1]), name


def test_form_decoding_set_matches_rule():
    # relay k decodes iff gamma_p |h_p_relay[k]|^2 >= 2^rate - 1
    for case, M, R in (("direct", 6, 0.8), ("nodirect", 5, 1.0)):
        cfg = _cfg(case, M=M, R=R)
        block = draw_realizations(cfg, 64, substream(8, 0))
        thr = 2.0 ** cfg.broadcast_rate() - 1.0
        expect = cfg.gamma_p * np.abs(block.h_p_relay) ** 2 >= thr
        mask = decode_mask(cfg, block)
        assert mask.shape == (64, M - 1)
        assert np.array_equal(mask, expect)
        assert 0 < mask.sum() < mask.size


def test_decode_mask_agrees_with_decoding_set():
    # the decoding set of slot i, formed from that slot alone, is row i of
    # the block's mask
    cfg = _cfg(M=5, R=1.0)
    block = draw_realizations(cfg, 64, substream(8, 0))
    mask = decode_mask(cfg, block)
    rng = substream(8, 0)
    for i in range(64):
        slot = decode_mask(cfg, draw_realizations(cfg, 1, rng))
        assert slot.shape == (1, 4)
        assert np.array_equal(np.flatnonzero(slot[0]), np.flatnonzero(mask[i]))


def test_pmf_is_binomial():
    cfg = _cfg(M=6, R=0.5)
    pmf = decoding_set_pmf(cfg)
    L = math.exp(-snr_threshold(cfg.broadcast_rate()) / cfg.gamma_p)
    ref = stats.binom.pmf(np.arange(6), 5, L)
    assert pmf.shape == (6,)
    assert np.allclose(pmf, ref, rtol=1e-12)
    assert math.isclose(pmf.sum(), 1.0, rel_tol=1e-12)


def test_pmf_no_direct_link_uses_broadcast_rate():
    cfg = SystemConfig(M=4, gamma_p=20.0, gamma_s=30.0, R=0.6,
                       case=Case.NO_DIRECT_LINK, zeta=0.3)
    pmf = decoding_set_pmf(cfg)
    L = math.exp(-(2.0 ** (0.6 / 0.3) - 1.0) / 20.0)
    ref = stats.binom.pmf(np.arange(4), 3, L)
    assert np.allclose(pmf, ref, rtol=1e-12)


def test_pmf_keeps_precision_at_tiny_threshold():
    # q = (2^rate - 1)/gamma_p = 1e-20: 1 - e^-q rounds to 0, -expm1(-q) = q
    cfg = SystemConfig(M=5, gamma_p=1e20, gamma_s=30.0, R=0.5)
    pmf = decoding_set_pmf(cfg)
    assert math.isclose(pmf[3], 4 * 1e-20, rel_tol=1e-14)
    assert math.isclose(pmf[0], 1e-80, rel_tol=1e-14)
    assert pmf[4] == 1.0
