import math

import numpy as np
import pytest
from scipy import stats

from cogrelay import (BeamformerResult, DegenerateChannel, SystemConfig,
                      decode_mask, draw_realizations, effective_gain,
                      optimal_weights, substream)
from oracles import effective_gain_ref, projection_matrix


def _draw(rng, k):
    return (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)


def test_projection_matrix_example():
    h_sd = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi = projection_matrix(h_sd.astype(complex))
    expect = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(psi, expect, atol=1e-12)


def test_projection_matrix_idempotent_hermitian():
    rng = substream(5, 0)
    for k in (2, 3, 6):
        h_sd = _draw(rng, k)
        psi = projection_matrix(h_sd)
        assert np.allclose(psi @ psi, psi, atol=1e-12)
        assert np.allclose(psi, psi.conj().T, atol=1e-12)
        assert np.allclose(psi @ h_sd, 0.0, atol=1e-12)


def test_optimal_weights_worked_example():
    res = optimal_weights(np.array([3.0 + 0j, 4.0]), np.array([1.0 + 0j, 0.0]))
    # projecting [3,4] off [1,0] leaves [0,4]: gain 16, weights [0,1]
    assert math.isclose(res.alpha, 16.0, rel_tol=1e-14)
    assert np.allclose(res.g, [0.0, 1.0], atol=1e-14)
    assert res.leakage < 1e-28


def test_zero_forcing_invariants():
    rng = substream(6, 0)
    for _ in range(300):
        k = int(rng.integers(2, 9))
        h_pd, h_sd = _draw(rng, k), _draw(rng, k)
        res = optimal_weights(h_pd, h_sd)
        assert isinstance(res, BeamformerResult)
        assert abs(np.linalg.norm(res.g) - 1.0) < 1e-12
        assert res.leakage < 1e-24
        direct = np.vdot(h_sd, h_pd)
        alpha_ref = np.vdot(h_pd, h_pd).real - abs(direct) ** 2 / np.vdot(h_sd, h_sd).real
        assert math.isclose(res.alpha, alpha_ref, rel_tol=1e-10)
        # the beamformer attains its own gain
        assert math.isclose(abs(np.vdot(res.g, h_pd)) ** 2, res.alpha, rel_tol=1e-10)


def test_no_zero_leakage_direction_beats_alpha():
    rng = substream(7, 0)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        h_pd, h_sd = _draw(rng, k), _draw(rng, k)
        res = optimal_weights(h_pd, h_sd)
        psi = projection_matrix(h_sd)
        z = _draw(rng, 40 * k).reshape(40, k)
        cand = z @ psi.T  # rows live in the zero-leakage subspace
        norms = np.linalg.norm(cand, axis=1)
        cand = cand[norms > 1e-12] / norms[norms > 1e-12, None]
        gains = np.abs(cand.conj() @ h_pd) ** 2
        assert gains.max() <= res.alpha * (1.0 + 1e-9)


@pytest.mark.parametrize("h_pd, h_sd", [
    ([math.nan, 1.0], [1.0, 0.0]),
    ([1.0, 1.0], [complex(0.0, math.inf), 1.0]),
    ([-math.inf, 1.0], [1.0, 0.0]),
])
def test_optimal_weights_rejects_non_finite(h_pd, h_sd):
    with pytest.raises(ValueError, match="finite"):
        optimal_weights(h_pd, h_sd)


@pytest.mark.parametrize("h_pd, h_sd", [
    ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]]),   # 2-D: vdot would flatten both
    ([1.0, 2.0, 3.0], [1.0, 0.0]),                           # lengths differ
    (1.0, 1.0),                                              # scalars
])
def test_optimal_weights_rejects_bad_shapes(h_pd, h_sd):
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        optimal_weights(h_pd, h_sd)


@pytest.mark.parametrize("h_pd, h_sd", [
    (["1", "2", "3"], ["1j", "0", "1"]),       # text: would parse to alpha 9.0
    ([True, False, True], [1.0, 0.0, 1.0]),     # bools: would pass as 0/1
    ([1.0, 0.0, 1.0], np.array([True, False, True])),
    (np.array([1.0, 2.0, 3.0], dtype=object), [1.0, 0.0, 1.0]),
])
def test_optimal_weights_rejects_non_numeric_dtypes(h_pd, h_sd):
    # channel entries are ints, floats or complex numbers, as every real input is
    with pytest.raises(ValueError, match="channel entries must be finite ints"):
        optimal_weights(h_pd, h_sd)


def test_degenerate_channels_raise():
    with pytest.raises(DegenerateChannel):
        optimal_weights(np.array([1.0 + 0j, 2.0]), np.zeros(2, dtype=complex))
    h = np.array([1.0 + 1j, 2.0 - 0.5j])
    with pytest.raises(DegenerateChannel):
        optimal_weights(2.0 * h, h)  # parallel: nothing survives the projection


def test_effective_gain_matches_scalar_path():
    rng = substream(8, 0)
    n, m = 200, 5
    h_pd = _draw(rng, n * m).reshape(n, m)
    h_sd = _draw(rng, n * m).reshape(n, m)
    mask = rng.random((n, m)) < 0.6
    alpha = effective_gain(h_pd, h_sd, mask)
    for i in range(n):
        k = mask[i].sum()
        if k >= 2:
            ref = optimal_weights(h_pd[i, mask[i]], h_sd[i, mask[i]]).alpha
            assert math.isclose(alpha[i], ref, rel_tol=1e-10)
        else:
            # one relay cannot null sd and still point at pd; none cannot transmit
            assert alpha[i] == 0.0 or alpha[i] < 1e-12


def test_fused_gain_matches_reference():
    # drawn blocks at gamma_p = 5, where K = 0 and K = 1 rows occur; the
    # fused gain must equal the |h|^2-temporary reference to 1e-14 of the
    # masked sum |h_pd|^2, and rows with an all-zero masked h_sd give 0
    seen_k = set()
    for M in (2, 3, 4, 6, 10, 40):
        cfg = SystemConfig(M=M, gamma_p=5.0, gamma_s=30.0, R=0.5)
        block = draw_realizations(cfg, 4096, substream(12, M))
        mask = decode_mask(cfg, block)
        h_pd, h_sd = block.h_relay_pd, block.h_relay_sd.copy()
        h_sd[::7] = np.where(mask[::7], 0.0, h_sd[::7])   # null where it counts
        alpha = effective_gain(h_pd, h_sd, mask)
        ref = effective_gain_ref(h_pd, h_sd, mask)
        a2 = np.sum(np.abs(h_pd) ** 2, axis=1, where=mask, initial=0.0)
        assert np.all(np.abs(alpha - ref) <= 1e-14 * a2), M
        null_sd = ~np.any(mask & (h_sd != 0), axis=1)
        assert np.all(alpha[null_sd] == 0.0) and np.all(ref[null_sd] == 0.0), M
        seen_k.update(mask.sum(axis=1).tolist())
    assert {0, 1} <= seen_k


def test_alpha_gamma_law_moments():
    # with K active relays the gain should be Gamma(K-1, 1)
    rng = substream(9, 0)
    for k in (3, 5):
        n = 200_000
        h_pd = _draw(rng, n * k).reshape(n, k)
        h_sd = _draw(rng, n * k).reshape(n, k)
        alpha = effective_gain(h_pd, h_sd, np.ones((n, k), dtype=bool))
        mean_se = math.sqrt(k - 1) / math.sqrt(n)
        assert abs(alpha.mean() - (k - 1)) < 5 * mean_se
        var_se = math.sqrt(stats.gamma.moment(4, k - 1)) / math.sqrt(n)
        assert abs(alpha.var() - (k - 1)) < 5 * var_se


def test_alpha_gamma_law_ks():
    rng = substream(10, 0)
    k, n = 4, 50_000
    h_pd = _draw(rng, n * k).reshape(n, k)
    h_sd = _draw(rng, n * k).reshape(n, k)
    alpha = effective_gain(h_pd, h_sd, np.ones((n, k), dtype=bool))
    d = stats.kstest(alpha, "gamma", args=(k - 1,)).statistic
    assert d < 0.01
