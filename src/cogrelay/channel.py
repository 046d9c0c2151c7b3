"""Rayleigh block-fading channel model and decoding-set statistics.

All links are i.i.d. circularly-symmetric complex Gaussian with unit
average power: h = (x + jy)/sqrt(2) with x, y standard normal.  Fading is
constant within a slot and independent across slots.  The scheduled
secondary source is handled by relabeling: by exchangeability the relays
are always indices 0..M-2 of a fresh draw.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, expm1

import numpy as np

from .config import Case, SystemConfig, snr_threshold


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible generator for the index-th block of a run.

    Uses Philox counter jumps so that stream `index` is identical no matter
    which worker draws it or how many blocks were drawn before it.
    """
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


@dataclass(frozen=True)
class ChannelBlock:
    """Channels of n slots, from each slot's scheduled secondary source's view."""

    h_p_pd: np.ndarray            # (n,) primary tx -> primary destination (0 when no direct link)
    h_p_relay: np.ndarray         # (n, M-1) primary tx -> each candidate relay
    h_relay_pd: np.ndarray        # (n, M-1) each relay -> primary destination
    h_relay_sd: np.ndarray        # (n, M-1) each relay -> secondary destination
    h_v_pd: np.ndarray            # (n,) secondary source -> primary destination (interference path)
    h_v_sd: np.ndarray            # (n,) secondary source -> its own destination

    def __len__(self) -> int:
        return self.h_p_pd.shape[0]


def draw_realizations(cfg: SystemConfig, n: int, rng: np.random.Generator) -> ChannelBlock:
    """Draw n independent slots.

    The 3M complex links of a slot fill one contiguous row of a single
    normal draw, so a batch of n is bit-identical to n consecutive draws of
    one slot each from the same stream; a single slot is n = 1.
    """
    m = cfg.M - 1
    z = rng.standard_normal((n, 3 * cfg.M, 2))
    h = (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)
    h_p_pd = h[:, 0].copy()
    if cfg.case is Case.NO_DIRECT_LINK:
        h_p_pd[:] = 0.0
    return ChannelBlock(
        h_p_pd=h_p_pd,
        h_p_relay=h[:, 1 : 1 + m],
        h_relay_pd=h[:, 1 + m : 1 + 2 * m],
        h_relay_sd=h[:, 1 + 2 * m : 1 + 3 * m],
        h_v_pd=h[:, 1 + 3 * m],
        h_v_sd=h[:, 2 + 3 * m],
    )


# --- decoding set ------------------------------------------------------


def decode_mask(cfg: SystemConfig, block: ChannelBlock) -> np.ndarray:
    """Boolean (n, M-1): which relays decode the broadcast at the case's rate.

    Relay k decodes iff gamma_p |h_p_relay[k]|^2 >= 2^rate - 1 (success at
    equality).
    """
    thr = snr_threshold(cfg.broadcast_rate())
    return cfg.gamma_p * np.abs(block.h_p_relay) ** 2 >= thr


def decoding_set_pmf(cfg: SystemConfig) -> np.ndarray:
    """pmf of K = |decoding set| over 0..M-1: Binomial(M-1, L) at the case's rate.

    A relay decodes w.p. L = e^-q, q = (2^rate - 1)/gamma_p, and fails w.p.
    -expm1(-q): 1 - L loses all relative precision as q -> 0.
    """
    q = snr_threshold(cfg.broadcast_rate()) / cfg.gamma_p
    L, L_bar = exp(-q), -expm1(-q)
    m = cfg.M - 1
    return np.array([comb(m, K) * L**K * L_bar ** (m - K) for K in range(cfg.M)])
