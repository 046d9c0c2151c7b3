"""Rayleigh block-fading channel model and the decoding set it draws.

All links are i.i.d. circularly-symmetric complex Gaussian with unit
average power: h = (x + jy)/sqrt(2) with x, y standard normal.  Fading is
constant within a slot and independent across slots.  The scheduled
secondary source is handled by relabeling: by exchangeability the relays
are always indices 0..M-2 of a fresh draw.

Links that enter only through their power (primary tx -> pd and -> each
relay, secondary source -> pd and -> sd) are drawn as |h|^2 ~ Exp(1), exact
for CN(0, 1).  The relay -> pd and relay -> sd vectors stay complex: the
zero-forcing gain is their projection, never a draw from its Gamma law.

A block's power gains are drawn whole; its complex normals can be drawn in
row chunks, which the Monte Carlo folds one at a time.  Either way a block
holds the same samples.  This module draws from whatever generator it is
handed: the run's streams, argument checks and block sizes are
`simulate`'s.  The decoding set's Binomial law is the closed forms' own
(`analytic._binomial_pmf`): the Monte Carlo that checks them shares no code
with them past `config`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Case, SystemConfig, _as_index

@dataclass(frozen=True)
class ChannelBlock:
    """Channels of n slots, from each slot's scheduled secondary source's view."""

    h_p_pd: np.ndarray            # (n,) |h|^2 primary tx -> primary dest. (0 when no direct link)
    h_p_relay: np.ndarray         # (n, M-1) |h|^2 primary tx -> each candidate relay
    h_relay_pd: np.ndarray        # (n, M-1) complex h, each relay -> primary destination
    h_relay_sd: np.ndarray        # (n, M-1) complex h, each relay -> secondary destination
    h_v_pd: np.ndarray            # (n,) |h|^2 secondary source -> primary destination (interference)
    h_v_sd: np.ndarray            # (n,) |h|^2 secondary source -> its own destination

    def __len__(self) -> int:
        return self.h_p_pd.shape[0]


def draw_realizations(cfg: SystemConfig, n: int, rng: np.random.Generator) -> ChannelBlock:
    """Draw n independent slots; a single slot is n = 1.

    Two draws per block, in this order: an (n, M+2) Exp(1) array of the
    power gains [p->pd, p->relay_0..relay_{M-2}, v->pd, v->sd], then
    (n, 2(M-1)) complex normals, [relay->pd | relay->sd].  n is an integer
    >= 0; anything else raises ValueError.
    """
    n = _as_index("n", n)
    return next(_draw_chunks(cfg, n, rng, max(n, 1)))


def _draw_chunks(cfg: SystemConfig, n: int, rng: np.random.Generator, rows: int):
    """The n-slot draw of `draw_realizations` as ChannelBlocks of `rows` slots.

    The Exp(1) array is drawn whole and first, then each chunk's normals in
    turn; draws run sequentially on one stream, so the chunks are that
    draw's rows whatever `rows` is.
    """
    m = cfg.M - 1
    e = rng.standard_exponential((n, cfg.M + 2))
    if cfg.case is Case.NO_DIRECT_LINK:
        e[:, 0] = 0.0
    for lo in range(0, max(n, 1), rows):
        c = e[lo : lo + rows]
        z = rng.standard_normal((len(c), 2 * m, 2))
        h = np.multiply(z, np.sqrt(0.5), out=z).view(np.complex128)[..., 0]
        yield ChannelBlock(
            h_p_pd=c[:, 0],
            h_p_relay=c[:, 1 : 1 + m],
            h_relay_pd=h[:, :m],
            h_relay_sd=h[:, m:],
            h_v_pd=c[:, 1 + m],
            h_v_sd=c[:, 2 + m],
        )


# --- decoding set ------------------------------------------------------


def decode_mask(cfg: SystemConfig, block: ChannelBlock) -> np.ndarray:
    """Boolean (n, M-1): which relays decode the broadcast at the case's rate.

    Relay k decodes iff gamma_p |h_p_relay[k]|^2 >= 2^rate - 1 (success at
    equality); the block holds that power gain directly.
    """
    return cfg.gamma_p * block.h_p_relay >= cfg.thresholds()[0]

