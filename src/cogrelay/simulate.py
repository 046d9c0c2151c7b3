"""Full-protocol Monte Carlo: the ground-truth oracle for the closed forms.

Slots are simulated in blocks of 16384 (2^20 // (M - 1) past M = 65, so that
memory stays bounded in M), each drawn from its own counter-jumped substream
of the master seed.  Each of W workers folds the strided share w, w + W,
w + 2W, ... of the blocks as it draws them (W is at most the block count), so
memory does not grow with the trial count.  Workers never change what a
block contains, so counts are bit-identical for any W.
"""
from __future__ import annotations

import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from math import sqrt

import numpy as np

from .beamform import effective_gain
from .channel import ChannelBlock, decode_mask, draw_realizations, substream
from .config import Case, SystemConfig, snr_threshold

BLOCK_SLOTS = 16384


@dataclass(frozen=True)
class OutageEstimate:
    p_hat: float
    stderr: float       # sqrt(p_hat (1-p_hat) / trials)
    trials: int


@dataclass(frozen=True)
class OutageSimulation:
    primary: OutageEstimate
    secondary: OutageEstimate
    k_counts: np.ndarray       # histogram of decoding-set sizes, length M
    trials: int


@dataclass(frozen=True)
class ScheduleEstimate:
    """Per-user throughput of a TDMA schedule (user j transmits w.p. omega[j])."""

    mu_hat: np.ndarray         # fraction of slots user j was scheduled AND succeeded
    stderr: np.ndarray
    primary_throughput: float  # fraction of slots the primary packet got through
    primary_stderr: float
    trials: int


def _slot_events(cfg: SystemConfig, block: ChannelBlock):
    """Vectorized per-slot outcomes: (primary_ok, secondary_ok, K) arrays."""
    mask = decode_mask(cfg, block)
    k = mask.sum(axis=1)
    alpha = effective_gain(block.h_relay_pd, block.h_relay_sd, mask)
    alpha = np.where(k >= 2, alpha, 0.0)
    phi = cfg.gamma_s * block.h_v_pd
    relayed = cfg.gamma_p * alpha / (1.0 + phi)
    thr = snr_threshold(cfg.forward_rate())
    if cfg.case is Case.DIRECT_LINK:
        # MRC: direct-branch SNR adds to the beamformed-branch SINR
        primary_ok = relayed + cfg.gamma_p * block.h_p_pd >= thr
    else:
        # nothing reaches pd unless at least two relays cooperated
        primary_ok = (k >= 2) & (relayed >= thr)
    thr_s = snr_threshold(cfg.secondary_rate())
    secondary_ok = cfg.gamma_s * block.h_v_sd >= thr_s
    return primary_ok, secondary_ok, k


def _blocks(trials: int, first: int = 0, step: int = 1, block: int = BLOCK_SLOTS):
    """(index, n_slots) of blocks first, first + step, ... of `trials` slots, lazily."""
    for b in range(first, -(-trials // block), step):
        yield b, min(block, trials - b * block)


def _add(total: tuple, result: tuple) -> tuple:
    return tuple(map(operator.add, total, result))


def _outage_block(args):
    cfg, seed, index, n = args
    block = draw_realizations(cfg, n, substream(seed, index))
    primary_ok, secondary_ok, k = _slot_events(cfg, block)
    return (
        int(np.count_nonzero(~primary_ok)),
        int(np.count_nonzero(~secondary_ok)),
        np.bincount(k, minlength=cfg.M),
    )


def _schedule_block(args):
    cfg, omega, seed, index, n = args
    rng = substream(seed, index)
    block = draw_realizations(cfg, n, rng)      # channel draws first,
    u = rng.random(n)                           # scheduling uniforms after
    scheduled = np.searchsorted(np.cumsum(omega), u, side="right")
    scheduled = np.minimum(scheduled, len(omega) - 1)
    primary_ok, secondary_ok, _ = _slot_events(cfg, block)
    succ = np.bincount(scheduled[secondary_ok], minlength=len(omega))
    return succ, int(np.count_nonzero(primary_ok))


def _fold(task, head: tuple, trials: int, first: int, step: int, block=BLOCK_SLOTS) -> tuple:
    """Elementwise sum of task(head + b) over _blocks(trials, first, step, block)."""
    return reduce(_add, (task(head + b) for b in _blocks(trials, first, step, block)))


def _sum_blocks(task, head: tuple, trials: int, workers: int, block=BLOCK_SLOTS) -> tuple:
    """_fold over every block: in-process, or one strided share per process."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    shares = max(1, min(workers, -(-trials // block)))
    share = partial(_fold, task, head, trials, step=shares, block=block)
    if shares == 1:
        return share(0)
    with ProcessPoolExecutor(max_workers=shares) as pool:
        return reduce(_add, pool.map(share, range(shares)))


def _estimate(count: int, trials: int) -> OutageEstimate:
    p = count / trials
    return OutageEstimate(p_hat=p, stderr=sqrt(p * (1.0 - p) / trials), trials=trials)


def estimate_outage(cfg: SystemConfig, trials: int, seed: int = 0,
                    workers: int = 1) -> OutageSimulation:
    """Empirical primary/secondary outage over `trials` slots.

    Deterministic in (cfg, trials, seed); the workers argument affects
    wall-clock only.
    """
    p_out, s_out, k_counts = _sum_blocks(_outage_block, (cfg, seed), trials, workers,
                                         min(BLOCK_SLOTS, 2**20 // (cfg.M - 1)))
    return OutageSimulation(primary=_estimate(p_out, trials), secondary=_estimate(s_out, trials),
                            k_counts=k_counts, trials=trials)


def estimate_schedule_throughput(cfg: SystemConfig, omega, trials: int,
                                 seed: int = 0, workers: int = 1) -> ScheduleEstimate:
    """Simulate the TDMA assignment omega and measure per-user throughput.

    Each slot schedules one secondary user j with probability omega[j]; its
    own-data success gives throughput mu_j.  The primary relaying outcome is
    counted in the same slots (its statistics do not depend on which user is
    scheduled, but the shared-slot accounting mirrors the protocol).
    """
    omega = tuple(float(w) for w in omega)
    if len(omega) != cfg.M or any(w < 0 for w in omega):
        raise ValueError("omega must be M nonnegative probabilities")
    succ, p_ok = _sum_blocks(_schedule_block, (cfg, omega, seed), trials, workers,
                             min(BLOCK_SLOTS, 2**20 // (cfg.M - 1)))
    mu = succ / trials
    return ScheduleEstimate(
        mu_hat=mu,
        stderr=np.sqrt(mu * (1.0 - mu) / trials),
        primary_throughput=p_ok / trials,
        primary_stderr=sqrt((p_ok / trials) * (1.0 - p_ok / trials) / trials),
        trials=trials,
    )
