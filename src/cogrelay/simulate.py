"""Full-protocol Monte Carlo: the ground-truth oracle for the closed forms.

Slots are simulated in blocks of 16384 (2^20 // (M - 1) past M = 65), each
drawn from its own counter-jumped substream of the master seed.  Both block
tasks count over `_block_events`: power gains drawn whole, then normals drawn
and passed through the zero-forcing gain in chunks of 2^15 // (M - 1) slots
(at least one), so they never span a whole block.  Each of W threads folds
the strided share w, w + W, ... of the blocks as it draws them (W is at most
the blocks and the CPUs; numpy drops the interpreter lock to draw and
reduce), so memory does not grow with the trial count.  Threads never change
a block, so counts are bit-identical for any W.
"""
from __future__ import annotations

import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from itertools import takewhile
from math import fsum, inf, sqrt

import numpy as np

from .beamform import effective_gain
from .channel import ChannelBlock, _as_seed, _draw_chunks, decode_mask, substream
from .config import Case, SystemConfig, _as_index, _as_real

BLOCK_SLOTS = 16384
_CHUNK_LINKS = 2**15       # relay links per chunk of a block


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
    alpha = np.where(k >= 2, effective_gain(block.h_relay_pd, block.h_relay_sd, mask), 0.0)
    phi = cfg.gamma_s * block.h_v_pd
    relayed = cfg.gamma_p * alpha / (1.0 + phi)
    thr = cfg.thresholds()[1]     # the relayed packet and the secondary's own share a phase
    if cfg.case is Case.DIRECT_LINK:
        # MRC: direct-branch SNR adds to the beamformed-branch SINR
        primary_ok = relayed + cfg.gamma_p * block.h_p_pd >= thr
    else:
        # nothing reaches pd unless at least two relays cooperated
        primary_ok = (k >= 2) & (relayed >= thr)
    secondary_ok = cfg.gamma_s * block.h_v_sd >= thr
    return primary_ok, secondary_ok, k


def _blocks(trials: int, first: int = 0, step: int = 1, block: int = BLOCK_SLOTS):
    """(index, n_slots) of blocks first, first + step, ... of `trials` slots, lazily."""
    for b in range(first, -(-trials // block), step):
        yield b, min(block, trials - b * block)


def _add(total: tuple, result: tuple) -> tuple:
    return tuple(map(operator.add, total, result))


def _block_events(cfg: SystemConfig, n: int, rng: np.random.Generator):
    """_slot_events of an n-slot draw from rng, formed chunk by chunk and joined."""
    rows = max(1, _CHUNK_LINKS // (cfg.M - 1))
    chunks = [_slot_events(cfg, chunk) for chunk in _draw_chunks(cfg, n, rng, rows)]
    return tuple(map(np.concatenate, zip(*chunks)))


def _outage_block(cfg, seed, index, n):
    primary_ok, secondary_ok, k = _block_events(cfg, n, substream(seed, index))
    return (int(np.count_nonzero(~primary_ok)), int(np.count_nonzero(~secondary_ok)),
            np.bincount(k, minlength=cfg.M))


def _schedule_block(cfg, omega, seed, index, n):
    rng = substream(seed, index)
    primary_ok, secondary_ok, _ = _block_events(cfg, n, rng)   # channel draws first,
    u = rng.random(n)                                           # scheduling uniforms after
    scheduled = np.minimum(np.searchsorted(np.cumsum(omega), u, side="right"), len(omega) - 1)
    succ = np.bincount(scheduled[secondary_ok], minlength=len(omega))
    return succ, int(np.count_nonzero(primary_ok))


def _sum_blocks(task, trials: int, workers: int, block=BLOCK_SLOTS) -> tuple:
    """Elementwise sum of task(index, n) over all blocks, in W strided shares: share 0
    on this thread, the rest on a pool (no thread when W = 1).  Once the fold ends or
    raises, Ctrl-C included, every share skips its remaining blocks."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shares, stop = min(workers, -(-trials // block), cpus or 1), threading.Event()

    def share(first):
        live = takewhile(lambda _: not stop.is_set(), _blocks(trials, first, shares, block))
        return reduce(_add, (task(*b) for b in live))

    with ThreadPoolExecutor(shares) as pool:
        try:
            return reduce(_add, pool.map(share, range(1, shares)), share(0))
        finally:
            stop.set()


def _fold(cfg: SystemConfig, task, trials: int, workers: int) -> tuple:
    return _sum_blocks(task, trials, workers, min(BLOCK_SLOTS, 2**20 // (cfg.M - 1)))


def _check_run(trials, seed, workers) -> tuple:
    """(trials, seed, workers) as ints; ValueError unless each lies in its range."""
    trials, workers = _as_index("trials", trials), _as_index("workers", workers)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return trials, _as_seed("seed", seed), workers


def _estimate(count: int, trials: int) -> OutageEstimate:
    p = count / trials
    return OutageEstimate(p_hat=p, stderr=sqrt(p * (1.0 - p) / trials), trials=trials)


def estimate_outage(cfg: SystemConfig, trials: int, seed: int = 0,
                    workers: int = 1) -> OutageSimulation:
    """Empirical primary/secondary outage over `trials` slots.

    Deterministic in (cfg, trials, seed); the workers argument affects
    wall-clock only.  trials >= 1, 0 <= seed < 2^128 and workers >= 1 are
    integers; anything else raises ValueError.
    """
    trials, seed, workers = _check_run(trials, seed, workers)
    p_out, s_out, k_counts = _fold(cfg, partial(_outage_block, cfg, seed), trials, workers)
    return OutageSimulation(primary=_estimate(p_out, trials), secondary=_estimate(s_out, trials),
                            k_counts=k_counts, trials=trials)


def estimate_schedule_throughput(cfg: SystemConfig, omega, trials: int,
                                 seed: int = 0, workers: int = 1) -> ScheduleEstimate:
    """Simulate the TDMA assignment omega and measure per-user throughput.

    Each slot schedules one secondary user j with probability omega[j]; its
    own-data success gives throughput mu_j.  The primary relaying outcome is
    counted in the same slots (its statistics do not depend on which user is
    scheduled, but the shared-slot accounting mirrors the protocol).
    omega holds M finite nonnegative shares that sum to 1 within 1e-9, and
    trials, seed and workers are checked as in estimate_outage; anything
    else raises ValueError.
    """
    trials, seed, workers = _check_run(trials, seed, workers)
    try:
        omega = tuple(_as_real("omega", w) for w in omega)
    except TypeError:
        raise ValueError(f"omega must be a sequence of reals, got {omega!r}") from None
    if (len(omega) != cfg.M or not all(0.0 <= w < inf for w in omega)
            or abs(fsum(omega) - 1.0) > 1e-9):
        raise ValueError("omega must be M finite nonnegative probabilities summing to 1")
    succ, p_ok = _fold(cfg, partial(_schedule_block, cfg, omega, seed), trials, workers)
    mu, primary = succ / trials, _estimate(p_ok, trials)
    return ScheduleEstimate(mu_hat=mu, stderr=np.sqrt(mu * (1.0 - mu) / trials),
                            primary_throughput=primary.p_hat, primary_stderr=primary.stderr,
                            trials=trials)
