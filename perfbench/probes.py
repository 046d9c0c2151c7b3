"""Per-layer timings at fixed inputs, and the CLI rows of the ROADMAP table.

Every traced run measures these, whatever its workload, so each layer has
a figure that does not depend on the op mix.  Times are medians of a few
repetitions; one repetition for the M = 40 case-1 closed form, which takes
seconds.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import replace
from pathlib import Path

from cogrelay import (Case, SystemConfig, case1_outage, case2_outage,
                      decode_mask, draw_realizations, effective_gain,
                      estimate_outage, estimate_schedule_throughput,
                      outage_highsnr, substream)
from cogrelay.cli import main as cli_main

from ops import POOL_SLICE, POOL_SLICE_TRIALS, fig_cfg

BLOCK = 16384


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cfg(M: int, case: Case = Case.DIRECT_LINK) -> SystemConfig:
    return SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=0.5, case=case)


def _replace_us() -> float:
    cfg = fig_cfg(6, 0.5, Case.NO_DIRECT_LINK)

    def splits():
        for i in range(1, 1000):
            replace(cfg, zeta=i / 1000)

    return _median_s(splits, 5) / 999 * 1e6


def _block_layers(M: int) -> dict:
    """Draw, decode and ZF-gain time of one block, at a direct-link config."""
    cfg = _cfg(M)
    it = iter(range(5))
    draw = _median_s(lambda: draw_realizations(cfg, BLOCK, substream(1, next(it))), 5)
    b = draw_realizations(cfg, BLOCK, substream(0, 0))
    decode = _median_s(lambda: decode_mask(cfg, b), 5)
    mask = decode_mask(cfg, b)
    gain = _median_s(lambda: effective_gain(b.h_relay_pd, b.h_relay_sd, mask), 5)
    nbytes = sum(getattr(b, f).nbytes for f in
                 ("h_p_pd", "h_p_relay", "h_relay_pd", "h_relay_sd", "h_v_pd", "h_v_sd"))
    return {"draw": draw, "decode": decode, "gain": gain, "bytes_per_slot": nbytes / BLOCK}


def layer_probes() -> dict:
    """{metric name: value} of the fixed-input layer timings."""
    m = {"config.replace_us": _replace_us()}
    for M, reps in ((3, 5), (4, 5), (6, 5), (10, 3), (40, 1)):
        cfg = _cfg(M)
        m[f"analytic.case1_ms.M{M}"] = _median_s(lambda: case1_outage(cfg), reps) * 1e3
    for M, reps in ((4, 200), (40, 50)):
        cfg = _cfg(M, Case.NO_DIRECT_LINK)
        m[f"analytic.case2_us.M{M}"] = _median_s(lambda: case2_outage(cfg), reps) * 1e6
    cfg6 = _cfg(6)
    m["analytic.highsnr_us"] = _median_s(lambda: outage_highsnr(cfg6), 200) * 1e6

    l6, l40 = _block_layers(6), _block_layers(40)
    m["channel.draw_ms_per_block.M6"] = l6["draw"] * 1e3
    m["channel.draw_ms_per_block.M40"] = l40["draw"] * 1e3
    m["channel.decode_ms_per_block.M6"] = l6["decode"] * 1e3
    m["channel.block_bytes_per_slot.M6"] = l6["bytes_per_slot"]
    m["beamform.gain_ms_per_block.M6"] = l6["gain"] * 1e3
    m["beamform.gain_ms_per_block.M40"] = l40["gain"] * 1e3

    seeds = iter(range(100))
    block = _median_s(lambda: estimate_outage(cfg6, BLOCK, seed=next(seeds)), 5)
    m["simulate.block_ms.M6"] = block * 1e3
    m["simulate.reduce_ms.M6"] = (block - l6["draw"] - l6["decode"] - l6["gain"]) * 1e3
    omega = (1.0 / 6,) * 6
    m["simulate.schedule_block_ms.M6"] = _median_s(
        lambda: estimate_schedule_throughput(cfg6, omega, BLOCK, seed=next(seeds)), 5) * 1e3

    pool = SystemConfig(**POOL_SLICE)
    t1 = _median_s(lambda: estimate_outage(pool, POOL_SLICE_TRIALS, seed=99, workers=1), 3)
    t2 = _median_s(lambda: estimate_outage(pool, POOL_SLICE_TRIALS, seed=99, workers=2), 3)
    m["simulate.pool_overhead_s"] = t2 - t1 / 2
    m["simulate.scaling_eff"] = t1 / (2 * t2)
    return m


CLI_ROWS = {
    "cli.fig1_s": ["--experiment", "fig1"],
    "cli.fig2_s": ["--experiment", "fig2"],
    "cli.outage_curve_s": ["--experiment", "outage-curve"],
    "cli.dmt_s": ["--experiment", "dmt"],
    "cli.validate_s": ["--experiment", "validate"],
}


def cli_rows(out_dir: Path) -> dict:
    """One in-process `cogrelay.cli.main()` call per experiment, at its defaults."""
    m = {}
    for name, argv in CLI_ROWS.items():
        out = out_dir / f"{name}.csv"
        t0 = time.perf_counter()
        code = cli_main([*argv, "--out", str(out)])
        m[name] = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"cogrelay {' '.join(argv)} exited with {code}")
    return m


# ROADMAP re-anchor table (2 cores, numpy 2.4.6, scipy 1.17.1), in this
# benchmark's units, with why a figure may differ from the metric.
ROADMAP = {
    "analytic.case1_ms.M3": (4.0, ""),
    "analytic.case1_ms.M4": (9.0, ""),
    "analytic.case1_ms.M6": (50.0, ""),
    "analytic.case1_ms.M10": (130.0, ""),
    "analytic.case1_ms.M40": (2600.0, "a single repetition"),
    "analytic.case2_us.M4": (30.0, ""),
    "analytic.case2_us.M40": (1000.0, "ROADMAP rounds this row to 1 ms"),
    "channel.draw_ms_per_block.M6": (16.5, ""),
    "simulate.mslot_per_s": (0.71, "ROADMAP: one M = 6 block; here all workers=1 MC of "
                                   "mc-validate, M from 3 to 40, so larger blocks lower it"),
    "cli.fig1_s": (5.2, "ROADMAP times a separate `cogrelay` process, with interpreter "
                        "start-up and imports; here one in-process main() call"),
    "cli.fig2_s": (5.2, "ROADMAP includes process start-up; here in-process"),
    "cli.dmt_s": (3.6, "ROADMAP includes process start-up; here in-process"),
    "cli.outage_curve_s": (1.7, "ROADMAP includes process start-up (most of this row); "
                                "here in-process"),
    "cli.validate_s": (32.7, "ROADMAP ran 10^6 trials; here the default 10^5, so about "
                             "a tenth of the MC work"),
}


def roadmap_rows(metrics: dict) -> list:
    """(name, measured, roadmap, ratio, note) for every ROADMAP row.

    The note is kept for a ratio outside [0.67, 1.5], where the row differs.
    """
    rows = []
    for name, (base, note) in ROADMAP.items():
        value = metrics[name]
        ratio = value / base
        differs = not 0.67 <= ratio <= 1.5
        rows.append((name, value, base, ratio,
                     (note or "differs; machine load or a code change") if differs else ""))
    return rows
