"""Measurement loop, metrics and report of the cogrelay benchmark.

End-to-end run (`--trace 0`): one caller issues the workload's ops back to
back (a closed loop), pass after pass, until `--seconds` have gone by;
every result is checked as it arrives.  Set-up is timed afterwards in
fresh processes.  Every time it reports is rescaled to a nominal host speed
with the reference kernel of `hostspeed`; the unscaled times are printed
beside them.

Traced run (`--trace 1`): one untraced and one traced pass of the chosen
workload (their difference is the tracing overhead), one traced pass of
each other workload (so that every layer metric is defined whatever the
workload), the fixed-input layer probes and the CLI rows.  The spans go to
a sidecar file under `perfbench/out/`.
"""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import ops
import probes
from hostspeed import NEIGHBOURS, NOMINAL_S, Speedometer
from tracing import Tracer, layer_self

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_RUNS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.replace_us": "us",
    **{f"analytic.case1_ms.M{M}": "ms" for M in (3, 4, 6, 10, 40)},
    "analytic.case1_busy_s": "s",
    "analytic.case1_failed": "count",
    "analytic.case2_us.M4": "us",
    "analytic.case2_us.M40": "us",
    "analytic.case2_busy_s": "s",
    "analytic.highsnr_us": "us",
    "qos.assign_ms_p50": "ms",
    "qos.assign_to_outage_ratio": "ratio",
    "qos.search_zeta_ms_p50": "ms",
    "qos.search_to_outage_ratio": "ratio",
    "qos.search_zeta_self_s": "s",
    "dmt.fit_ms_p50": "ms",
    "channel.draw_ms_per_block.M6": "ms",
    "channel.draw_ms_per_block.M40": "ms",
    "channel.decode_ms_per_block.M6": "ms",
    "channel.block_bytes_per_slot.M6": "B",
    "beamform.gain_ms_per_block.M6": "ms",
    "beamform.gain_ms_per_block.M40": "ms",
    "simulate.block_ms.M6": "ms",
    "simulate.reduce_ms.M6": "ms",
    "simulate.schedule_block_ms.M6": "ms",
    "simulate.slots": "count",
    "simulate.mslot_per_s": "Mslot/s",
    "simulate.pool_overhead_s": "s",
    "simulate.scaling_eff": "ratio",
    **{name: "s" for name in probes.CLI_ROWS},
    "share.case1.direct-sweep": "ratio",
    "share.case1.nodirect-sweep": "ratio",
    "share.simulate.nodirect-sweep": "ratio",
    "share.simulate.mc-validate": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    """One run through a workload's op list."""

    wall_s: float                                    # unscaled
    latencies: list = field(default_factory=list)    # seconds, one per op, rescaled
    raw: list = field(default_factory=list)          # seconds, one per op, unscaled
    failures: list = field(default_factory=list)     # (op, reasons)
    wrong: int = 0                                   # ops failing a deterministic check


def run_pass(op_list, golden: dict, tr: Tracer, execute=ops.execute,
             speed: Speedometer | None = None) -> Pass:
    """Run every op once; a raising or wrong op is counted and the pass goes on.

    With `speed`, reference samples are taken between ops and each op's
    latency is rescaled by its local speed factor; without, latencies are
    unscaled.
    """
    result = Pass(wall_s=0.0)
    replay0 = tr.replay_s
    spent0 = speed.spent if speed else 0.0
    intervals = []
    start = time.perf_counter()
    for op in op_list:
        if speed:
            speed.tick()
        t0 = time.perf_counter()
        try:
            out = execute(op, tr)
        except Exception as err:     # any library error is a failed op, not a crash
            intervals.append((t0, time.perf_counter()))
            result.failures.append((op, [f"raised {type(err).__name__}: {err}"]))
        else:
            intervals.append((t0, time.perf_counter()))
            wrong, missed = ops.check(op, out, golden)
            if wrong or missed:
                result.failures.append((op, wrong + missed))
                result.wrong += bool(wrong)
        tr.flush_replays()
    if speed:
        speed.sample(NEIGHBOURS)    # the samples after the last op
    result.wall_s = (time.perf_counter() - start - (tr.replay_s - replay0)
                     - (speed.spent - spent0 if speed else 0.0))
    result.raw = [t1 - t0 for t0, t1 in intervals]
    result.latencies = ([(t1 - t0) * speed.factor(t0, t1) for t0, t1 in intervals]
                        if speed else result.raw)
    return result


def _warm_up(workload: str) -> None:
    ops.execute(ops.warmup_op(workload), Tracer(False))


def setup_seconds(workload: str, speed: Speedometer) -> tuple:
    """(rescaled, unscaled) wall times of fresh processes that import cogrelay
    and run one warm-up op; reference samples are taken around each."""
    code = (f"import sys; sys.path[:0] = {[str(SRC), str(BENCH)]!r}; import harness; "
            f"harness._warm_up({workload!r})")
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        speed.sample(NEIGHBOURS)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        speed.sample(NEIGHBOURS)
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * speed.factor(t0, t1))
    return scaled, raw


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def op_latencies(per_pass: list) -> list:
    """Each op's median latency across the passes.

    `per_pass` holds one list of op latencies per pass.  Host noise on a
    shared machine comes in bursts of a few seconds; a per-op median across
    passes drops a burst that hit one pass.
    """
    return [statistics.median(times) for times in zip(*per_pass)]


def _percentile_ms(latencies: list, q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def _times(per_pass: list, setup: list) -> dict:
    latencies = op_latencies(per_pass)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": math.fsum(latencies),
        "op_ms_p50": _percentile_ms(latencies, 50),
        "op_ms_p90": _percentile_ms(latencies, 90),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    """(metrics, unscaled times, passes, speedometer) of an untraced run."""
    golden = ops.load_golden()
    op_list = ops.generate(workload, seed)
    tr = Tracer(False)
    speed = Speedometer()
    _warm_up(workload)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(op_list, golden, tr, speed=speed))
    rss = peak_rss_mb()
    setup, setup_raw = setup_seconds(workload, speed)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        **_times([p.latencies for p in passes], setup),
        "success_rate": 1.0 - failed / sum(len(p.latencies) for p in passes),
        "peak_rss_mb": rss,
    }
    raw = _times([p.raw for p in passes], setup_raw)
    return metrics, raw, passes, speed


# --- traced run ---------------------------------------------------------------


def _durations(tr: Tracer, name: str) -> list:
    return [end - start for n, start, end, *_ in tr.spans if n == name]


def _ratio_to_outage(tr: Tracer, span_name: str, outage: str, parent_op: bool) -> list:
    """Span time (or its op's time) over one replayed closed-form evaluation."""
    ratios = []
    for index, replayed, seconds, calls in tr.replays:
        name, start, end, parent, *_ = tr.spans[index]
        if replayed != outage or name != span_name:
            continue
        if parent_op:
            _, start, end, *_ = tr.spans[parent]
        ratios.append((end - start) / (seconds / calls))
    return ratios


def _layer_metrics(traced: dict, walls: dict, op_lists: dict) -> dict:
    """Per-layer metrics read from the traced pass of each workload."""
    d, n, mc = traced["direct-sweep"], traced["nodirect-sweep"], traced["mc-validate"]
    d_names, n_names = d.by_name(), n.by_name()
    fig1_rows = _durations(d, "op.qos_row")
    m = {
        "analytic.case1_busy_s": d_names["analytic.case1_outage"]["busy_s"],
        "analytic.case1_failed": d_names["analytic.case1_outage"]["failed"],
        "analytic.case2_busy_s": n_names["analytic.case2_outage"]["busy_s"],
        "qos.assign_ms_p50": statistics.median(fig1_rows) * 1e3,
        "qos.assign_to_outage_ratio": statistics.median(
            _ratio_to_outage(d, "qos.max_lambda_k", "analytic.case1_outage", parent_op=True)),
        "qos.search_zeta_ms_p50": statistics.median(_durations(n, "qos.search_zeta")) * 1e3,
        "qos.search_to_outage_ratio": statistics.median(
            _ratio_to_outage(n, "qos.search_zeta", "analytic.case2_outage", parent_op=False)),
        "qos.search_zeta_self_s": n_names["qos.search_zeta"]["self_s"],
        "dmt.fit_ms_p50": statistics.median(_durations(d, "dmt.empirical_diversity")) * 1e3,
    }
    mc_ops = op_lists["mc-validate"]
    m["simulate.slots"] = sum(ops.slots(op) for op in mc_ops)
    busy = slots = 0
    for name, start, end, _, op_id, _ in mc.spans:
        if name.startswith("simulate.") and mc_ops[op_id]["workers"] == 1:
            busy += end - start
            slots += ops.slots(mc_ops[op_id])
    m["simulate.mslot_per_s"] = slots / busy / 1e6
    for workload, tr in traced.items():
        table = tr.by_name()
        total = walls[workload]
        case1 = table.get("analytic.case1_outage", {}).get("self_s", 0.0)
        sim = layer_self(table).get("simulate", 0.0)
        if workload != "mc-validate":
            m[f"share.case1.{workload}"] = case1 / total
        if workload != "direct-sweep":
            m[f"share.simulate.{workload}"] = sim / total
    return m


def _pass_record(tr: Tracer, result: Pass) -> dict:
    """A traced pass as the sidecar stores it; span times count from its first span."""
    t0 = tr.spans[0][1]
    table = tr.by_name()
    return {
        "wall_s": result.wall_s,
        "span_fields": ["name", "start_s", "end_s", "parent", "op_id", "error"],
        "spans": [[name, start - t0, end - t0, parent, op_id, err]
                  for name, start, end, parent, op_id, err in tr.spans],
        "replay_fields": ["span", "name", "seconds", "calls"],
        "replays": [list(r) for r in tr.replays],
        "by_name": table,
        "layer_self_s": layer_self(table),
    }


def traced_run(workload: str, seed: int) -> tuple:
    """(per-layer metrics, traced pass of `workload`, sidecar dict)."""
    golden = ops.load_golden()
    op_lists = {w: ops.generate(w, seed) for w in ops.WORKLOADS}
    _warm_up(workload)
    untraced = run_pass(op_lists[workload], golden, Tracer(False))
    traced, passes = {}, {}
    for w in (workload, *(x for x in ops.WORKLOADS if x != workload)):
        _warm_up(w)
        tr = Tracer(True)
        passes[w] = run_pass(op_lists[w], golden, tr)
        traced[w] = tr
    m = _layer_metrics(traced, {w: p.wall_s for w, p in passes.items()}, op_lists)
    m["trace.overhead_s"] = passes[workload].wall_s - untraced.wall_s
    m.update(probes.layer_probes())
    OUT.mkdir(exist_ok=True)
    m.update(probes.cli_rows(OUT))
    sidecar = {
        "workload": workload,
        "untraced_wall_s": untraced.wall_s,
        "passes": {w: _pass_record(tr, passes[w]) for w, tr in traced.items()},
    }
    return m, passes[workload], sidecar


# --- report ---------------------------------------------------------------------


def _print_failures(passes: list) -> None:
    """Each distinct failing op once, with its reasons, from the first pass."""
    for op, reasons in passes[0].failures:
        print(f"  failed op {op.id} {op.kind} {dict(op.params)}: {'; '.join(reasons)}")


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    host = host_facts(seed)
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("host " + json.dumps(host, sort_keys=True))
    if trace:
        values, main_pass, sidecar = traced_run(workload, seed)
        passes, units = [main_pass], PER_LAYER
        print("per-layer metrics (traced run):")
        for name, unit in units.items():
            print(f"  {name} = {values[name]!r} {unit}")
        print("ROADMAP re-anchor table vs this run (measured, ROADMAP, ratio, note):")
        rows = probes.roadmap_rows(values)
        for name, value, base, ratio, note in rows:
            print(f"  {name}: {value:.4g} vs {base:.4g} (x{ratio:.2f}) {note}")
        for w, p in sidecar["passes"].items():
            shares = {k: round(v / p["wall_s"], 4) for k, v in p["layer_self_s"].items()}
            print(f"  layer self-time share on {w}: {shares}")
        sidecar.update(host=host, metrics=values, roadmap=rows)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps(sidecar, default=float))
        print(f"spans written to {path.relative_to(BENCH.parent)}")
    else:
        values, raw, passes, speed = end_to_end(workload, seed, seconds)
        units = END_TO_END
        factors = statistics.quantiles([NOMINAL_S / t for t in speed.took], n=4)
        print(f"end-to-end metrics ({len(passes)} passes of {len(passes[0].latencies)} ops, "
              f"closed loop, one caller; unscaled pass times "
              f"{', '.join(f'{p.wall_s:.3f}' for p in passes)} s; host speed factor "
              f"quartiles {', '.join(f'{f:.3f}' for f in factors)} over "
              f"{len(speed.took)} reference samples):")
        for name, unit in units.items():
            note = (f" (n={len(passes[0].latencies)} op latencies, each the median of "
                    f"{len(passes)} passes)" if name.startswith("op_ms") else "")
            note = f" (median of {SETUP_RUNS} fresh processes)" if name == "setup_s" else note
            note += f"; unscaled {raw[name]!r}" if name in raw else ""
            print(f"  {name} = {values[name]!r} {unit}{note}")
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"error_rate = {failed / attempted!r} ({failed} failed of {attempted} attempted)")
    _print_failures(passes)
    print(json.dumps({
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0
