"""Seeded operations of the three benchmark workloads and their checks.

An operation (op) is the library work behind one CSV row of the matching
CLI experiment.  `generate(workload, seed)` builds the op list from the
seed alone; `execute(op, tracer)` makes the library calls, each inside a
tracer span named after the public function; `check(op, result, golden)`
returns the reasons the result fails its checks (empty when it passes).

Importing this module needs `src/` of the checkout on `sys.path`.
"""
from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from cogrelay import (Case, PrimaryInfeasible, QuadratureFailure,
                      SecondaryInfeasible, SystemConfig, case1_outage, case2_outage,
                      empirical_diversity, estimate_outage,
                      estimate_schedule_throughput, max_lambda_k,
                      outage_highsnr, search_zeta, secondary_success_prob,
                      solve_assignment)

WORKLOADS = ("direct-sweep", "nodirect-sweep", "mc-validate")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
# the library's own quadrature tolerance
GOLDEN_RTOL = 1e-8
# the CLI `validate` gate, applied per op
Z_GATE = 4.0

# presets shared with the CLI experiments (fig1/fig2 rows, validate grid)
FIG_LAMBDAS = (0.1, 0.2, 0.1, 0.15, 0.1)
FIG_RATES = tuple(float(r) for r in np.linspace(0.0, 1.5, 31))
VALIDATE_M = (3, 4, 6)
VALIDATE_GAMMA = (10.0, 50.0, 200.0)
VALIDATE_R = (0.25, 0.5, 1.0)
VALIDATE_ZETA = (0.4, 0.5, 0.6)
VALIDATE_TRIALS = 2 * 16384
DMT_GRID = tuple(float(g) for g in np.logspace(2, 5, 7))
# the multiplexing gains of `cogrelay --experiment dmt` at its defaults
DMT_RS = tuple(float(r) for r in np.linspace(0.0, 0.5, 32)[:-1])
# configs that end in QuadratureFailure at the commit that defined the benchmark
KNOWN_FAILING_M = (3, 4, 6)
# seeded outage-curve points per M, weighted toward 3..6.  Large M is a
# fixed point instead: one seeded M = 40 point costs 0.04 to 5 s depending on
# (gamma_p, gamma_s, R), which alone moved the pass time by +-20% across seeds.
OUTAGE_POINT_M = {3: 10, 4: 10, 5: 8, 6: 8, 8: 4, 10: 2}
LARGE_M = (16, 40)
QOS_SCENARIO_M = (3, 4, 5, 6, 7, 8) * 6
SLICE_M = (10, 20, 30, 40, 40, 40)
SCHEDULE_M = (3, 4, 5, 6, 7, 8) * 3
# the fixed slice also run on a two-process pool
POOL_SLICE = dict(M=40, gamma_p=50.0, gamma_s=30.0, R=0.5, case="nodirect")
POOL_SLICE_TRIALS = 8 * 16384


@dataclass(frozen=True)
class Op:
    id: int
    kind: str
    params: tuple          # sorted (name, value) pairs
    golden: str | None = None

    def __getitem__(self, key):
        return dict(self.params)[key]


def _op(ops: list, kind: str, golden: str | None = None, **params) -> None:
    ops.append(Op(len(ops), kind, tuple(sorted(params.items())), golden))


def _strata(rng: random.Random, n: int) -> list:
    """n uniforms on [0, 1), one in each of n equal strata, in random order."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _log_range(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def fig_cfg(M: int, R: float, case: Case, zeta: float = 0.5) -> SystemConfig:
    """The operating point of the CLI fig1/fig2 experiments."""
    return SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=R, case=case, zeta=zeta,
                        lambda_p=0.1, lambda_s=(0.0,) + FIG_LAMBDAS[:M - 1])


def _direct_sweep(rng: random.Random) -> list:
    ops = []
    for M in (4, 5, 6):
        for R in FIG_RATES:
            _op(ops, "qos_row", f"fig1/M={M}/R={R!r}", M=M, R=R, case="direct")
    for g in np.logspace(0.0, 4.0, 31):       # `outage-curve` at its defaults
        _op(ops, "outage_point", f"curve/gamma_p={float(g)!r}",
            M=4, gamma_p=float(g), gamma_s=30.0, R=0.5)
    for M in KNOWN_FAILING_M:
        _op(ops, "outage_point", M=M, gamma_p=1.0, gamma_s=1.0e4, R=1.5)
    for M in LARGE_M:
        _op(ops, "outage_point", f"large/M={M}", M=M, gamma_p=50.0, gamma_s=30.0, R=0.5)
    for M, n in OUTAGE_POINT_M.items():
        # stratified within each M, so every M sees the whole parameter range
        for up, us, ur in zip(_strata(rng, n), _strata(rng, n), _strata(rng, n)):
            _op(ops, "outage_point", M=M, gamma_p=_log_range(up, 1.0, 1.0e8),
                gamma_s=_log_range(us, 1.0e-2, 1.0e4), R=1.5 * ur)
    for r in DMT_RS:
        _op(ops, "dmt_fit", f"dmt/r={r!r}", M=4, r=r)
    return ops


def _nodirect_sweep(rng: random.Random) -> list:
    ops = []
    for M in (4, 5, 6):
        for R in FIG_RATES:
            _op(ops, "zeta_search", f"fig2/M={M}/R={R!r}", M=M, R=R, lambda_p=0.1,
                lambda_s=(0.0,) + FIG_LAMBDAS[:M - 1])
    for R in FIG_RATES:
        _op(ops, "qos_row", f"fig2-half/R={R!r}", M=6, R=R, case="nodirect")
    n = len(QOS_SCENARIO_M)
    for M, ur, up in zip(QOS_SCENARIO_M, _strata(rng, n), _strata(rng, n)):
        lam = tuple(round(rng.uniform(0.0, 1.2 / M), 12) for _ in range(M - 1))
        _op(ops, "zeta_search", M=M, R=1.5 * ur, lambda_p=0.9 * up, lambda_s=(0.0,) + lam)
    return ops


def _mc_validate(rng: random.Random) -> list:
    ops = []
    row = 0
    for case in ("direct", "nodirect"):
        zetas = VALIDATE_ZETA if case == "nodirect" else (0.5,)
        for M in VALIDATE_M:
            for g in VALIDATE_GAMMA:
                for R in VALIDATE_R:
                    for z in zetas:
                        # fixed MC seeds, as `cogrelay --experiment validate --seed 0`
                        _op(ops, "mc_outage", f"validate/{case}/M={M}/g={g!r}/R={R!r}/z={z!r}",
                            M=M, gamma_p=g, gamma_s=30.0, R=R, case=case, zeta=z,
                            trials=VALIDATE_TRIALS, mc_seed=row, workers=1)
                        row += 1
    n = len(SLICE_M)
    for M, up, ur, uz in zip(SLICE_M, _strata(rng, n), _strata(rng, n), _strata(rng, n)):
        _op(ops, "mc_outage", M=M, gamma_p=_log_range(up, 1.0, 1.0e3), gamma_s=30.0,
            R=1.5 * ur, case="nodirect", zeta=0.3 + 0.4 * uz, trials=16384,
            mc_seed=rng.randrange(2**31), workers=1)
    for M in SCHEDULE_M:
        cfg = None
        while cfg is None:        # draw targets until the assignment is feasible
            lam = tuple(rng.uniform(0.0, 1.2 / M) for _ in range(M))
            trial = SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=rng.uniform(0.0, 1.0),
                                 case=Case.NO_DIRECT_LINK, lambda_p=rng.uniform(0.0, 0.5),
                                 lambda_s=lam)
            try:
                omega = solve_assignment(trial, rng.randrange(M)).omega
            except (PrimaryInfeasible, SecondaryInfeasible):
                continue
            cfg = trial
        _op(ops, "mc_schedule", M=M, R=cfg.R, lambda_p=cfg.lambda_p, lambda_s=cfg.lambda_s,
            omega=omega, f=secondary_success_prob(cfg), trials=16384,
            mc_seed=rng.randrange(2**31), workers=1)
    for workers in (1, 2):
        _op(ops, "mc_outage", **POOL_SLICE, zeta=0.5, trials=POOL_SLICE_TRIALS,
            mc_seed=99, workers=workers)
    return ops


_GENERATORS = {"direct-sweep": _direct_sweep, "nodirect-sweep": _nodirect_sweep,
               "mc-validate": _mc_validate}


def generate(workload: str, seed: int) -> list:
    """The op list of a workload; the same seed gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))


# --- execution --------------------------------------------------------------


def _cfg(op: Op) -> SystemConfig:
    p = dict(op.params)
    case = Case(p.get("case", "direct"))
    if op.kind == "qos_row":
        return fig_cfg(p["M"], p["R"], case)
    if op.kind == "zeta_search" or op.kind == "mc_schedule":
        return SystemConfig(M=p["M"], gamma_p=50.0, gamma_s=30.0, R=p["R"],
                            case=Case.NO_DIRECT_LINK, lambda_p=p["lambda_p"],
                            lambda_s=p["lambda_s"])
    if op.kind == "dmt_fit":
        return SystemConfig(M=p["M"], gamma_p=50.0, gamma_s=30.0, R=0.5)
    return SystemConfig(M=p["M"], gamma_p=p["gamma_p"], gamma_s=p["gamma_s"], R=p["R"],
                        case=case, zeta=p.get("zeta", 0.5))


def _outage(cfg: SystemConfig, tr):
    if cfg.case is Case.DIRECT_LINK:
        with tr.span("analytic.case1_outage"):
            return case1_outage(cfg)
    with tr.span("analytic.case2_outage"):
        return case2_outage(cfg)


def _replay_outage(cfg: SystemConfig) -> dict:
    """Time the closed form that a qos or dmt call evaluates inside the library."""
    direct = cfg.case is Case.DIRECT_LINK
    t0 = time.perf_counter()
    try:
        (case1_outage if direct else case2_outage)(cfg)
    except QuadratureFailure:
        pass                  # the op itself counts the failure; this only times it
    seconds = time.perf_counter() - t0
    return {"analytic.case1_outage" if direct else "analytic.case2_outage": (seconds, 1)}


def _run_qos_row(op: Op, tr):
    """`max_lambda_k` then `solve_assignment`, as one row of fig1/fig2/qos-sweep."""
    cfg = _cfg(op)
    try:
        with tr.span("qos.max_lambda_k") as sid:
            tr.replay(sid, _replay_outage, cfg)
            lam_max = max_lambda_k(cfg, 0)
    except PrimaryInfeasible:
        return 0.0, False, None
    try:
        with tr.span("qos.solve_assignment") as sid:
            tr.replay(sid, _replay_outage, cfg)
            sol = solve_assignment(cfg, 0)
    except SecondaryInfeasible:
        return lam_max, False, None
    return lam_max, True, sol.omega


def _run_outage_point(op: Op, tr):
    cfg = _cfg(op)
    out = _outage(cfg, tr)
    with tr.span("analytic.outage_highsnr"):
        hs = outage_highsnr(cfg)
    return out, hs


def _replay_dmt(cfg: SystemConfig, r: float) -> dict:
    """The grid points `empirical_diversity` evaluates, each replace + closed form."""
    t_replace = t_outage = 0.0
    for g in DMT_GRID:
        t0 = time.perf_counter()
        cfg_i = replace(cfg, gamma_p=g, R=cfg.R if r == 0.0 else r * math.log2(g))
        t_replace += time.perf_counter() - t0
        (seconds, _), = _replay_outage(cfg_i).values()
        t_outage += seconds
    n = len(DMT_GRID)
    return {"config.replace": (t_replace, n), "analytic.case1_outage": (t_outage, n)}


def _run_dmt_fit(op: Op, tr):
    cfg = _cfg(op)
    with tr.span("dmt.empirical_diversity") as sid:
        tr.replay(sid, _replay_dmt, cfg, op["r"])
        return empirical_diversity(cfg, op["r"], DMT_GRID)


def _replay_search(cfg: SystemConfig) -> dict:
    """The 999 slot splits `search_zeta` evaluates, each replace + case-2 outage."""
    t_replace = t_outage = 0.0
    for i in range(1, 1000):
        t0 = time.perf_counter()
        cfg_i = replace(cfg, zeta=i / 1000)
        t1 = time.perf_counter()
        case2_outage(cfg_i)
        t_replace += t1 - t0
        t_outage += time.perf_counter() - t1
    return {"config.replace": (t_replace, 999), "analytic.case2_outage": (t_outage, 999)}


def _run_zeta_search(op: Op, tr):
    cfg = _cfg(op)
    with tr.span("qos.search_zeta") as sid:
        tr.replay(sid, _replay_search, cfg)
        return search_zeta(cfg, 0)


def _run_mc_outage(op: Op, tr):
    cfg = _cfg(op)
    nu = _outage(cfg, tr)
    with tr.span("simulate.estimate_outage"):
        sim = estimate_outage(cfg, op["trials"], seed=op["mc_seed"], workers=op["workers"])
    return nu, sim


def _run_mc_schedule(op: Op, tr):
    cfg = _cfg(op)
    with tr.span("simulate.estimate_schedule_throughput"):
        return estimate_schedule_throughput(cfg, op["omega"], op["trials"], seed=op["mc_seed"])


_RUNNERS = {"qos_row": _run_qos_row, "outage_point": _run_outage_point,
            "dmt_fit": _run_dmt_fit, "zeta_search": _run_zeta_search,
            "mc_outage": _run_mc_outage, "mc_schedule": _run_mc_schedule}


def execute(op: Op, tr):
    """Make the op's library calls; exceptions propagate to the caller."""
    with tr.span(f"op.{op.kind}", op_id=op.id):
        return _RUNNERS[op.kind](op, tr)


def slots(op: Op) -> int:
    """Monte Carlo slots an op simulates (0 for closed-form ops)."""
    return op["trials"] if op.kind.startswith("mc_") else 0


# --- checks -----------------------------------------------------------------


def _unit_interval(x) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def _check_breakdown(out, wrong: list) -> None:
    if not _unit_interval(out.nu):
        wrong.append(f"nu={out.nu!r} outside [0,1]")
    if not all(math.isfinite(x) and x >= 0.0 for x in (out.nu1, out.nu2)):
        wrong.append(f"nu1={out.nu1!r} nu2={out.nu2!r} not finite and >= 0")


def _check_omega(omega, wrong: list) -> None:
    if not all(_unit_interval(w) for w in omega):
        wrong.append(f"omega {omega!r} outside [0,1]")
    elif abs(math.fsum(omega) - 1.0) > 1e-9:
        wrong.append(f"omega sums to {math.fsum(omega)!r}")


def golden_values(op: Op, result) -> list:
    """The numbers of a result that the golden file records."""
    if op.kind == "qos_row":
        lam_max, ok, omega = result
        return [lam_max, float(ok), *(omega or ())]
    if op.kind == "outage_point":
        out, hs = result
        return [out.nu1, out.nu2, out.nu, hs]
    if op.kind == "zeta_search":
        return [result.lambda_k_max, float(result.feasible), result.zeta, result.slack,
                *result.omega]
    if op.kind == "mc_outage":
        out, _ = result
        return [out.nu1, out.nu2, out.nu]
    if op.kind == "dmt_fit":
        return [result]
    raise ValueError(f"no golden values for {op.kind}")


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= GOLDEN_RTOL * max(abs(a), abs(b))


def zscore(p_hat: float, nu: float, trials: int) -> float:
    """(p_hat - nu) / sqrt(nu (1 - nu) / trials), as the CLI `validate` computes it."""
    stderr = math.sqrt(nu * (1.0 - nu) / trials)
    if stderr > 0.0:
        return (p_hat - nu) / stderr
    return 0.0 if p_hat == nu else math.inf


def check(op: Op, result, golden: dict) -> tuple:
    """(wrong, missed) for one result; both empty when it passes.

    `wrong` lists failed deterministic checks: range, finiteness and golden
    values.  `missed` lists Monte Carlo estimates beyond the 4-sigma gate,
    which a correct program also shows by chance, at a small rate.
    """
    wrong, missed = [], []
    if op.kind == "qos_row":
        lam_max, ok, omega = result
        if not _unit_interval(lam_max):
            wrong.append(f"lambda_k_max={lam_max!r} outside [0,1]")
        if ok:
            _check_omega(omega, wrong)
    elif op.kind == "outage_point":
        out, hs = result
        _check_breakdown(out, wrong)
        if not (math.isfinite(hs) and hs >= 0.0):
            wrong.append(f"high-SNR outage {hs!r} not finite and >= 0")
    elif op.kind == "dmt_fit":
        if not math.isfinite(result):
            wrong.append(f"diversity {result!r} not finite")
    elif op.kind == "zeta_search":
        if result.feasible:
            if not (_unit_interval(result.lambda_k_max) and 0.0 < result.zeta < 1.0
                    and result.slack >= 0.0):
                wrong.append(f"feasible solution out of range: {result!r}")
            _check_omega(result.omega, wrong)
    elif op.kind == "mc_outage":
        out, sim = result
        _check_breakdown(out, wrong)
        p_hat = sim.primary.p_hat
        if not _unit_interval(p_hat):
            wrong.append(f"p_hat={p_hat!r} outside [0,1]")
        elif not wrong:
            z = zscore(p_hat, out.nu, op["trials"])
            if abs(z) > Z_GATE:
                missed.append(f"|z|={abs(z):.2f} > {Z_GATE} (nu={out.nu!r}, p_hat={p_hat!r})")
    elif op.kind == "mc_schedule":
        mu = np.asarray(result.mu_hat, dtype=float)
        if not np.all((mu >= 0.0) & (mu <= 1.0)):
            wrong.append(f"mu_hat {mu.tolist()!r} outside [0,1]")
        else:
            want = np.asarray(op["omega"]) * op["f"]
            sigma = np.sqrt(want * (1.0 - want) / op["trials"])
            bad = np.flatnonzero(np.abs(mu - want) > Z_GATE * sigma)
            if bad.size:
                missed.append(f"mu_hat of users {bad.tolist()} beyond {Z_GATE} sigma of omega*f")
    if op.golden is not None:
        want = golden.get(op.golden)
        got = golden_values(op, result)
        if want is None or len(want) != len(got) or not all(map(_close, got, want)):
            wrong.append(f"golden {op.golden}: got {got!r}, want {want!r}")
    return wrong, missed


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --- set-up probe -------------------------------------------------------------

_WARMUP = {
    "direct-sweep": dict(kind="outage_point", M=4, gamma_p=50.0, gamma_s=30.0, R=0.5),
    "nodirect-sweep": dict(kind="zeta_search", M=4, R=0.5, lambda_p=0.1,
                           lambda_s=(0.0,) + FIG_LAMBDAS[:3]),
    "mc-validate": dict(kind="mc_outage", M=6, gamma_p=50.0, gamma_s=30.0, R=0.5,
                        case="nodirect", zeta=0.5, trials=16384, mc_seed=0, workers=1),
}


def warmup_op(workload: str) -> Op:
    """The one op a fresh process runs to count as set up."""
    params = dict(_WARMUP[workload])
    kind = params.pop("kind")
    return Op(-1, kind, tuple(sorted(params.items())))
