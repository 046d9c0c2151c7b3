"""Experiment driver.

Usage:
    cogrelay --experiment outage-curve --config sweep.cfg --out curve.csv
    cogrelay --experiment validate --trials 200000 --seed 7 --workers 4 --out v.csv
    cogrelay --experiment qos-sweep --M 5 --lambda_s 0,0.1,0.2,0.1,0.15 --out q.csv

Config files are flat `key = value` lines; `#` starts a comment.  Any key can
also be overridden on the command line as `--key value`.  Every CSV starts
with a `#` stamp line recording the resolved configuration, seed and trial
count (but not workers or output path), so a byte-identical file certifies a
reproduced run.

Exit codes: 0 success, 1 validation failure (some |z| > 4), 2 bad config,
3 library error (a numerical or model failure such as an unfittable DMT
curve or a series that hits its term cap; one `cogrelay: ...` line on stderr,
no traceback).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from math import inf, isfinite, sqrt

import numpy as np

from .analytic import (InvalidCase, QuadratureFailure, SeriesNotConverged, outage_highsnr,
                       outage_probability)
from .beamform import DegenerateChannel
from .config import Case, SystemConfig
from .dmt import (DegenerateFit, DiversitySource, analytic_dmt, empirical_diversity,
                  multiplexing_limit)
from .qos import (PrimaryInfeasible, SecondaryInfeasible, max_lambda_k,
                  search_zeta, solve_assignment)
from .simulate import estimate_outage


class ConfigError(Exception):
    """Bad key, value, or combination in a config file or CLI override."""


# the library's own failures, reported with exit code 3
_LIBRARY_ERRORS = (DegenerateChannel, DegenerateFit, InvalidCase, QuadratureFailure,
                   SeriesNotConverged)


EXPERIMENTS = ("outage-curve", "validate", "dmt", "qos-sweep", "fig1", "fig2")

# every recognized config key with its default
_DEFAULTS = {
    "M": 4,
    "gamma_p": 50.0,
    "gamma_s": 30.0,
    "R": 0.5,
    "case": "direct",
    "zeta": 0.5,
    "lambda_p": 0.0,
    "lambda_s": "",          # comma-separated; empty means all-zero targets
    "k": 1,                  # tagged secondary user, 1-based
    "gamma_min": 1.0,
    "gamma_max": 1.0e4,
    "R_min": 0.0,
    "R_max": 1.5,
    "n_points": 31,
    "dmt_source": "closed_form",
}

_INT_KEYS = {"M", "k", "n_points"}
_FLOAT_KEYS = {"gamma_p", "gamma_s", "R", "zeta", "lambda_p",
               "gamma_min", "gamma_max", "R_min", "R_max"}

# QoS targets used by the fig1/fig2 experiments for users 2..6; the tagged
# user 1 has no own target -- the sweep reports the maximum it could get.
_FIG_LAMBDAS = (0.1, 0.2, 0.1, 0.15, 0.1)
_FIG_LAMBDA_P = 0.1
_FIG_GAMMA_P = 50.0
_FIG_GAMMA_S = 30.0


@dataclass
class ExperimentSpec:
    name: str
    cfg: SystemConfig
    sweep: dict      # sweep ranges + experiment extras (k is kept 1-based here)
    trials: int
    seed: int
    workers: int
    output_path: str


def _coerce(key: str, raw: str, where: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key == "case":
            return Case(raw).value
        if key == "lambda_s":
            raw = raw.strip()
            return tuple(float(t) for t in raw.split(",")) if raw else ""
        if key == "dmt_source":
            return DiversitySource(raw).value
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{where}: invalid value for '{key}': {raw!r} ({err})") from None
    raise ConfigError(f"{where}: unknown key '{key}'")


def parse_config_file(path: str) -> dict:
    """Read a flat key=value config file, diagnosing errors by line number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        out[key] = _coerce(key, raw, f"{path}:{lineno}")
    return out


def _overrides_from_args(extras: list) -> dict:
    out = {}
    i = 0
    while i < len(extras):
        tok = extras[i]
        if not tok.startswith("--") or len(tok) == 2:
            raise ConfigError(f"unexpected argument {tok!r}; overrides look like --key value")
        key = tok[2:]
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key '--{key}'")
        if i + 1 >= len(extras):
            raise ConfigError(f"missing value for '--{key}'")
        out[key] = _coerce(key, extras[i + 1], f"--{key}")
        i += 2
    return out


def _build_cfg(values: dict) -> SystemConfig:
    lam = values["lambda_s"]
    try:
        return SystemConfig(
            M=values["M"],
            gamma_p=values["gamma_p"],
            gamma_s=values["gamma_s"],
            R=values["R"],
            case=values["case"],
            zeta=values["zeta"],
            lambda_p=values["lambda_p"],
            lambda_s=lam if lam != "" else None,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _stamp(spec: ExperimentSpec, values: dict) -> str:
    entries = dict(values)
    entries["experiment"] = spec.name
    entries["seed"] = spec.seed
    entries["trials"] = spec.trials
    return "# " + " ".join(f"{k}={_fmt(entries[k])}" for k in sorted(entries))


def _qos_row(cfg: SystemConfig, k0: int):
    """(lambda_k_max, feasible, omega_str) for one operating point."""
    try:
        lam_max = max_lambda_k(cfg, k0)
    except PrimaryInfeasible:
        return 0.0, False, ";".join(["nan"] * cfg.M)
    try:
        sol = solve_assignment(cfg, k0)
    except SecondaryInfeasible:
        return lam_max, False, ";".join(["nan"] * cfg.M)
    return lam_max, True, ";".join(repr(float(w)) for w in sol.omega)


def _fig_cfg(M: int, R: float, case: Case, zeta: float) -> SystemConfig:
    return SystemConfig(M=M, gamma_p=_FIG_GAMMA_P, gamma_s=_FIG_GAMMA_S, R=R,
                        case=case, zeta=zeta, lambda_p=_FIG_LAMBDA_P,
                        lambda_s=(0.0,) + _FIG_LAMBDAS[:M - 1])


def _run_outage_curve(spec: ExperimentSpec, lines: list) -> int:
    sw = spec.sweep
    gammas = np.logspace(np.log10(sw["gamma_min"]), np.log10(sw["gamma_max"]),
                         sw["n_points"])
    lines.append("gamma,nu_closed,nu_highsnr")
    for g in gammas:
        cfg_i = replace(spec.cfg, gamma_p=float(g))
        nu = outage_probability(cfg_i).nu
        hs = outage_highsnr(cfg_i)
        lines.append(f"{_fmt(float(g))},{_fmt(nu)},{_fmt(hs)}")
    return 0


# closed forms are validated on a fixed stress grid rather than at the single
# configured point; gamma_s and (for the no-direct-link case) zeta come from
# the grid as well, so only case/trials/seed matter here.
_VALIDATE_M = (3, 4, 6)
_VALIDATE_GAMMA = (10.0, 50.0, 200.0)
_VALIDATE_R = (0.25, 0.5, 1.0)
_VALIDATE_ZETA = (0.4, 0.5, 0.6)


def _run_validate(spec: ExperimentSpec, lines: list) -> int:
    case = spec.cfg.case
    zetas = _VALIDATE_ZETA if case is Case.NO_DIRECT_LINK else (spec.cfg.zeta,)
    lines.append("case,M,gamma_p,gamma_s,R,zeta,nu_closed,p_hat,stderr,z_score")
    worst = 0.0
    row = 0
    for M in _VALIDATE_M:
        for g in _VALIDATE_GAMMA:
            for R in _VALIDATE_R:
                for z in zetas:
                    cfg_i = SystemConfig(M=M, gamma_p=g, gamma_s=30.0, R=R,
                                         case=case, zeta=z)
                    nu = outage_probability(cfg_i).nu
                    est = estimate_outage(cfg_i, spec.trials,
                                          seed=spec.seed + row,
                                          workers=spec.workers).primary
                    # test the sample against the closed form, so the stderr
                    # comes from nu itself (the empirical one is degenerate
                    # whenever the observed count is 0)
                    stderr = sqrt(nu * (1.0 - nu) / spec.trials)
                    if stderr > 0.0:
                        zscore = (est.p_hat - nu) / stderr
                    else:
                        zscore = 0.0 if est.p_hat == nu else inf
                    worst = max(worst, abs(zscore))
                    lines.append(",".join([
                        case.value, str(M), _fmt(g), _fmt(30.0), _fmt(R), _fmt(z),
                        _fmt(nu), _fmt(est.p_hat), _fmt(stderr), _fmt(zscore),
                    ]))
                    row += 1
    return 1 if worst > 4.0 else 0


def _run_dmt(spec: ExperimentSpec, lines: list) -> int:
    sw = spec.sweep
    n = sw["n_points"]
    source = DiversitySource(sw["dmt_source"])
    if source is DiversitySource.MONTE_CARLO:
        grid = np.logspace(2, 4, 7)
    else:
        grid = np.logspace(2, 5, 7)
    r_max = multiplexing_limit(spec.cfg)
    curve = dict(analytic_dmt(spec.cfg, n + 1).points)
    rs = np.linspace(0.0, r_max, n + 1)[:-1]   # empirical fit needs r < r_max
    lines.append("r,d_analytic,d_empirical")
    for i, r in enumerate(rs):
        d_a = curve[float(r)]
        d_e = empirical_diversity(spec.cfg, float(r), grid, source=source,
                                  seed=spec.seed + i, workers=spec.workers)
        lines.append(f"{_fmt(float(r))},{_fmt(d_a)},{_fmt(d_e)}")
    return 0


def _run_qos_sweep(spec: ExperimentSpec, lines: list) -> int:
    sw = spec.sweep
    k0 = sw["k"] - 1
    rates = np.linspace(sw["R_min"], sw["R_max"], sw["n_points"])
    lines.append("R,lambda_k_max,feasible,omega,zeta")
    for R in rates:
        cfg_i = replace(spec.cfg, R=float(R))
        lam_max, ok, omega = _qos_row(cfg_i, k0)
        lines.append(f"{_fmt(float(R))},{_fmt(lam_max)},{_fmt(ok)},{omega},{_fmt(cfg_i.zeta)}")
    return 0


def _run_fig1(spec: ExperimentSpec, lines: list) -> int:
    sw = spec.sweep
    rates = np.linspace(sw["R_min"], sw["R_max"], sw["n_points"])
    lines.append("M,R,lambda_k_max,feasible,omega,zeta")
    for M in (4, 5, 6):
        for R in rates:
            cfg_i = _fig_cfg(M, float(R), Case.DIRECT_LINK, 0.5)
            lam_max, ok, omega = _qos_row(cfg_i, 0)
            lines.append(f"{M},{_fmt(float(R))},{_fmt(lam_max)},{_fmt(ok)},{omega},{_fmt(0.5)}")
    return 0


def _run_fig2(spec: ExperimentSpec, lines: list) -> int:
    sw = spec.sweep
    rates = np.linspace(sw["R_min"], sw["R_max"], sw["n_points"])
    lines.append("M,R,zeta_mode,lambda_k_max,feasible,omega,zeta")
    for M in (4, 5, 6):
        for R in rates:
            cfg_i = _fig_cfg(M, float(R), Case.NO_DIRECT_LINK, 0.5)
            sol = search_zeta(cfg_i, 0)
            omega = ";".join(repr(float(w)) for w in sol.omega)
            lines.append(f"{M},{_fmt(float(R))},best,{_fmt(sol.lambda_k_max)},"
                         f"{_fmt(sol.feasible)},{omega},{_fmt(sol.zeta)}")
    for R in rates:   # fixed even split shown for the largest network
        cfg_i = _fig_cfg(6, float(R), Case.NO_DIRECT_LINK, 0.5)
        lam_max, ok, omega = _qos_row(cfg_i, 0)
        lines.append(f"6,{_fmt(float(R))},half,{_fmt(lam_max)},{_fmt(ok)},{omega},{_fmt(0.5)}")
    return 0


_RUNNERS = {
    "outage-curve": _run_outage_curve,
    "validate": _run_validate,
    "dmt": _run_dmt,
    "qos-sweep": _run_qos_sweep,
    "fig1": _run_fig1,
    "fig2": _run_fig2,
}


def run_experiment(spec: ExperimentSpec, values: dict | None = None) -> int:
    """Execute one experiment, write its CSV, return the process exit code."""
    if values is None:
        values = dict(_DEFAULTS)
    if spec.sweep.get("k", 1) - 1 >= spec.cfg.M or spec.sweep.get("k", 1) < 1:
        raise ConfigError(f"k={spec.sweep.get('k')} does not index a user of M={spec.cfg.M}")
    lines = [_stamp(spec, values)]
    code = _RUNNERS[spec.name](spec, lines)
    try:
        with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise ConfigError(f"cannot write {spec.output_path}: {err}") from None
    return code


def build_spec(argv=None):
    """Parse argv into (ExperimentSpec, resolved-config dict)."""
    parser = argparse.ArgumentParser(
        prog="cogrelay",
        description="Cooperative-relaying outage, DMT and QoS experiments.",
    )
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="output CSV (default <experiment>.csv)")
    args, extras = parser.parse_known_args(argv)

    values = dict(_DEFAULTS)
    if args.config is not None:
        values.update(parse_config_file(args.config))
    values.update(_overrides_from_args(extras))

    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")

    cfg = _build_cfg(values)
    sweep = {key: values[key] for key in
             ("gamma_min", "gamma_max", "R_min", "R_max", "n_points", "k", "dmt_source")}
    if not all(isfinite(sweep[key]) for key in ("gamma_min", "gamma_max", "R_min", "R_max")):
        raise ConfigError("sweep ranges must be finite")
    if sweep["n_points"] < 2:
        raise ConfigError("n_points must be >= 2")
    if sweep["gamma_min"] <= 0 or sweep["gamma_max"] <= sweep["gamma_min"]:
        raise ConfigError("need 0 < gamma_min < gamma_max")
    if sweep["R_max"] < sweep["R_min"] or sweep["R_min"] < 0:
        raise ConfigError("need 0 <= R_min <= R_max")
    spec = ExperimentSpec(
        name=args.experiment,
        cfg=cfg,
        sweep=sweep,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        output_path=args.out if args.out is not None else f"{args.experiment}.csv",
    )
    return spec, values


def main(argv=None) -> int:
    try:
        spec, values = build_spec(argv)
        return run_experiment(spec, values)
    except ConfigError as err:
        print(f"cogrelay: {err}", file=sys.stderr)
        return 2
    except _LIBRARY_ERRORS as err:
        print(f"cogrelay: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
