"""Experiment driver.

Usage:
    cogrelay --experiment <name> [--config file.cfg] [--out file.csv] [--<key> <value> ...]
    cogrelay --help
    e.g. cogrelay --experiment validate --trials 200000 --seed 7 --workers 4 --out v.csv

Experiments: outage-curve, validate, dmt, qos-sweep, fig1, fig2; the output
defaults to <experiment>.csv.  Every config key (`trials`, `seed` and
`workers` among them) and its default live in one table, `_DEFAULTS`; a
value parses as the type of its default (`lambda_s` is a comma-separated
list).  A config file holds flat `key = value` lines (`#` starts a comment);
an argument `--key value`, the only form read, wins over the file.  Every CSV
starts with a `#` stamp line recording the resolved keys (for the
fixed-preset `fig1`, `fig2` and `validate`, only those they read, with seed
and trials) but not workers or the output path: a byte-identical file
certifies a reproduced run, and each stamp entry but `experiment` is a
config line.  `qos-sweep`, `fig1` and both `fig2` modes write the same QoS
columns, one `QosSolution` per operating point, feasible or not, from one
call of the QoS solver (`qos._solve(...)[0]`, or `search_zeta`).

Exit codes: 0 success, 1 validation failure (some |z| > 4), 2 bad argument
or config, 3 library error (a numerical or model failure such as an
unfittable DMT curve); 2 and 3 print one `cogrelay: ...` line on stderr.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import product
from math import inf, isfinite, nan, sqrt

import numpy as np

from .analytic import InvalidCase, outage_highsnr, outage_probability
from .beamform import DegenerateChannel
from .config import Case, SystemConfig, _as_index
from .dmt import DegenerateFit, DiversitySource, analytic_dmt, empirical_diversity
from .qos import QosSolution, _solve, search_zeta
from .simulate import estimate_outage


class ConfigError(Exception):
    """Bad key, value, or combination in a config file or CLI override."""


# the library's own failures, reported with exit code 3
_LIBRARY_ERRORS = (DegenerateChannel, DegenerateFit, InvalidCase)


# every recognized config key with its default; a value parses as the type of
# its default, and case, zeta and lambda_p default as in SystemConfig
_DEFAULTS = {
    "M": 4,
    "gamma_p": 50.0,
    "gamma_s": 30.0,
    "R": 0.5,
    **{f.name: f.default for f in fields(SystemConfig)
       if f.name in ("case", "zeta", "lambda_p")},
    "lambda_s": (),          # comma-separated; empty means all-zero targets
    "k": 1,                  # tagged secondary user, 1-based
    "gamma_min": 1.0,
    "gamma_max": 1.0e4,
    "R_min": 0.0,
    "R_max": 1.5,
    "n_points": 31,
    "dmt_source": DiversitySource.CLOSED_FORM,
    "trials": 100_000,       # Monte Carlo slots per point
    "seed": 0,
    "workers": 1,            # the one key no stamp records
}


@dataclass
class ExperimentSpec:
    name: str
    cfg: SystemConfig
    output_path: str


def _set(values: dict, key: str, raw: str, where: str) -> None:
    """Parse raw as the type of key's default and store it in values."""
    if key not in _DEFAULTS:
        raise ConfigError(f"{where}: unknown key '{key}'")
    try:
        if key == "lambda_s":
            values[key] = tuple(float(t) for t in raw.split(",")) if raw.strip() else ()
        else:
            values[key] = type(_DEFAULTS[key])(raw)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"{where}: invalid value for '{key}': {raw!r} ({err})") from None


def parse_config_file(path: str) -> dict:
    """Read a flat key=value config file, diagnosing errors by line number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        _set(out, key, raw, f"{path}:{lineno}")
    return out


def _fmt(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _stamp(spec: ExperimentSpec, values: dict, keys: tuple) -> str:
    entries = {**{k: values[k] for k in keys}, "experiment": spec.name}
    return "# " + " ".join(f"{k}={_fmt(entries[k])}" for k in sorted(entries))


_QOS_HEADER = "lambda_k_max,feasible,omega,zeta"


def _qos_cols(sol: QosSolution) -> str:
    omega = ";".join(_fmt(w) for w in sol.omega)
    return f"{_fmt(sol.lambda_k_max)},{_fmt(sol.feasible)},{omega},{_fmt(sol.zeta)}"


def _rates(values: dict) -> list:
    return [float(R) for R in np.linspace(values["R_min"], values["R_max"], values["n_points"])]


def _fig_cfg(M: int, R: float, case: Case) -> SystemConfig:
    # a fixed preset, whatever the configured SNRs and targets: users 2..6 have
    # QoS targets; the tagged user 1 has none -- the sweep reports the maximum
    # it could get
    return SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=R, case=case, lambda_p=0.1,
                        lambda_s=(0.0, 0.1, 0.2, 0.1, 0.15, 0.1)[:M])


def _run_outage_curve(spec: ExperimentSpec, values: dict, lines: list) -> int:
    gammas = np.logspace(np.log10(values["gamma_min"]), np.log10(values["gamma_max"]),
                         values["n_points"])
    lines.append("gamma,nu_closed,nu_highsnr")
    for g in gammas:
        cfg_i = replace(spec.cfg, gamma_p=float(g))
        nu = outage_probability(cfg_i).nu
        hs = outage_highsnr(cfg_i)
        lines.append(f"{_fmt(float(g))},{_fmt(nu)},{_fmt(hs)}")
    return 0


# closed forms are validated on a fixed stress grid rather than at the single
# configured point; gamma_s and (for the no-direct-link case) zeta come from
# the grid as well, so only case, zeta, trials and seed matter here.
_VALIDATE_M = (3, 4, 6)
_VALIDATE_GAMMA = (10.0, 50.0, 200.0)
_VALIDATE_R = (0.25, 0.5, 1.0)
_VALIDATE_ZETA = (0.4, 0.5, 0.6)


def _run_validate(spec: ExperimentSpec, values: dict, lines: list) -> int:
    case, trials = spec.cfg.case, values["trials"]
    zetas = _VALIDATE_ZETA if case is Case.NO_DIRECT_LINK else (spec.cfg.zeta,)
    lines.append("case,M,gamma_p,gamma_s,R,zeta,nu_closed,p_hat,stderr,z_score")
    worst = 0.0
    grid = product(_VALIDATE_M, _VALIDATE_GAMMA, _VALIDATE_R, zetas)
    for row, (M, g, R, z) in enumerate(grid):
        cfg_i = SystemConfig(M=M, gamma_p=g, gamma_s=30.0, R=R, case=case, zeta=z)
        nu = outage_probability(cfg_i).nu
        est = estimate_outage(cfg_i, trials, seed=values["seed"] + row,
                              workers=values["workers"]).primary
        # test the sample against the closed form, so the stderr comes from
        # nu itself (the empirical one is degenerate whenever the observed
        # count is 0)
        stderr = sqrt(nu * (1.0 - nu) / trials)
        if stderr > 0.0:
            zscore = (est.p_hat - nu) / stderr
        else:
            zscore = 0.0 if est.p_hat == nu else inf
        worst = max(worst, abs(zscore))
        lines.append(",".join([
            case.value, str(M), _fmt(g), _fmt(30.0), _fmt(R), _fmt(z),
            _fmt(nu), _fmt(est.p_hat), _fmt(stderr), _fmt(zscore),
        ]))
    return 1 if worst > 4.0 else 0


def _run_dmt(spec: ExperimentSpec, values: dict, lines: list) -> int:
    n = values["n_points"]
    source = values["dmt_source"]
    if source is DiversitySource.MONTE_CARLO:
        grid = np.logspace(2, 4, 7)
    else:
        grid = np.logspace(2, 5, 7)
    lines.append("r,d_analytic,d_empirical")
    # the empirical fit needs r < r_max, so the curve's last point is dropped
    for i, (r, d_a) in enumerate(analytic_dmt(spec.cfg, n + 1).points[:-1]):
        d_e = empirical_diversity(spec.cfg, r, grid, source=source,
                                  seed=values["seed"] + i, workers=values["workers"])
        lines.append(f"{_fmt(r)},{_fmt(d_a)},{_fmt(d_e)}")
    return 0


def _run_qos_sweep(spec: ExperimentSpec, values: dict, lines: list) -> int:
    lines.append("R," + _QOS_HEADER)
    for R in _rates(values):
        sol = _solve(replace(spec.cfg, R=R), values["k"] - 1)[0]
        lines.append(f"{_fmt(R)},{_qos_cols(sol)}")
    return 0


def _run_fig1(spec: ExperimentSpec, values: dict, lines: list) -> int:
    lines.append("M,R," + _QOS_HEADER)
    for M in (4, 5, 6):
        for R in _rates(values):
            sol = _solve(_fig_cfg(M, R, Case.DIRECT_LINK), 0)[0]
            lines.append(f"{M},{_fmt(R)},{_qos_cols(sol)}")
    return 0


def _run_fig2(spec: ExperimentSpec, values: dict, lines: list) -> int:
    lines.append("M,R,zeta_mode," + _QOS_HEADER)
    for M in (4, 5, 6):
        for R in _rates(values):
            sol = search_zeta(_fig_cfg(M, R, Case.NO_DIRECT_LINK), 0)
            lines.append(f"{M},{_fmt(R)},best,{_qos_cols(sol)}")
    for R in _rates(values):   # fixed even split shown for the largest network
        sol = _solve(_fig_cfg(6, R, Case.NO_DIRECT_LINK), 0)[0]
        lines.append(f"6,{_fmt(R)},half,{_qos_cols(sol)}")
    return 0


# each experiment's runner and the keys its stamp records: every key but
# workers, or only the few that a fixed-preset experiment reads
_ALL_KEYS = tuple(k for k in _DEFAULTS if k != "workers")
_RATE_KEYS = ("R_min", "R_max", "n_points", "seed", "trials")
_RUNNERS = {
    "outage-curve": (_run_outage_curve, _ALL_KEYS),
    "validate": (_run_validate, ("case", "zeta", "seed", "trials")),
    "dmt": (_run_dmt, _ALL_KEYS),
    "qos-sweep": (_run_qos_sweep, _ALL_KEYS),
    "fig1": (_run_fig1, _RATE_KEYS),
    "fig2": (_run_fig2, _RATE_KEYS),
}


def run_experiment(spec: ExperimentSpec, values: dict) -> int:
    """Execute one experiment, write its CSV, return the process exit code.

    values is the resolved key table from build_spec: the runners read their
    sweep settings from it and the stamp records the keys listed in _RUNNERS.
    """
    runner, keys = _RUNNERS[spec.name]
    lines = [_stamp(spec, values, keys)]
    code = runner(spec, values, lines)
    try:
        with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise ConfigError(f"cannot write {spec.output_path}: {err}") from None
    return code


def build_spec(argv=None):
    """Parse argv, `--key value` pairs only, into (ExperimentSpec, resolved-config dict)."""
    argv = sys.argv[1:] if argv is None else argv
    opts, given = {}, {}     # command-line-only options; config-key overrides
    for i in range(0, len(argv), 2):
        tok = argv[i]
        if not tok.startswith("--") or len(tok) == 2:
            raise ConfigError(f"unexpected argument {tok!r}; arguments look like --key value")
        if i + 1 == len(argv):
            raise ConfigError(f"missing value for '{tok}'")
        if tok[2:] in ("experiment", "config", "out"):
            opts[tok[2:]] = argv[i + 1]
        else:
            _set(given, tok[2:], argv[i + 1], tok)
    name = opts.get("experiment")
    if name not in _RUNNERS:
        raise ConfigError(f"--experiment must be one of {', '.join(_RUNNERS)}; got {name!r}")
    values = dict(_DEFAULTS)
    if "config" in opts:
        values.update(parse_config_file(opts["config"]))
    values.update(given)

    cfg_args = {f.name: values[f.name] for f in fields(SystemConfig)}
    cfg_args["lambda_s"] = values["lambda_s"] or None
    try:
        _as_index("trials", values["trials"], 1)
        _as_index("workers", values["workers"], 1)
        _as_index("seed", values["seed"], 0, 2**64)
        cfg = SystemConfig(**cfg_args)
        _as_index("n_points", values["n_points"], 2)
        _as_index("k", values["k"], 1, cfg.M + 1)    # 1-based at the CLI
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if not all(isfinite(values[key]) for key in ("gamma_min", "gamma_max", "R_min", "R_max")):
        raise ConfigError("sweep ranges must be finite")
    if values["gamma_min"] <= 0 or values["gamma_max"] <= values["gamma_min"]:
        raise ConfigError("need 0 < gamma_min < gamma_max")
    if values["R_max"] < values["R_min"] or values["R_min"] < 0:
        raise ConfigError("need 0 <= R_min <= R_max")
    return ExperimentSpec(name, cfg, opts.get("out", f"{name}.csv")), values


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        return 0
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
