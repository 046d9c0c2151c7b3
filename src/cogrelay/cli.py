"""Experiment driver: `--key value` arguments in, one stamped CSV out.

Each experiment is a generator of plain value tuples, one per CSV row;
`_RUNNERS` gives its header and the keys its stamp records, and
`run_experiment` alone formats the cells, writes the file and picks the exit
code.  `_USAGE` is the `--help` text.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import product
from math import inf, isfinite, sqrt

import numpy as np

from .analytic import outage_highsnr, outage_probability
from .config import Case, SystemConfig, _as_index
from .dmt import DegenerateFit, DiversitySource, analytic_dmt, empirical_diversity
from .qos import QosSolution, _solve, search_zeta
from .simulate import _check_run, estimate_outage


class ConfigError(Exception):
    """Bad key, value, or combination in a config file or CLI override."""


class _HelpRequested(Exception):
    """`-h` or `--help` stood where an option name goes."""


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


def _fmt(value, sep: str = ",") -> str:
    """One stamp entry or CSV cell; a tuple's items are joined by sep."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return sep.join(_fmt(v) for v in value)
    return str(value)


def _stamp(spec: ExperimentSpec, values: dict, keys: tuple) -> str:
    # zeta as the config resolved it: a direct link reads 1/2, whatever was given
    resolved = {**values, "zeta": spec.cfg.zeta}
    entries = {**{k: resolved[k] for k in keys}, "experiment": spec.name}
    return "# " + " ".join(f"{k}={_fmt(entries[k])}" for k in sorted(entries))


_QOS_HEADER = "lambda_k_max,feasible,omega,zeta"


def _qos_cols(sol: QosSolution) -> tuple:
    return sol.lambda_k_max, sol.feasible, sol.omega, sol.zeta


def _rates(values: dict) -> list:
    return [float(R) for R in np.linspace(values["R_min"], values["R_max"], values["n_points"])]


def _fig_cfg(M: int, R: float, case: Case) -> SystemConfig:
    # a fixed preset, whatever the configured SNRs and targets: users 2..6 have
    # QoS targets; the tagged user 1 has none -- the sweep reports the maximum
    # it could get
    return SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=R, case=case, lambda_p=0.1,
                        lambda_s=(0.0, 0.1, 0.2, 0.1, 0.15, 0.1)[:M])


def _outage_curve(cfg: SystemConfig, values: dict):
    for g in np.logspace(np.log10(values["gamma_min"]), np.log10(values["gamma_max"]),
                         values["n_points"]):
        cfg_i = replace(cfg, gamma_p=float(g))
        yield float(g), outage_probability(cfg_i).nu, outage_highsnr(cfg_i)


def _row_key(values: dict, row: int) -> int:
    """The Philox key of Monte Carlo row `row`: seed + row * 2^64."""
    return values["seed"] + (row << 64)


# closed forms are validated on a fixed stress grid of M, gamma_p and R rather
# than at the single configured point; gamma_s and zeta (1/2 with a direct
# link) come from the grid as well, so only case, trials and seed matter here.
def _validate(cfg: SystemConfig, values: dict):
    trials = values["trials"]
    zetas = (0.4, 0.5, 0.6) if cfg.case is Case.NO_DIRECT_LINK else (0.5,)
    grid = product((3, 4, 6), (10.0, 50.0, 200.0), (0.25, 0.5, 1.0), zetas)
    for row, (M, g, R, z) in enumerate(grid):
        cfg_i = SystemConfig(M=M, gamma_p=g, gamma_s=30.0, R=R, case=cfg.case, zeta=z)
        nu = outage_probability(cfg_i).nu
        est = estimate_outage(cfg_i, trials, seed=_row_key(values, row),
                              workers=values["workers"]).primary
        # test the sample against the closed form, so the stderr comes from
        # nu itself (the empirical one is degenerate whenever the observed
        # count is 0)
        stderr = sqrt(nu * (1.0 - nu) / trials)
        if stderr > 0.0:
            zscore = (est.p_hat - nu) / stderr
        else:
            zscore = 0.0 if est.p_hat == nu else inf
        yield cfg.case, M, g, 30.0, R, z, nu, est.p_hat, stderr, zscore


def _dmt(cfg: SystemConfig, values: dict):
    source = values["dmt_source"]
    # the CLI's one Monte Carlo SNR limit, 10^4; the library bounds a Monte Carlo
    # fit only by its slot budget, raising DegenerateFit (exit 3) past it
    grid = np.logspace(2, 4 if source is DiversitySource.MONTE_CARLO else 5, 7)
    # the empirical fit needs r < r_max, so the curve's last point is dropped
    for i, (r, d_a) in enumerate(analytic_dmt(cfg, values["n_points"] + 1).points[:-1]):
        yield r, d_a, empirical_diversity(cfg, r, grid, source=source,
                                          seed=_row_key(values, i), workers=values["workers"])


def _qos_sweep(cfg: SystemConfig, values: dict):
    for R in _rates(values):
        yield (R, *_qos_cols(_solve(replace(cfg, R=R), values["k"] - 1)[0]))


def _fig1(cfg: SystemConfig, values: dict):
    for M, R in product((4, 5, 6), _rates(values)):
        yield (M, R, *_qos_cols(_solve(_fig_cfg(M, R, Case.DIRECT_LINK), 0)[0]))


def _fig2(cfg: SystemConfig, values: dict):
    for M, R in product((4, 5, 6), _rates(values)):
        yield (M, R, "best", *_qos_cols(search_zeta(_fig_cfg(M, R, Case.NO_DIRECT_LINK), 0)))
    for R in _rates(values):   # fixed even split shown for the largest network
        yield (6, R, "half", *_qos_cols(_solve(_fig_cfg(6, R, Case.NO_DIRECT_LINK), 0)[0]))


# each experiment's rows, CSV header and the keys its stamp records: every key
# but workers, or only the few that a fixed-preset experiment reads
_ALL_KEYS = tuple(k for k in _DEFAULTS if k != "workers")
_RATE_KEYS = ("R_min", "R_max", "n_points", "seed", "trials")
_RUNNERS = {
    "outage-curve": (_outage_curve, "gamma,nu_closed,nu_highsnr", _ALL_KEYS),
    "validate": (_validate, "case,M,gamma_p,gamma_s,R,zeta,nu_closed,p_hat,stderr,z_score",
                 ("case", "seed", "trials")),
    "dmt": (_dmt, "r,d_analytic,d_empirical", _ALL_KEYS),
    "qos-sweep": (_qos_sweep, "R," + _QOS_HEADER, _ALL_KEYS),
    "fig1": (_fig1, "M,R," + _QOS_HEADER, _RATE_KEYS),
    "fig2": (_fig2, "M,R,zeta_mode," + _QOS_HEADER, _RATE_KEYS),
}


_USAGE = f"""Usage:
    cogrelay --experiment <name> [--config file.cfg] [--out file.csv] [--<key> <value> ...]
    cogrelay --help
    e.g. cogrelay --experiment validate --trials 200000 --seed 7 --workers 4 --out v.csv

Experiments: {", ".join(_RUNNERS)}; the output defaults to
<experiment>.csv.  Every config key (`trials`, `seed` and `workers` among
them) and its default live in one table, `_DEFAULTS`; a value parses as the
type of its default (`lambda_s` is a comma-separated list).  A config file
holds flat `key = value` lines (`#` starts a comment); an argument
`--key value`, the only form read, wins over the file.  `-h` or `--help` in
place of an option name prints this text.  Every CSV starts with a `#` stamp
line recording the resolved keys (for the fixed-preset `fig1`, `fig2` and
`validate`, only those they read, with seed and trials) but not workers or
the output path: a byte-identical file certifies a reproduced run, and each
stamp entry but `experiment` is a config line.  `qos-sweep`, `fig1` and both
`fig2` modes write the same QoS columns, one `QosSolution` per operating
point, feasible or not, from one call of the QoS solver.

Exit codes: 0 success, 1 `validate` found some |z| > 4, 2 bad argument or
config, 3 library error (a numerical or model failure such as an unfittable
DMT curve); 2 and 3 print one `cogrelay: ...` line on stderr."""


def run_experiment(spec: ExperimentSpec, values: dict) -> int:
    """Execute one experiment, write its CSV, return the process exit code.

    values is the resolved key table from build_spec: the experiments read
    their sweep settings from it and the stamp records the keys listed in
    _RUNNERS.  Every row is computed before the file is opened, so a library
    error writes no CSV.  The code is 1 only when some `validate` row's
    z-score (its last column) exceeds 4 in magnitude.
    """
    rows_of, header, keys = _RUNNERS[spec.name]
    rows = list(rows_of(spec.cfg, values))
    lines = [_stamp(spec, values, keys), header]
    lines += (",".join(_fmt(v, ";") for v in row) for row in rows)
    try:
        with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise ConfigError(f"cannot write {spec.output_path}: {err}") from None
    return 1 if spec.name == "validate" and any(abs(row[-1]) > 4.0 for row in rows) else 0


def build_spec(argv=None):
    """Parse argv, `--key value` pairs only, into (ExperimentSpec, resolved-config dict).

    `-h` or `--help` is read only where an option name goes; it raises
    _HelpRequested, which main answers with the usage and exit 0.
    """
    argv = sys.argv[1:] if argv is None else argv
    opts, given = {}, {}     # command-line-only options; config-key overrides
    for i in range(0, len(argv), 2):
        tok = argv[i]
        if tok in ("-h", "--help"):
            raise _HelpRequested
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
        # a seed below 2^64 makes every row key seed + row * 2^64 distinct,
        # within a run and across runs at different seeds
        _as_index("seed", values["seed"], 0, 2**64)
        _check_run(values["trials"], values["seed"], values["workers"])
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
    try:
        spec, values = build_spec(argv)
        return run_experiment(spec, values)
    except _HelpRequested:
        try:
            print(_USAGE, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe (`| head -1`): drop the rest, so the
            # flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConfigError as err:
        print(f"cogrelay: {err}", file=sys.stderr)
        return 2
    except DegenerateFit as err:     # the one library error a CLI path can raise
        print(f"cogrelay: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
