import ast
import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest itself depends on tomli
    import tomli as tomllib

import cogrelay
from cogrelay import SystemConfig, outage_highsnr, outage_probability
from cogrelay.cli import _DEFAULTS, ConfigError, build_spec, main, parse_config_file


def _run(tmp_path, *args):
    out = tmp_path / "out.csv"
    code = main([*args, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def _child_env():
    """os.environ with PYTHONPATH starting at the source tree this process imports."""
    src = str(Path(cogrelay.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


# ------------------------------------------------------------------ config handling

def test_config_file_parsing(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("# comment line\nM = 5\ngamma_p = 80  # inline comment\n"
                 "lambda_s = 0,0.1,0.2,0.1,0.15\ncase = nodirect\n")
    values = parse_config_file(str(p))
    assert values["M"] == 5
    assert values["gamma_p"] == 80.0
    assert values["lambda_s"] == (0.0, 0.1, 0.2, 0.1, 0.15)
    assert values["case"] == "nodirect"


def test_config_file_diagnostics(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("M = 4\n\nnot_a_key = 3\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_file(str(p))
    assert ":3:" in str(ei.value) and "not_a_key" in str(ei.value)

    p2 = tmp_path / "bad2.cfg"
    p2.write_text("M 4\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_file(str(p2))
    assert ":1:" in str(ei.value)

    p3 = tmp_path / "bad3.cfg"
    p3.write_text("gamma_p = fast\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_file(str(p3))
    assert "gamma_p" in str(ei.value)

    p4 = tmp_path / "bad4.cfg"     # not UTF-8: was a UnicodeDecodeError traceback, exit 1
    p4.write_bytes(b"M = 4\xff\n")
    with pytest.raises(ConfigError) as ei:
        parse_config_file(str(p4))
    assert str(p4) in str(ei.value)


@pytest.mark.parametrize("args", [
    ["--experiment", "outage-curve", "--M", "not_int"],
    ["--experiment", "outage-curve", "--bogus", "3"],
    ["--experiment", "outage-curve", "--M"],                 # missing value
    ["--experiment", "outage-curve", "--case", "sideways"],
    ["--experiment", "outage-curve", "--gamma_min", "50", "--gamma_max", "10"],
    ["--experiment", "outage-curve", "--n_points", "1"],
    ["--experiment", "qos-sweep", "--M", "3", "--k", "7"],   # k beyond M
    ["--experiment", "outage-curve", "--M", "1"],            # rejected by the model
    ["--experiment", "outage-curve", "--trials", "0"],
    ["--experiment", "validate", "--config", "/nonexistent/path.cfg"],
    ["--experiment", "outage-curve", "--M", "1025"],         # past the largest M
    ["--experiment", "outage-curve", "--case", "nodirect", "--M", "1025"],
    ["--experiment", "validate", "--seed", "-1"],              # was a numpy traceback, exit 1
    ["--experiment", "validate", "--seed", str(2**64)],
    [],                                                      # no --experiment
    ["--experiment", "nosuch"],
    ["--experiment", "outage-curve", "--trials", "abc"],
    ["--experiment", "validate", "--seed", "1.5"],
    ["--experiment", "validate", "--workers", "two"],
    ["--experiment", "outage-curve", "--M=3"],               # only --key value is read
    ["--experiment", "validate", "--config", "trials0.cfg"],
    ["--experiment", "validate", "--config", "latin1.cfg"],  # not UTF-8
])
def test_bad_inputs_exit_2(args, tmp_path, capsys, monkeypatch):
    # main returns 2, raising nothing, with one `cogrelay:` line on stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trials0.cfg").write_text("trials = 0\n")
    (tmp_path / "latin1.cfg").write_bytes(b"M = 4\xff\n")
    code = main([*args, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("cogrelay: ") and err.count("\n") == 1, err


_EXPERIMENTS = ("outage-curve", "validate", "dmt", "qos-sweep", "fig1", "fig2")


@pytest.mark.parametrize("args", ["-h", "--help", "--experiment fig1 --help"])
def test_help_exits_0_and_names_the_experiments(args, capsys):
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert "Usage:" in out
    assert all(name in out for name in _EXPERIMENTS)


def test_help_survives_stripped_docstrings():
    proc = subprocess.run([sys.executable, "-OO", "-m", "cogrelay.cli", "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "Usage:" in proc.stdout
    assert all(name in proc.stdout for name in _EXPERIMENTS)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_help_into_a_closed_pipe_ends_quietly(unbuffered):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "cogrelay.cli", "--help"],
                              stdout=w, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_help_flag_as_a_value_is_a_value(tmp_path, monkeypatch, capsys):
    # -h where a value goes is that value: here the output file's name
    monkeypatch.chdir(tmp_path)
    assert main(["--experiment", "outage-curve", "--n_points", "2", "--out", "-h"]) == 0
    assert "Usage:" not in capsys.readouterr().out
    assert (tmp_path / "-h").read_text().splitlines()[1] == "gamma,nu_closed,nu_highsnr"


@pytest.mark.parametrize("case", ["direct", "nodirect"])
def test_largest_m_exits_0(case, tmp_path):
    code, text = _run(tmp_path, "--experiment", "outage-curve", "--case", case,
                      "--M", "1024", "--n_points", "2")
    assert code == 0
    _, rows = _rows(text)
    assert len(rows) == 2 and all(0.0 <= float(r[1]) <= 1.0 for r in rows)


@pytest.mark.parametrize("args", [
    ["--gamma_p", "nan"],
    ["--R", "inf"],
    ["--M", "3.5"],
    ["--gamma_max", "inf"],
])
def test_non_finite_or_fractional_inputs_exit_2(args, tmp_path, capsys):
    code = main(["--experiment", "outage-curve", *args, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "cogrelay:" in capsys.readouterr().err


def test_library_error_exits_3_without_traceback(tmp_path):
    # R = 0 leaves the outage at 0 on the whole SNR grid: no diversity fit
    proc = subprocess.run(
        [sys.executable, "-m", "cogrelay.cli", "--experiment", "dmt", "--R", "0",
         "--out", str(tmp_path / "dmt.csv")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cogrelay: DegenerateFit") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "dmt.csv").exists()


def test_dmt_monte_carlo_beyond_budget_exits_3(tmp_path, capsys, monkeypatch):
    # the default grid would draw 8.9e12 slots; the budget stops it before any
    from test_dmt import _no_draws
    monkeypatch.setattr("cogrelay.dmt.estimate_outage", _no_draws)
    code, _ = _run(tmp_path, "--experiment", "dmt", "--dmt_source", "monte_carlo")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("cogrelay: DegenerateFit") and err.count("\n") == 1


def test_outage_curve_at_former_quadrature_failures(tmp_path):
    # gamma_s = 1e4, R = 1.5 once raised QuadratureFailure near gamma_p = 1
    for M in ("3", "4", "6"):
        code, text = _run(tmp_path, "--experiment", "outage-curve", "--gamma_s", "10000",
                          "--R", "1.5", "--M", M)
        assert code == 0, M
        _, rows = _rows(text)
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows), M


def test_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cogrelay; print(any(m == 'scipy' or m.startswith('scipy.')"
         " for m in sys.modules))"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_override_beats_config_file(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("M = 5\nR = 0.25\n")
    spec, values = build_spec(["--experiment", "outage-curve",
                               "--config", str(p), "--M", "6"])
    assert spec.cfg.M == 6          # CLI override wins
    assert spec.cfg.R == 0.25       # file survives where not overridden
    assert values["M"] == 6


def test_readme_keys_table_matches_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Keys:", 1)[1].split("\n\n", 2)[1]
    keys = [row.split("|")[1].strip().strip("`") for row in table.splitlines()[2:]]
    assert sorted(keys) == sorted(_DEFAULTS)


@pytest.mark.parametrize("args", [
    ["--experiment", "qos-sweep", "--case", "nodirect", "--M", "5", "--lambda_p", "0.1",
     "--lambda_s", "0,0.1,0.2,0.1,0.15", "--k", "2"],
    ["--experiment", "outage-curve"],
    ["--experiment", "fig1", "--gamma_p", "80", "--k", "3"],
])
def test_stamp_reproduces_its_run(args, tmp_path):
    code, text = _run(tmp_path, *args)
    assert code == 0
    stamp = dict(item.split("=", 1) for item in text.splitlines()[0][2:].split(" "))
    experiment = stamp.pop("experiment")
    # every other stamp entry is a config line; workers changes no byte
    cfg = tmp_path / "stamp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in stamp.items()) + "workers = 2\n")
    rerun = tmp_path / "rerun.csv"
    assert main(["--experiment", experiment, "--config", str(cfg), "--out", str(rerun)]) == code
    assert rerun.read_bytes() == (tmp_path / "out.csv").read_bytes()


def test_fig1_csv_ignores_keys_it_does_not_read(tmp_path):
    # fig1 runs a fixed preset, so gamma_p and k change neither its body nor its stamp
    out, default = tmp_path / "keys.csv", tmp_path / "default.csv"
    assert main(["--experiment", "fig1", "--gamma_p", "80", "--k", "3", "--out", str(out)]) == 0
    assert main(["--experiment", "fig1", "--out", str(default)]) == 0
    assert out.read_bytes() == default.read_bytes()
    assert out.read_text().splitlines()[0] == (
        "# R_max=1.5 R_min=0.0 experiment=fig1 n_points=31 seed=0 trials=100000")
    # validate fixes its own splits, and a direct-link config reads zeta = 1/2,
    # so zeta changes neither validate's file nor a direct-link qos-sweep's rows
    def run(*args):
        return main([*args, "--out", str(out)]), out.read_bytes()

    for case in ("direct", "nodirect"):
        validate = ("--experiment", "validate", "--trials", "2000", "--case", case)
        code, data = run(*validate, "--zeta", "0.3")
        assert (code, data) == run(*validate)
        assert data.decode().splitlines()[0] == (
            f"# case={case} experiment=validate seed=0 trials=2000")
    qos = ("--experiment", "qos-sweep", "--case", "direct")
    (code_z, data_z), (code, data) = run(*qos, "--zeta", "0.3"), run(*qos)
    assert code_z == code == 0 and data_z.splitlines()[1:] == data.splitlines()[1:]


@pytest.mark.parametrize("experiment", ["qos-sweep", "outage-curve", "dmt"])
def test_direct_link_stamp_records_the_resolved_zeta(experiment, tmp_path):
    # a direct-link config reads zeta = 1/2, and its stamp says so: --zeta 0.3
    # writes the default run's file, stamp included
    given, default = tmp_path / "given.csv", tmp_path / "default.csv"
    args = ["--experiment", experiment, "--case", "direct"]
    assert main([*args, "--zeta", "0.3", "--out", str(given)]) == 0
    assert main([*args, "--out", str(default)]) == 0
    assert given.read_bytes() == default.read_bytes()
    assert " zeta=0.5" in given.read_text().splitlines()[0]
    # without a direct link the split is read, and stamped, as given
    assert main(["--experiment", experiment, "--case", "nodirect", "--zeta", "0.3",
                 "--out", str(given)]) == 0
    assert " zeta=0.3" in given.read_text().splitlines()[0]


# ------------------------------------------------------------------------ experiments

def test_outage_curve_csv(tmp_path):
    code, text = _run(tmp_path, "--experiment", "outage-curve", "--M", "3",
                      "--n_points", "6", "--seed", "4")
    assert code == 0
    stamp = text.splitlines()[0]
    assert stamp.startswith("# ")
    assert "experiment=outage-curve" in stamp and "seed=4" in stamp
    assert "trials=" in stamp and "M=3" in stamp
    assert "workers" not in stamp and "out=" not in stamp
    header, rows = _rows(text)
    assert header == ["gamma", "nu_closed", "nu_highsnr"]
    assert len(rows) == 6
    gammas = [float(r[0]) for r in rows]
    nus = [float(r[1]) for r in rows]
    assert gammas == sorted(gammas)
    assert all(a > b for a, b in zip(nus, nus[1:]))   # outage falls with SNR
    cfg = SystemConfig(M=3, gamma_p=gammas[-1], gamma_s=30.0, R=0.5)
    assert math.isclose(nus[-1], outage_probability(cfg).nu, rel_tol=1e-12)
    assert math.isclose(float(rows[-1][2]), outage_highsnr(cfg), rel_tol=1e-12)


def test_validate_passes_and_is_worker_invariant(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["--experiment", "validate", "--trials", "20000", "--seed", "9",
                 "--out", str(a)]) == 0
    assert main(["--experiment", "validate", "--trials", "20000", "--seed", "9",
                 "--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = _rows(a.read_text())
    assert header[-1] == "z_score" and len(rows) == 27
    assert all(abs(float(r[-1])) <= 4.0 for r in rows)


def test_validate_statistical_failure_exits_1(tmp_path):
    # two slots per point: one unlucky outage on a rare-outage row blows
    # straight past |z| = 4, which is exactly what the exit code reports
    code, text = _run(tmp_path, "--experiment", "validate", "--trials", "2",
                      "--seed", "0")
    assert code == 1
    _, rows = _rows(text)
    assert any(abs(float(r[-1])) > 4.0 for r in rows)


@pytest.mark.parametrize("case", ["direct", "nodirect"])
def test_validate_rows_share_no_key_within_or_across_seeds(case, tmp_path, monkeypatch):
    # every row reads key seed + row * 2^64; the stub returns the closed form
    from test_dmt import _closed_form_draws
    keys = {0: [], 1: []}
    for seed, drawn in keys.items():
        monkeypatch.setattr("cogrelay.cli.estimate_outage", _closed_form_draws(drawn))
        assert _run(tmp_path, "--experiment", "validate", "--case", case,
                    "--seed", str(seed))[0] == 0
    assert len(keys[0]) == len(set(keys[0])) == (27 if case == "direct" else 81)
    assert set(keys[0]).isdisjoint(keys[1])


def test_dmt_row_r_reads_key_seed_plus_r_times_2_64(tmp_path, monkeypatch):
    keys = []

    def record(cfg, r, grid, source, seed, workers):
        keys.append(seed)
        return 1.0

    monkeypatch.setattr("cogrelay.cli.empirical_diversity", record)
    assert _run(tmp_path, "--experiment", "dmt", "--n_points", "3", "--seed", "5")[0] == 0
    assert keys == [5, 5 + 2**64, 5 + 2**65]


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["--experiment", "qos-sweep", "--M", "5", "--lambda_p", "0.1",
            "--lambda_s", "0,0.1,0.2,0.1,0.15", "--n_points", "7"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_qos_sweep_columns(tmp_path):
    code, text = _run(tmp_path, "--experiment", "qos-sweep", "--M", "4",
                      "--n_points", "5", "--R_max", "1.0")
    assert code == 0
    header, rows = _rows(text)
    assert header == ["R", "lambda_k_max", "feasible", "omega", "zeta"]
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == 1.0          # no competing demands, f(0)=1
    assert rows[0][2] == "True"
    omega = [float(w) for w in rows[0][3].split(";")]
    assert len(omega) == 4 and math.isclose(sum(omega), 1.0, rel_tol=1e-12)


def test_dmt_csv(tmp_path):
    code, text = _run(tmp_path, "--experiment", "dmt", "--M", "4",
                      "--n_points", "3")
    assert code == 0
    header, rows = _rows(text)
    assert header == ["r", "d_analytic", "d_empirical"]
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 3.0
    assert abs(float(rows[0][2]) - 3.0) < 0.3


def test_fig1_preset_claims(tmp_path):
    code, text = _run(tmp_path, "--experiment", "fig1", "--n_points", "6")
    assert code == 0
    header, rows = _rows(text)
    assert header == ["M", "R", "lambda_k_max", "feasible", "omega", "zeta"]
    by_m = {m: [r for r in rows if r[0] == str(m)] for m in (4, 5, 6)}
    starts = {m: float(by_m[m][0][2]) for m in (4, 5, 6)}
    assert abs(starts[4] - 0.6) <= 1e-15
    assert abs(starts[5] - 0.45) <= 1e-15
    assert abs(starts[6] - 0.35) <= 1e-15
    for m in (4, 5, 6):
        vals = [float(r[2]) for r in by_m[m]]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    for r4, r5, r6 in zip(by_m[4], by_m[5], by_m[6]):
        assert float(r4[2]) > float(r5[2]) > float(r6[2])


@pytest.mark.parametrize("experiment, calls", [
    ("fig1", 93), ("qos-sweep", 31),
    ("qos-sweep --lambda_s 0.3,0.3,0.3,0.3", 31),   # secondaries fail on every row
])
def test_qos_rows_evaluate_outage_once_per_point(experiment, calls, tmp_path, monkeypatch):
    from cogrelay import qos
    seen = []

    def counted(cfg):
        seen.append(cfg)
        return outage_probability(cfg)

    monkeypatch.setattr(qos, "outage_probability", counted)
    code, _ = _run(tmp_path, "--experiment", *experiment.split())
    assert code == 0
    assert len(seen) == calls


def test_fig2_structure(tmp_path):
    code, text = _run(tmp_path, "--experiment", "fig2", "--n_points", "4",
                      "--R_max", "0.9")
    assert code == 0
    header, rows = _rows(text)
    assert header[:3] == ["M", "R", "zeta_mode"]
    modes = {r[2] for r in rows}
    assert modes == {"best", "half"}
    assert {r[0] for r in rows if r[2] == "best"} == {"4", "5", "6"}
    assert {r[0] for r in rows if r[2] == "half"} == {"6"}
    for r in rows:
        if r[2] == "half":
            assert float(r[-1]) == 0.5
        elif r[4] == "True":
            assert 0.0 < float(r[-1]) < 1.0


def test_test_imports_are_declared():
    # every third-party module the suite imports is a dependency or in the
    # `test` extra, so `pip install -e '.[test]'` is enough to run it
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    reqs = project["dependencies"] + project.get("optional-dependencies", {}).get("test", [])
    declared = {re.split(r"[\s;<>=!~\[]", r, maxsplit=1)[0] for r in reqs}
    imported = set()
    for path in (root / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = {m for m in imported - set(sys.stdlib_module_names)
                   if m not in ("cogrelay", "oracles") and not m.startswith("test_")}
    assert third_party <= declared, sorted(third_party - declared)


def _declared_console_script():
    """(module, attr) of the ``cogrelay`` entry in ``[project.scripts]``,
    checked to name a callable that imports."""
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f).get("project", {}).get("scripts", {})
    assert "cogrelay" in scripts, "[project.scripts] declares no 'cogrelay'"
    target = scripts["cogrelay"]
    module, _, attr = target.partition(":")
    assert attr.isidentifier() and all(
        p.isidentifier() for p in module.split(".")), \
        f"[project.scripts] cogrelay = {target!r} is not of the form module:attr"
    try:
        fn = getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError) as err:
        raise AssertionError(
            f"[project.scripts] cogrelay = {target!r} does not import: {err}") from None
    assert callable(fn), f"[project.scripts] cogrelay = {target!r} is not callable"
    return module, attr


def test_console_script_end_to_end(tmp_path):
    # The launcher has the shape of the wrapper pip writes for the declared
    # entry point, so the bare name runs without installing the package.
    module, attr = _declared_console_script()
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "cogrelay"
    launcher.write_text(f"#!{sys.executable}\n"
                        "import sys\n"
                        f"from {module} import {attr}\n"
                        "if __name__ == '__main__':\n"
                        f"    sys.exit({attr}())\n")
    launcher.chmod(0o755)
    # Both children import the same source tree as this process.
    env = _child_env()
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))

    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cogrelay.cli", "--experiment", "outage-curve",
         "--M", "3", "--n_points", "4", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    proc2 = subprocess.run(
        ["cogrelay", "--experiment", "outage-curve", "--M", "3",
         "--n_points", "4", "--out", str(tmp_path / "cli2.csv")],
        capture_output=True, text=True, env=env)
    assert proc2.returncode == 0, proc2.stderr
    assert (tmp_path / "cli2.csv").read_bytes() == out.read_bytes()
    # main's return value is the exit status: a rejected input exits 2.
    proc3 = subprocess.run(
        ["cogrelay", "--experiment", "outage-curve", "--M", "not_int"],
        capture_output=True, text=True, env=env)
    assert proc3.returncode == 2, proc3.stderr
