"""The repository tools under tools/."""
import importlib.util
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from cogrelay.qos import QosSolution

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SAMPLE = '''"""Module docstring,
on two lines."""
import os  # a trailing comment

# a comment line

X = """a string,
not a docstring"""


def f(a,
      b):
    """Function docstring."""
    return a + b


class C:
    \'\'\'Class docstring.\'\'\'
    def g(self):
        x = 1
        "a later string statement"
        return x
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    # import, both lines of X, both lines of def f, return, class, def g, and
    # the three statements of g
    assert _load("code_lines").code_lines(_SAMPLE) == 11


def test_code_lines_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SAMPLE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert _load("code_lines").main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    11 {tmp_path / 'a.py'}", f"     0 {tmp_path / 'pkg' / 'b.py'}", "    11 total"]


def test_op_digest_canon_fixes_every_bit():
    canon = _load("op_digest")._canon
    # floats 1 ulp apart, and a float against the int of its value
    assert canon(1.0) != canon(math.nextafter(1.0, 2.0))
    assert canon(0.0) != canon(-0.0) and canon(1.0) != canon(1)
    # equal values in different dtypes
    values = [1.0, 2.0]
    forms = {repr(canon(np.array(values, dtype=t)))
             for t in (np.float64, np.float32, np.int64, np.int32)}
    assert len(forms) == 4
    # a numpy scalar keeps its dtype, even where its value and float's agree
    assert len({repr(canon(x)) for x in (np.float32(0.5), np.float64(0.5), 0.5)}) == 3
    # a dataclass holding NaN gives the same structure every time, although
    # NaN equals nothing, itself included
    sol = QosSolution(feasible=False, omega=(math.nan, math.nan), zeta=math.nan,
                      lambda_k_max=0.0, slack=math.nan, k=1)
    assert repr(canon(sol)) == repr(canon(sol)) == repr(canon(replace(sol)))
    assert repr(canon(sol)) != repr(canon(replace(sol, lambda_k_max=-0.0)))


def test_op_digest_mc_sha256_reads_the_monte_carlo_fields_alone():
    # a fake op list: a closed-form op, an mc_outage op returning (closed form,
    # simulation) and an mc_schedule op returning its simulation
    def fake_ops(closed, simulated):
        kinds = ("outage_point", "mc_outage", "mc_schedule")
        results = {"outage_point": closed, "mc_outage": (closed, simulated),
                   "mc_schedule": simulated}
        return SimpleNamespace(
            load_golden=dict,
            generate=lambda workload, seed: [SimpleNamespace(id=i, kind=k)
                                             for i, k in enumerate(kinds)],
            execute=lambda op, tracer: results[op.kind],
            check=lambda op, result, golden: ([], []))

    digest = _load("op_digest").digest
    base = digest(fake_ops(0.5, 0.25), lambda _: None, "w", 1)
    moved_closed = digest(fake_ops(math.nextafter(0.5, 1.0), 0.25), lambda _: None, "w", 1)
    moved_mc = digest(fake_ops(0.5, math.nextafter(0.25, 1.0)), lambda _: None, "w", 1)
    assert base[:2] == moved_closed[:2] == moved_mc[:2] == (3, 0)
    # a moved closed form changes sha256 alone; a moved sample changes both
    assert moved_closed[2] != base[2] and moved_closed[3] == base[3]
    assert moved_mc[2] != base[2] and moved_mc[3] != base[3]


_LINE = "mc-validate seed=1 ops=3 failed=0 sha256=aa mc_sha256=00"


def test_op_digest_compare_reports_whole_lines_and_monte_carlo_fields():
    compare = _load("op_digest").compare
    moved_closed = _LINE.replace("sha256=aa", "sha256=a1")
    moved_mc = _LINE.replace("sha256=aa mc_sha256=00", "sha256=a1 mc_sha256=01")
    assert compare(_LINE + "\n", _LINE + "\n") == [
        "mc-validate seed=1 same mc_sha256 same", f"  head: {_LINE}", f"  base: {_LINE}"]
    # a closed form moved: the whole line differs, the Monte Carlo fields do not
    assert compare(moved_closed, _LINE) == [
        "mc-validate seed=1 differs mc_sha256 same", f"  head: {moved_closed}", f"  base: {_LINE}"]
    assert compare(_LINE, moved_mc)[0] == "mc-validate seed=1 differs mc_sha256 differs"
    # a workload and seed on one side only, with keys in sorted order
    other = "direct-sweep seed=2 ops=2 failed=0 sha256=bb mc_sha256=00"
    assert compare(f"{_LINE}\n\n{other}\n", _LINE) == [
        "direct-sweep seed=2 differs mc_sha256 differs", f"  head: {other}", "  base: (none)",
        "mc-validate seed=1 same mc_sha256 same", f"  head: {_LINE}", f"  base: {_LINE}"]
