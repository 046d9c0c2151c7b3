"""The repository tools under tools/."""
import importlib.util
import math
from dataclasses import replace
from pathlib import Path

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
    # a dataclass holding NaN gives the same structure every time, although
    # NaN equals nothing, itself included
    sol = QosSolution(feasible=False, omega=(math.nan, math.nan), zeta=math.nan,
                      lambda_k_max=0.0, slack=math.nan, k=1)
    assert repr(canon(sol)) == repr(canon(sol)) == repr(canon(replace(sol)))
    assert repr(canon(sol)) != repr(canon(replace(sol, lambda_k_max=-0.0)))
