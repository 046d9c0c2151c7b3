"""The repository tools under tools/."""
import importlib.util
from pathlib import Path

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
