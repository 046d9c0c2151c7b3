"""Every script in demos/ runs to completion against this source tree, and
the code outside the tests imports only names the package still has."""
import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cogrelay
from test_cli import _child_env

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert [p.name for p in _DEMOS] == ["beamforming_gain.py", "dmt_curves.py",
                                        "outage_vs_snr.py", "qos_allocation.py"]


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_callers_import_only_public_names():
    # perfbench's own tests are outside this suite, so a name trimmed from
    # the package would otherwise surface only when the benchmark runs
    sources = [p.read_text() for p in _DEMOS + sorted((_ROOT / "perfbench").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (_ROOT / "README.md").read_text(), re.S)
    imported = 0
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cogrelay":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (node.module, alias.name)
                    if module is cogrelay:
                        assert alias.name in cogrelay.__all__, alias.name
                    imported += 1
    assert imported >= 30, imported
