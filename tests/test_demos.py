"""Every script in demos/ runs to completion against this source tree."""
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert [p.name for p in _DEMOS] == ["beamforming_gain.py", "dmt_curves.py",
                                        "outage_vs_snr.py", "qos_allocation.py"]


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
