"""CLI outputs pinned against the references under tests/reference/.

Each command of tests/reference/commands.txt reruns in-process through
`cogrelay.cli.main` and must write the reference CSV byte for byte (or, like
the reference, none) and exit with the reference code.  A change that moves
an output on purpose regenerates the references with
`python tools/cli_reference.py` and lists the cells that moved.
"""
import importlib.util
import math
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_REFERENCE = _REPO / "tests" / "reference"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_reference",
                                                  _REPO / "tools" / "cli_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CLI_REFERENCE = _tool()
_COMMANDS = _CLI_REFERENCE.commands(_REFERENCE)
_EXIT_CODES = dict(line.split() for line in
                   (_REFERENCE / "exit_codes.txt").read_text().splitlines())


def _first_difference(expected: str, got: str) -> str:
    """Where two CSV texts first differ: line, column name, both cells and their relative gap."""
    exp_lines, got_lines = expected.splitlines(), got.splitlines()
    header = next((l for l in exp_lines if not l.startswith("#")), "").split(",")
    for i, (a_line, b_line) in enumerate(zip(exp_lines, got_lines), start=1):
        if a_line == b_line:
            continue
        for j, (a, b) in enumerate(zip(a_line.split(","), b_line.split(","))):
            if a != b:
                column = header[j] if j < len(header) else f"#{j}"
                try:
                    x, y = float(a), float(b)
                except ValueError:
                    gap = "not numbers"
                else:
                    rel = (abs(x - y) / (max(abs(x), abs(y)) or 1.0)
                           if math.isfinite(x) and math.isfinite(y) else math.inf)
                    gap = f"relative gap {rel:.3g}"
                return f"line {i}, column {column}: {a!r} -> {b!r} ({gap})"
        return f"line {i}: {a_line!r} -> {b_line!r}"
    return f"{len(exp_lines)} lines -> {len(got_lines)} lines"


def test_reference_set_is_complete():
    names = [name for name, _ in _COMMANDS]
    assert len(set(names)) == len(names)
    assert set(_EXIT_CODES) == set(names)
    on_disk = {p.stem for p in _REFERENCE.glob("*.csv")}
    assert on_disk == {name for name in names if _EXIT_CODES[name] in ("0", "1")}


@pytest.mark.parametrize("name,args", _COMMANDS, ids=[name for name, _ in _COMMANDS])
def test_cli_output_matches_reference(tmp_path, name, args):
    code, data = _CLI_REFERENCE.run(args, tmp_path / f"{name}.csv")
    assert str(code) == _EXIT_CODES[name]
    reference = _REFERENCE / f"{name}.csv"
    if not reference.exists():
        assert data is None, f"{name} wrote a CSV where the reference has none"
        return
    expected = reference.read_bytes()
    assert data is not None, f"{name} wrote no CSV"
    if data != expected:
        pytest.fail(f"{name}: {_first_difference(expected.decode(), data.decode())}")


def test_first_difference_names_the_cell_and_its_gap():
    expected = "# stamp\ngamma,nu_closed,nu_highsnr\n1.0,0.5,inf\n2.0,0.25,0.125\n"
    got = expected.replace("0.25", "0.25000000000000006")
    assert _first_difference(expected, got) == (
        "line 4, column nu_closed: '0.25' -> '0.25000000000000006' (relative gap 2.22e-16)")
    assert "not numbers" in _first_difference(expected, expected.replace("# stamp", "# other"))
    assert "relative gap inf" in _first_difference(expected, expected.replace("inf", "1e308"))
    assert _first_difference(expected, expected + "3.0,0.1,0.1\n") == "4 lines -> 5 lines"
