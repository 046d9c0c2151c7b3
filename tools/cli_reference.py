"""Regenerate the reference CLI outputs that tests/test_cli_reference.py pins.

    python tools/cli_reference.py [DIR]

DIR (default tests/reference) holds commands.txt: one command a line, a name
and then its arguments.  Each command runs in-process through
`cogrelay.cli.main`, from the cogrelay first on sys.path (this checkout's
src/ unless PYTHONPATH names another), with `--out` pointing into DIR.  Its
CSV is DIR/<name>.csv, and a command that writes none leaves no file; every
exit code goes to DIR/exit_codes.txt as `name code` lines.  A change that
moves a CLI output on purpose reruns this script and says which cells moved.
"""
from __future__ import annotations

import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent


def commands(directory: Path) -> list:
    """(name, argument list) of each command in directory/commands.txt, in order."""
    out = []
    for line in (directory / "commands.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, *args = line.split()
            out.append((name, args))
    return out


def run(args: list, csv: Path) -> tuple:
    """(exit code, CSV bytes or None) of one command run in-process, its CSV at csv."""
    from cogrelay.cli import main
    csv.unlink(missing_ok=True)
    code = main([*args, "--out", str(csv)])
    return code, csv.read_bytes() if csv.exists() else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else _REPO / "tests" / "reference"
    sys.path.append(str(_REPO / "src"))     # after any PYTHONPATH entry
    codes = []
    for name, args in commands(directory):
        code, _ = run(args, directory / f"{name}.csv")
        codes.append(f"{name} {code}\n")
        print(name, code, flush=True)
    (directory / "exit_codes.txt").write_text("".join(codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
