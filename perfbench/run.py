"""Run one cogrelay benchmark workload and print its metrics.

From the root of a cogrelay checkout:

    python3 perfbench/run.py --workload direct-sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _load_library() -> None:
    """Put this checkout's sources first on the path; refuse any other cogrelay."""
    init = SRC / "cogrelay" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} is missing; run from the root of a cogrelay checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import cogrelay
    if Path(cogrelay.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported cogrelay from {cogrelay.__file__}, not {init}")


def main(argv=None) -> int:
    _load_library()
    import harness
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
