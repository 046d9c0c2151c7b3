"""Write perfbench/golden.json: reference values of the fixed (unseeded) ops.

Run from the root of a checkout, at the commit whose results are the
reference:

    python3 perfbench/make_golden.py

Only closed-form and QoS results are recorded; Monte Carlo estimates are
checked against the closed form instead, so a new draw layout does not
break the golden file.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ops  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> None:
    golden = {}
    for workload in ops.WORKLOADS:
        for op in ops.generate(workload, 0):
            if op.golden is not None:
                golden[op.golden] = ops.golden_values(op, ops.execute(op, Tracer(False)))
    ops.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} golden entries written to {ops.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
