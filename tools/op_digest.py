"""Digest every benchmark op's result, to show that a change keeps each one bit for bit.

    python tools/op_digest.py ROOT SEED [SEED ...]

ROOT is a cogrelay checkout.  For each workload of ROOT/perfbench and each
seed, one pass runs the seed's op list against ROOT/src and prints one line:
workload, seed, op count, failed ops (an op that raises or fails its checks,
as the benchmark counts it) and a sha256 over every op's result, or its
exception, with floats in hex and arrays as their raw bytes.  Run it on two
checkouts and compare the lines.  ROOT/perfbench is only imported: no
bytecode is written there.
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np


def _canon(x):
    """x as a repr-able structure that fixes every bit of every number in it."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [(f.name, _canon(getattr(x, f.name)))
                                  for f in dataclasses.fields(x)]
    if isinstance(x, np.ndarray):
        return "ndarray", x.dtype.str, x.shape, x.tobytes().hex()
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return repr(x)


def digest(ops, Tracer, workload: str, seed: int) -> tuple:
    """(op count, failed ops, sha256 hex) of one pass of the workload's op list."""
    golden, tracer = ops.load_golden(), Tracer(False)
    sha, failed = hashlib.sha256(), 0
    op_list = ops.generate(workload, seed)
    for op in op_list:
        try:
            result = ops.execute(op, tracer)
        except Exception as err:      # a raising op is a failed op, as in the benchmark
            failed += 1
            record = ("raised", type(err).__name__, str(err))
        else:
            wrong, missed = ops.check(op, result, golden)
            failed += bool(wrong or missed)
            record = _canon(result)
        sha.update(repr((op.id, record)).encode())
    return len(op_list), failed, sha.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        sys.exit(__doc__)
    root = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import ops
    from tracing import Tracer
    for workload in ops.WORKLOADS:
        for seed in map(int, argv[1:]):
            n, failed, hexdigest = digest(ops, Tracer, workload, seed)
            print(f"{workload} seed={seed} ops={n} failed={failed} sha256={hexdigest}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
