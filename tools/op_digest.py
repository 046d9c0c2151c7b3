"""Digest every benchmark op's result, to show that a change keeps each one bit for bit.

    python tools/op_digest.py ROOT SEED [SEED ...]

ROOT is a cogrelay checkout.  For each workload of ROOT/perfbench and each
seed, one pass runs the seed's op list against ROOT/src and prints one line:
workload, seed, op count, failed ops (an op that raises or fails its checks,
as the benchmark counts it), a sha256 over every op's result, or its
exception, with floats in hex and arrays and numpy scalars as their dtype
and raw bytes, and an mc_sha256 over the Monte Carlo fields alone: the
simulation half of each mc_outage result and each mc_schedule result.  Run
it on two checkouts and compare the lines; equal mc_sha256 with unequal
sha256 shows unchanged samples while a closed form moved.
ROOT/perfbench is only imported: no bytecode is written there.
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
    if isinstance(x, np.generic):     # a numpy scalar keeps its dtype: float32(0.5) is no 0.5
        return x.dtype.str, x.tobytes().hex()
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    if isinstance(x, float):
        return x.hex()
    return repr(x)


# the Monte Carlo part of each simulating op's result: mc_outage returns
# (closed-form breakdown, simulation), mc_schedule the simulation alone
_MC_PART = {"mc_outage": lambda result: result[1], "mc_schedule": lambda result: result}


def digest(ops, Tracer, workload: str, seed: int) -> tuple:
    """(op count, failed ops, sha256 hex, mc_sha256 hex) of one pass of the workload's op list."""
    golden, tracer = ops.load_golden(), Tracer(False)
    sha, mc_sha, failed = hashlib.sha256(), hashlib.sha256(), 0
    op_list = ops.generate(workload, seed)
    for op in op_list:
        mc_part = _MC_PART.get(op.kind)
        try:
            result = ops.execute(op, tracer)
        except Exception as err:      # a raising op is a failed op, as in the benchmark
            failed += 1
            record = mc_record = ("raised", type(err).__name__, str(err))
        else:
            wrong, missed = ops.check(op, result, golden)
            failed += bool(wrong or missed)
            record = _canon(result)
            mc_record = _canon(mc_part(result)) if mc_part else None
        sha.update(repr((op.id, record)).encode())
        if mc_part:
            mc_sha.update(repr((op.id, mc_record)).encode())
    return len(op_list), failed, sha.hexdigest(), mc_sha.hexdigest()


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
            n, failed, hexdigest, mc_hexdigest = digest(ops, Tracer, workload, seed)
            print(f"{workload} seed={seed} ops={n} failed={failed} sha256={hexdigest} "
                  f"mc_sha256={mc_hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
