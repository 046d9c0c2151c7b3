"""Digest every benchmark op's result, to show that a change keeps each one bit for bit.

    python tools/op_digest.py ROOT SEED [SEED ...]
    python tools/op_digest.py --compare HEAD BASE

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

The --compare form reads two files of such lines, HEAD's and BASE's, and
for each workload and seed prints whether the whole lines agree and whether
their mc_sha256 fields do, then both lines ("(none)" for a missing one).
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


def compare(head: str, base: str) -> list:
    """The --compare report of two digest outputs, given as their text, one line per item."""
    def lines(text):
        return {tuple(line.split()[:2]): line.strip() for line in text.splitlines() if line.strip()}

    def mc(line):
        return next((f for f in (line or "").split() if f.startswith("mc_sha256=")), None)

    head, base = lines(head), lines(base)
    report = []
    for key in sorted(head.keys() | base.keys()):
        verdict = "same" if head.get(key) == base.get(key) else "differs"
        mc_verdict = "same" if mc(head.get(key)) == mc(base.get(key)) else "differs"
        report += [" ".join((*key, verdict, "mc_sha256", mc_verdict)),
                   f"  head: {head.get(key, '(none)')}", f"  base: {base.get(key, '(none)')}"]
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"] and len(argv) == 3:
        for line in compare(Path(argv[1]).read_text(), Path(argv[2]).read_text()):
            print(line)
        return 0
    if len(argv) < 2 or argv[0] == "--compare":
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
