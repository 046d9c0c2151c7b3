"""Tests of the benchmark itself: op generation, failure counting, output."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import ops  # noqa: E402
from hostspeed import NOMINAL_S, Speedometer  # noqa: E402
from tracing import Tracer  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_op_generator_is_deterministic_per_seed():
    for workload in ops.WORKLOADS:
        first = ops.generate(workload, 7)
        assert first == ops.generate(workload, 7)
        assert first != ops.generate(workload, 8)
        assert len(first) >= 100


def test_wrong_result_and_raised_error_are_counted_and_the_pass_goes_on():
    rows = [op for op in ops.generate("nodirect-sweep", 1) if op.kind == "qos_row"][:4]

    def forced(op, tr):
        if op is rows[0]:
            raise RuntimeError("forced error")
        out = ops.execute(op, tr)
        if op is rows[1]:
            return (1.5,) + out[1:]        # lambda_k_max outside [0, 1]
        return out

    result = harness.run_pass(rows, ops.load_golden(), Tracer(False), execute=forced)
    assert len(result.latencies) == 4
    assert [op for op, _ in result.failures] == rows[:2]
    assert "RuntimeError" in result.failures[0][1][0]
    assert result.wrong == 1


def test_golden_mismatch_is_a_wrong_result():
    op = next(op for op in ops.generate("nodirect-sweep", 1) if op.kind == "qos_row")
    lam_max, ok, omega = ops.execute(op, Tracer(False))
    wrong, missed = ops.check(op, (lam_max * (1 + 1e-6), ok, omega), ops.load_golden())
    assert wrong and not missed


def test_replayed_time_is_capped_at_the_span_that_made_it():
    tr = Tracer(True)
    tr.spans = [["qos.search_zeta", 0.0, 1.0, None, 0, None]]
    tr.replays = [(0, "analytic.case2_outage", 1.5, 999)]
    table = tr.by_name()
    assert table["qos.search_zeta"]["self_s"] == 0.0
    assert table["analytic.case2_outage"]["self_s"] == 1.0


def test_speed_factor_comes_from_the_samples_around_an_interval():
    speed = Speedometer()
    speed.at = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
    speed.took = [NOMINAL_S] * 4 + [2 * NOMINAL_S] * 4
    assert speed.factor(0.5, 0.6) == 1.0
    assert speed.factor(12.5, 12.6) == 0.5
    assert speed.factor(3.5, 9.5) == 1 / 1.5


def test_rescaled_latencies_follow_the_speed_factor():
    rows = [op for op in ops.generate("nodirect-sweep", 1) if op.kind == "qos_row"][:3]
    speed = Speedometer()
    result = harness.run_pass(rows, ops.load_golden(), Tracer(False), speed=speed)
    assert len(result.latencies) == len(result.raw) == 3
    assert len(speed.took) >= 4           # one before the first op, three after the last
    lo, hi = NOMINAL_S / max(speed.took), NOMINAL_S / min(speed.took)
    for scaled, raw in zip(result.latencies, result.raw):
        assert lo * (1 - 1e-12) <= scaled / raw <= hi * (1 + 1e-12)


def test_smoke_run_prints_every_end_to_end_metric():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "nodirect-sweep", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    for name, unit in harness.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert f"{name} = " in proc.stdout


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *_spec()["command"][1:], "--workload", "mc-validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
