import inspect
import math
import threading
import tracemalloc
from math import inf, nan
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cogrelay
from cogrelay import (SystemConfig, draw_realizations, estimate_outage,
                      estimate_schedule_throughput, outage_probability,
                      secondary_success_prob, solve_assignment, substream)
from cogrelay import simulate
from cogrelay.channel import _draw_chunks
from cogrelay.simulate import BLOCK_SLOTS, _blocks

from oracles import decoding_pmf, outage_block_ref, schedule_block_ref


def _cfg(case="direct", M=4, R=0.5, gamma_p=50.0):
    return SystemConfig(M=M, gamma_p=gamma_p, gamma_s=30.0, R=R, case=case)


def test_slot_stream_is_block_stream():
    # a single slot is a block of one, and each block consumes exactly its
    # two raw draws: Exp(1) power gains, then the relay normals.  Sequential
    # draws on one stream (one-slot or not, as the schedule's uniforms after
    # the channel) therefore read that stream's raw draws back to back.
    cfg = _cfg(M=3)
    rng = substream(77, 0)
    slots = [draw_realizations(cfg, n, rng) for n in (1, 1, 3, 1)]
    tail = rng.random(4)
    ref = substream(77, 0)
    s = np.sqrt(0.5)
    for slot in slots:
        n = len(slot)
        e = ref.standard_exponential((n, 5))
        z = ref.standard_normal((n, 4, 2))
        assert np.array_equal(slot.h_p_pd, e[:, 0])
        assert np.array_equal(slot.h_p_relay, e[:, 1:3])
        assert np.array_equal(slot.h_v_pd, e[:, 3])
        assert np.array_equal(slot.h_v_sd, e[:, 4])
        h = slot.h_relay_pd, slot.h_relay_sd
        assert np.array_equal(np.concatenate(h, axis=1).real, z[..., 0] * s)
        assert np.array_equal(np.concatenate(h, axis=1).imag, z[..., 1] * s)
    assert np.array_equal(tail, ref.random(4))


def test_each_run_rule_is_stated_once():
    # the ranges of trials and workers live in _check_run, which dmt and the CLI
    # call; the Philox key range in simulate; the block size in _fold, which
    # hands it to _blocks and _sum_blocks (neither has a default, since a
    # block past M = 65 is no BLOCK_SLOTS)
    sources = {p.name: p.read_text() for p in Path(simulate.__file__).parent.glob("*.py")}
    check_run = inspect.getsource(simulate._check_run)
    for rule in ('_as_index("trials"', '_as_index("workers"'):
        assert sum(src.count(rule) for src in sources.values()) == 1 == check_run.count(rule)
    assert [name for name, src in sources.items() if "_PHILOX_KEYS" in src] == ["simulate.py"]
    for fn in (simulate._blocks, simulate._sum_blocks):
        assert inspect.signature(fn).parameters["block"].default is inspect.Parameter.empty
    assert "BLOCK_SLOTS" not in cogrelay.__all__


def test_blocks_are_lazy():
    # the block plan is a generator: a run of 10^15 slots yields its first
    # block without building the other 6e10 (checked first, so that a
    # list-building plan fails here instead of filling memory)
    assert inspect.isgeneratorfunction(_blocks)
    blocks = _blocks(10**15, BLOCK_SLOTS)
    assert next(blocks) == (0, BLOCK_SLOTS)
    assert list(_blocks(2 * BLOCK_SLOTS + 5, BLOCK_SLOTS)) == [
        (0, BLOCK_SLOTS), (1, BLOCK_SLOTS), (2, 5)]


def test_estimate_outage_deterministic_and_worker_invariant():
    cfg = _cfg("nodirect", M=4)
    n = 3 * BLOCK_SLOTS + 1234   # force a ragged final block
    a = estimate_outage(cfg, n, seed=5, workers=1)
    c = estimate_outage(cfg, n, seed=5, workers=1)
    assert a.primary.p_hat == c.primary.p_hat
    for workers in (3, 8):      # 8: more workers than the 4 blocks
        b = estimate_outage(cfg, n, seed=5, workers=workers)
        assert a.primary.p_hat == b.primary.p_hat
        assert a.secondary.p_hat == b.secondary.p_hat
        assert np.array_equal(a.k_counts, b.k_counts)
    d = estimate_outage(cfg, n, seed=6, workers=1)
    assert d.primary.p_hat != a.primary.p_hat


class _FakePool:
    """In-process stand-in for ThreadPoolExecutor that records what it is handed."""

    seen = []

    def __init__(self, max_workers):
        self.items = []
        _FakePool.seen.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        self.items = list(zip(*iterables))
        return [fn(*item) for item in self.items]


def _count_slots(index, n):
    return n, index


def _cpus(n):
    """simulate's view of os when this process may run on n CPUs."""
    return SimpleNamespace(sched_getaffinity=lambda pid: set(range(n)))


def test_pool_gets_one_share_per_worker(monkeypatch):
    # one strided share per thread, never a task per block, and no share
    # without a block: share 0 runs on the calling thread and the pool gets
    # the other W - 1, so 10^3 blocks on 3 workers are 2 items, 2 blocks on
    # 16 workers 1 item and one worker none
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", _FakePool)
    monkeypatch.setattr(_FakePool, "seen", [])
    monkeypatch.setattr(simulate, "os", _cpus(64))
    trials = 1000 * BLOCK_SLOTS - 7
    total = simulate._sum_blocks(_count_slots, trials, 3, BLOCK_SLOTS)
    assert total == simulate._sum_blocks(_count_slots, trials, 1, BLOCK_SLOTS)
    assert total == (trials, 999 * 1000 // 2)
    three, one = _FakePool.seen
    assert three.items == [(1,), (2,)] and one.items == []
    simulate._sum_blocks(_count_slots, 2 * BLOCK_SLOTS, 16, BLOCK_SLOTS)
    assert _FakePool.seen[-1].items == [(1,)]
    # W is capped at this process's CPUs, read from its affinity where the
    # platform has one and from cpu_count (which may not know) elsewhere
    for os_view, shares in ((_cpus(3), 3), (_cpus(1), 1),
                            (SimpleNamespace(cpu_count=lambda: 4), 4),
                            (SimpleNamespace(cpu_count=lambda: None), 1)):
        monkeypatch.setattr(simulate, "os", os_view)
        assert simulate._sum_blocks(_count_slots, trials, 100_000, BLOCK_SLOTS) == total
        assert len(_FakePool.seen[-1].items) == shares - 1


class _Interrupt(Exception):
    pass


def test_fold_stops_other_shares_when_one_raises(monkeypatch):
    # share 0 raises on its first block while share 1 is inside its second,
    # of 200; once the fold's stop flag is set, share 1 must skip the rest
    # rather than fold them all (else a Ctrl-C on a long run waits out every
    # share), and the error must reach the caller.  The test reads the flag
    # through simulate's threading, so it waits on no timing.
    stop = threading.Event()
    monkeypatch.setattr(simulate, "threading", SimpleNamespace(Event=lambda: stop))
    monkeypatch.setattr(simulate, "os", _cpus(2))
    started, ran = threading.Event(), []

    def task(index, n):
        if index == 0:
            assert started.wait(10)
            raise _Interrupt
        ran.append(index)
        if index == 1:
            started.set()
        elif index == 3:
            stop.wait(10)
        return n, index

    with pytest.raises(_Interrupt):
        simulate._sum_blocks(task, 400, 2, block=1)
    assert stop.is_set()
    assert 2 <= len(ran) <= 3, ran


def test_block_size_shrinks_past_m65(monkeypatch):
    # 16384 slots up to M = 65, then 2^20 // (M - 1): 16131 at M = 66
    # in both estimators
    seen = []

    def sizes(result):
        def task(cfg, *args):
            seen.append(args[-1])
            return result(cfg.M)
        return task

    monkeypatch.setattr(simulate, "_outage_block", sizes(lambda M: (0, 0, np.zeros(M, int))))
    monkeypatch.setattr(simulate, "_schedule_block", sizes(lambda M: (np.zeros(M, int), 0)))
    for M, expected in ((65, [16384, 16384]), (66, [16131, 16131, 506])):
        seen.clear()
        estimate_outage(_cfg(M=M), 2 * BLOCK_SLOTS)
        estimate_schedule_throughput(_cfg(M=M), [1.0 / M] * M, 2 * BLOCK_SLOTS)
        assert seen == expected * 2, M


def test_block_memory_stays_under_16mb():
    # the block's normals and gain temporaries span one chunk, not the block:
    # whole-block folds traced 48 MB at M = 40 and 77 MB at M = 1024
    for M in (40, 1024):
        tracemalloc.start()
        try:
            estimate_outage(_cfg(M=M), BLOCK_SLOTS, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, (M, peak)


def _chunk_rows(M):
    return max(1, simulate._CHUNK_LINKS // (M - 1))


_CHUNK_M = (2, 3, 6, 40, 65, 66, 1024)


@pytest.mark.parametrize("M", _CHUNK_M)
def test_chunked_blocks_match_whole_block_reference(M):
    # counts folded chunk by chunk equal the whole-block fold exactly, for
    # blocks that end inside, on and just past a chunk edge
    rows = _chunk_rows(M)
    full = min(BLOCK_SLOTS, 2**20 // (M - 1))
    omega = tuple(np.arange(1, M + 1) / (M * (M + 1) / 2))
    for case in ("direct", "nodirect"):
        cfg = _cfg(case, M=M, gamma_p=5.0 * M)
        for n in sorted({1, max(1, rows - 1), rows, rows + 1, full}):
            got = simulate._outage_block(cfg, 3, n, n)
            want = outage_block_ref(cfg, 3, n, n)
            assert got[:2] == want[:2] and np.array_equal(got[2], want[2]), (case, n)
            got = simulate._schedule_block(cfg, omega, 4, n, n)
            want = schedule_block_ref(cfg, omega, 4, n, n)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1], (case, n)


@pytest.mark.parametrize("M", _CHUNK_M)
def test_draw_realizations_is_the_chunks_joined(M):
    # one draw path: the whole-block draw is the chunked draw with one chunk
    rows = _chunk_rows(M)
    for case in ("direct", "nodirect"):
        cfg = _cfg(case, M=M)
        for n in sorted({1, max(1, rows - 1), rows, rows + 1, 2 * rows + 3}):
            whole = draw_realizations(cfg, n, substream(21, n))
            chunks = list(_draw_chunks(cfg, n, substream(21, n), rows))
            assert len(chunks) == -(-n // rows)
            for name in ("h_p_pd", "h_p_relay", "h_relay_pd", "h_relay_sd", "h_v_pd", "h_v_sd"):
                joined = np.concatenate([getattr(c, name) for c in chunks])
                assert np.array_equal(getattr(whole, name), joined), (case, n, name)


def test_estimate_fields():
    cfg = _cfg()
    est = estimate_outage(cfg, 1, seed=0)
    assert est.trials == 1
    assert est.primary.p_hat in (0.0, 1.0)
    assert est.primary.stderr == 0.0
    assert est.k_counts.sum() == 1
    with pytest.raises(ValueError):
        estimate_outage(cfg, 0, seed=0)
    est2 = estimate_outage(cfg, 50_000, seed=0)
    p = est2.primary.p_hat
    assert math.isclose(est2.primary.stderr, math.sqrt(p * (1 - p) / 50_000),
                        rel_tol=1e-12)
    assert est2.k_counts.sum() == 50_000


def test_k_histogram_matches_pmf():
    cfg = _cfg(M=5, R=0.8, gamma_p=20.0)
    n = 300_000
    est = estimate_outage(cfg, n, seed=31)
    pmf = decoding_pmf(cfg)
    for k in range(5):
        se = math.sqrt(max(pmf[k] * (1 - pmf[k]), 1e-12) / n)
        assert abs(est.k_counts[k] / n - pmf[k]) <= 4.5 * se, k


def test_primary_outage_matches_closed_form():
    for case, seed in (("direct", 101), ("nodirect", 102)):
        cfg = _cfg(case, M=4, R=0.5, gamma_p=20.0)
        nu = outage_probability(cfg).nu
        n = 200_000
        est = estimate_outage(cfg, n, seed=seed)
        se = math.sqrt(nu * (1.0 - nu) / n)
        assert abs(est.primary.p_hat - nu) <= 4.0 * se, (case, est.primary.p_hat, nu)


def test_secondary_outage_matches_closed_form():
    for case, seed in (("direct", 103), ("nodirect", 104)):
        cfg = _cfg(case, M=5, R=0.7)
        f = secondary_success_prob(cfg)
        n = 200_000
        est = estimate_outage(cfg, n, seed=seed)
        se = math.sqrt(f * (1.0 - f) / n)
        assert abs(est.secondary.p_hat - (1.0 - f)) <= 4.0 * se


def test_schedule_throughput_hits_targets():
    cfg = SystemConfig(M=4, gamma_p=50.0, gamma_s=30.0, R=0.5, lambda_p=0.1,
                       lambda_s=(0.0, 0.2, 0.3, 0.25))
    sol = solve_assignment(cfg, 0)
    n = 200_000
    est = estimate_schedule_throughput(cfg, sol.omega, n, seed=7)
    f = secondary_success_prob(cfg)
    for j in range(4):
        mu_expect = sol.omega[j] * f
        se = math.sqrt(mu_expect * (1.0 - mu_expect) / n)
        assert abs(est.mu_hat[j] - mu_expect) <= 4.0 * se, j
    nu = outage_probability(cfg).nu
    se = math.sqrt(nu * (1.0 - nu) / n)
    assert abs(est.primary_throughput - (1.0 - nu)) <= 4.0 * se


def test_schedule_throughput_validation_and_determinism():
    cfg = _cfg(M=3)
    with pytest.raises(ValueError):
        estimate_schedule_throughput(cfg, (0.5, 0.5), 100, seed=0)
    with pytest.raises(ValueError):
        estimate_schedule_throughput(cfg, (-0.1, 0.6, 0.5), 100, seed=0)
    # finite shares that sum to 1 within 1e-9: a short sum would hand the
    # last user every slot past it
    for omega in ((nan, 0.5, 0.5), (inf, 0.0, 0.0), (0.1, 0.1, 0.1), (0.5, 0.5, 0.5),
                  (0.2, 0.3, 0.5 + 1e-8)):
        with pytest.raises(ValueError, match="omega"):
            estimate_schedule_throughput(cfg, omega, 100, seed=0)
    # each share is a real number: a string, None, a complex or a bool is a
    # ValueError, never a TypeError or a share parsed from text
    for omega in (("0.5", 0.5, 0.0), (None, 0.5, 0.5), (0.5 + 0j, 0.5, 0.0),
                  (True, 0.0, 0.0)):
        with pytest.raises(ValueError, match="omega"):
            estimate_schedule_throughput(cfg, omega, 100, seed=0)
    # omega itself is a sequence: a bare number is a ValueError, not a TypeError
    for omega in (5, 1.0, None):
        with pytest.raises(ValueError, match="omega must be a sequence"):
            estimate_schedule_throughput(cfg, omega, 10)
    a = estimate_schedule_throughput(cfg, (0.2, 0.3, 0.5), 40_000, seed=3, workers=1)
    b = estimate_schedule_throughput(cfg, (0.2, 0.3, 0.5), 40_000, seed=3, workers=2)
    assert np.array_equal(a.mu_hat, b.mu_hat)
    assert a.primary_throughput == b.primary_throughput


@pytest.mark.parametrize("kwargs", [
    {"trials": 100.0}, {"trials": 2.5}, {"trials": nan}, {"trials": "100"}, {"trials": 0},
    {"seed": 2.5}, {"seed": -1}, {"seed": 2**128}, {"seed": nan},
    {"workers": 0}, {"workers": -1}, {"workers": nan}, {"workers": 1.0},
])
def test_monte_carlo_runs_reject_bad_counts(kwargs):
    # trials, seed and workers are integers in range, in both entry points
    cfg = _cfg(M=3)
    args = {"trials": 100, "seed": 0, "workers": 1, **kwargs}
    for run in (lambda **a: estimate_outage(cfg, **a),
                lambda **a: estimate_schedule_throughput(cfg, (0.2, 0.3, 0.5), **a)):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            run(**args)


def test_monte_carlo_runs_take_integer_likes():
    cfg = _cfg(M=3)
    a = estimate_outage(cfg, np.int64(100), seed=np.uint64(3), workers=np.int32(1))
    assert a.trials == 100 and type(a.trials) is int
    assert a.k_counts.sum() == 100
    assert a.primary.p_hat == estimate_outage(cfg, 100, seed=3).primary.p_hat
    assert estimate_outage(cfg, 1, seed=2**128 - 1).trials == 1
