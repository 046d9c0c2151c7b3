"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Statistical criteria run at fixed seeds so the suite is deterministic; the
tolerances are the contractual ones (3 sigma, KS < 0.01, etc.), never
widened.  Expect the Monte Carlo criteria (1, 2) to dominate the runtime.
"""
import math

import numpy as np
from scipy import stats

from cogrelay import (SystemConfig, case2_outage, effective_gain,
                      empirical_diversity, estimate_outage,
                      estimate_schedule_throughput, optimal_weights,
                      outage_highsnr, outage_probability,
                      secondary_success_prob, solve_assignment, substream)
from cogrelay.cli import ExperimentSpec, run_experiment
from oracles import average_over_phi, case2_outage_given_phi, projection_matrix

MC_TRIALS = 1_000_000
SEED_CASE1 = 1000
SEED_CASE2 = 1500
SEED_SCHEDULE = 9000


def _report(capsys, num, name, ok, detail):
    line = f"CRITERION {num:>2} {'PASS' if ok else 'FAIL'} - {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _draw(rs, shape):
    return (rs.standard_normal(shape) + 1j * rs.standard_normal(shape)) * np.sqrt(0.5)


def _mc_grid(case, base_seed):
    """(worst |z|, where it fell, points) over the stress grid at 1e6 slots per point.

    Where names the worst point and its Monte Carlo seed base_seed + row, so
    that one `estimate_outage` call replays it.
    """
    zetas = (0.4, 0.5, 0.6) if case == "nodirect" else (0.5,)
    worst, where, row = 0.0, "every point exact", 0
    for M in (3, 4, 6):
        for g in (10.0, 50.0, 200.0):
            for R in (0.25, 0.5, 1.0):
                for z in zetas:
                    cfg = SystemConfig(M=M, gamma_p=g, gamma_s=30.0, R=R,
                                       case=case, zeta=z)
                    nu = outage_probability(cfg).nu
                    p = estimate_outage(cfg, MC_TRIALS, seed=base_seed + row,
                                        workers=2).primary.p_hat
                    se = math.sqrt(nu * (1.0 - nu) / MC_TRIALS)
                    dev = abs(p - nu) / se if se > 0 else (0.0 if p == nu else math.inf)
                    if dev > worst:
                        where = (f"M={M}, gamma_p={g:g}, R={R:g}, zeta={cfg.zeta:g}, "
                                 f"MC seed {base_seed}+{row}")
                    worst = max(worst, dev)
                    row += 1
    return worst, where, row


def test_criterion_1_closed_form_vs_mc_direct_link(capsys):
    worst, where, points = _mc_grid("direct", SEED_CASE1)
    _report(capsys, 1, "closed form vs Monte Carlo, direct link", worst <= 3.0,
            f"worst |z| = {worst:.2f} ({where}) over {points} grid points at N=10^6")


def test_criterion_2_closed_form_vs_mc_no_direct_link(capsys):
    worst, where, points = _mc_grid("nodirect", SEED_CASE2)
    _report(capsys, 2, "closed form vs Monte Carlo, no direct link", worst <= 3.0,
            f"worst |z| = {worst:.2f} ({where}) over {points} grid points at N=10^6")


def test_criterion_3_phi_average_identity(capsys):
    rng = np.random.default_rng(333)
    worst = 0.0
    for _ in range(10):
        cfg = SystemConfig(M=int(rng.integers(3, 7)),
                           gamma_p=float(rng.uniform(5, 300)),
                           gamma_s=float(rng.uniform(5, 80)),
                           R=float(rng.uniform(0.1, 1.2)), case="nodirect",
                           zeta=float(rng.uniform(0.25, 0.75)))
        closed = case2_outage(cfg).nu
        avg = average_over_phi(lambda p: case2_outage_given_phi(cfg, p).nu,
                               cfg.gamma_s)
        worst = max(worst, abs(avg - closed) / closed)
    _report(capsys, 3, "quadrature of conditional form equals closed form",
            worst <= 1e-6, f"worst relative gap = {worst:.2e} over 10 random points")


def test_criterion_4_beamforming_gain_distribution(capsys):
    worst = 0.0
    for K in (2, 3, 5, 8):
        rs = substream(444, K)
        n = 100_000
        alpha = effective_gain(_draw(rs, (n, K)), _draw(rs, (n, K)),
                               np.ones((n, K), dtype=bool))
        d = stats.kstest(alpha, "gamma", args=(K - 1,)).statistic
        worst = max(worst, d)
    _report(capsys, 4, "gain is Gamma(K-1,1) for K in {2,3,5,8}", worst < 0.01,
            f"worst KS distance = {worst:.5f} at 10^5 draws per K")


def test_criterion_5_zero_forcing_invariants(capsys):
    rs = substream(555, 0)
    max_leak = max_norm_dev = 0.0
    for _ in range(100_000):
        k = int(rs.integers(2, 9))
        res = optimal_weights(_draw(rs, k), _draw(rs, k))
        max_leak = max(max_leak, res.leakage)
        max_norm_dev = max(max_norm_dev, abs(np.linalg.norm(res.g) - 1.0))
    rs2 = substream(555, 1)
    worst_ratio = 0.0
    for _ in range(1000):
        k = int(rs2.integers(2, 7))
        h_pd, h_sd = _draw(rs2, k), _draw(rs2, k)
        res = optimal_weights(h_pd, h_sd)
        cand = _draw(rs2, (64, k)) @ projection_matrix(h_sd).T
        nn = np.linalg.norm(cand, axis=1)
        cand = cand[nn > 1e-9] / nn[nn > 1e-9, None]
        worst_ratio = max(worst_ratio,
                          float(np.max(np.abs(cand.conj() @ h_pd) ** 2)) / res.alpha)
    ok = max_leak < 1e-20 and max_norm_dev < 1e-12 and worst_ratio <= 1.001
    _report(capsys, 5, "zero forcing: leakage, unit norm, optimality", ok,
            f"max leakage {max_leak:.1e}, max |norm-1| {max_norm_dev:.1e}, "
            f"best rival gain / alpha = {worst_ratio:.6f}")


def test_criterion_6_diversity_order(capsys):
    grid = np.logspace(3, 5, 5)
    detail, ok = [], True
    for case, gap in (("direct", 1), ("nodirect", 2)):
        for M in (3, 4, 6):
            cfg = SystemConfig(M=M, gamma_p=50.0, gamma_s=30.0, R=0.5,
                               case=case, zeta=0.5)
            d = empirical_diversity(cfg, 0.0, grid)
            ok = ok and abs(d - (M - gap)) <= 0.3
            detail.append(f"{case} M={M}: {d:.2f}/{M - gap}")
    _report(capsys, 6, "empirical diversity matches M-1 / M-2", ok, "; ".join(detail))


def test_criterion_7_high_snr_asymptote(capsys):
    ok, detail = True, []
    for case in ("direct", "nodirect"):
        for M in (3, 4, 6):
            ratios = []
            for g in (1e2, 1e3, 1e4):
                cfg = SystemConfig(M=M, gamma_p=g, gamma_s=30.0, R=0.5,
                                   case=case, zeta=0.5)
                ratios.append(outage_probability(cfg).nu / outage_highsnr(cfg))
            ok = ok and 0.5 < ratios[-1] < 2.0
            ok = ok and abs(1.0 - ratios[0]) > abs(1.0 - ratios[-1])
            detail.append(f"{case} M={M}: {ratios[-1]:.3f}")
    _report(capsys, 7, "exact/asymptote ratio near 1 at gamma=10^4", ok,
            "ratio at 10^4 -> " + "; ".join(detail))


def test_criterion_8_qos_endpoint(capsys, tmp_path):
    from cogrelay.cli import build_spec

    out = tmp_path / "fig1.csv"
    spec, values = build_spec(["--experiment", "fig1", "--out", str(out)])
    assert run_experiment(spec, values) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    by_m = {m: [r for r in rows if r[0] == str(m)] for m in (4, 5, 6)}
    start5 = float(by_m[5][0][2])
    ok = abs(start5 - 0.45) <= 1e-15
    for m in (4, 5, 6):
        vals = [float(r[2]) for r in by_m[m]]
        ok = ok and all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    for r4, r5, r6 in zip(by_m[4], by_m[5], by_m[6]):
        ok = ok and float(r4[2]) > float(r5[2]) > float(r6[2])
    _report(capsys, 8, "fig1 endpoint 0.45 exactly, monotone in R and M", ok,
            f"lambda_1_max(R=0, M=5) = {start5!r}, "
            f"starts: {[float(by_m[m][0][2]) for m in (4, 5, 6)]}")


def test_criterion_9_assignment_soundness(capsys):
    rng = np.random.default_rng(SEED_SCHEDULE)
    trials, violations = 50_000, 0
    for i in range(100):
        M = int(rng.integers(3, 7))
        case = "direct" if rng.random() < 0.5 else "nodirect"
        probe = SystemConfig(M=M, gamma_p=float(rng.uniform(10, 200)),
                             gamma_s=float(rng.uniform(10, 60)),
                             R=float(rng.uniform(0.1, 1.0)), case=case,
                             zeta=float(rng.uniform(0.3, 0.7)))
        f = secondary_success_prob(probe)
        nu = outage_probability(probe).nu
        raw = rng.random(M)
        lam = tuple(raw / raw.sum() * f * float(rng.uniform(0.3, 0.9)))
        lam_p = float(rng.uniform(0.0, 0.9) * (1.0 - nu))
        cfg = SystemConfig(M=M, gamma_p=probe.gamma_p, gamma_s=probe.gamma_s,
                           R=probe.R, case=case, zeta=probe.zeta,
                           lambda_p=lam_p, lambda_s=lam)
        sol = solve_assignment(cfg, int(rng.integers(0, M)))
        est = estimate_schedule_throughput(cfg, sol.omega, trials,
                                           seed=SEED_SCHEDULE + 37 * i)
        for j in range(M):
            if est.mu_hat[j] < cfg.lambda_s[j] - 3.0 * est.stderr[j]:
                violations += 1
        if est.primary_throughput < lam_p - 3.0 * est.primary_stderr:
            violations += 1
    _report(capsys, 9, "scheduled throughput meets every QoS target", violations == 0,
            f"{violations} violations over 100 random feasible instances")


def test_criterion_10_worker_determinism(capsys, tmp_path):
    from cogrelay.cli import main

    files = []
    for w in (1, 4, 16):
        out = tmp_path / f"v{w}.csv"
        code = main(["--experiment", "validate", "--trials", "20000",
                     "--seed", "9", "--workers", str(w), "--out", str(out)])
        assert code == 0
        files.append(out.read_bytes())
    ok = files[0] == files[1] == files[2]
    _report(capsys, 10, "byte-identical CSV across worker counts {1,4,16}", ok,
            f"{len(files[0])} bytes each")
