"""QoS-constrained TDMA assignment for the secondary users.

Secondary user j is scheduled with probability omega_j and its packet goes
through with probability f = exp(-threshold/gamma_s), so its long-run
throughput is omega_j * f.  Meeting targets lambda_j for every user while the
primary stays below its outage budget is a pair of linear constraints; the
closed-form optimum assigns omega_j = lambda_j / f to everyone except the
tagged user k, which absorbs the rest of the frame.  One solver, `_solve`,
evaluates nu once per operating point; the public functions, the CLI rows
and the split `search_zeta` returns are views of it.  Its scan bisects past
the splits the K < 2 mass alone rules out, skips whole runs of splits on one
lower bound on nu each, prunes the rest on scalars, and sums nu1 with
`analytic._nu1`, as `outage_probability` does, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp, fsum, nan

from .analytic import InvalidCase, _clip_unit, _nu1, _nu_small_k, outage_probability
from .config import Case, SystemConfig, _as_index, _split_threshold


class PrimaryInfeasible(Exception):
    """Primary outage budget cannot be met at this operating point."""


class SecondaryInfeasible(Exception):
    """The secondary rate demands exceed the frame's service capacity."""


@dataclass(frozen=True)
class QosSolution:
    feasible: bool
    omega: tuple           # slot-share per secondary user, sums to 1 when feasible
    zeta: float            # slot split in effect (echoed from the config)
    lambda_k_max: float    # largest throughput still available to the tagged user
    slack: float           # f - sum(lambda_s): unused service probability
    k: int                 # tagged user index


def _success_prob(threshold: float, gamma_s: float) -> float:
    return exp(-threshold / gamma_s)


def secondary_success_prob(cfg: SystemConfig) -> float:
    """Probability a scheduled secondary transmission meets its own rate."""
    return _success_prob(cfg.thresholds()[1], cfg.gamma_s)


def _infeasible(cfg: SystemConfig, k: int, zeta: float, lambda_k_max: float) -> QosSolution:
    """NaN omega and slack; a row's lambda_k_max is max_lambda_k's (0 if the primary fails)."""
    return QosSolution(feasible=False, omega=(nan,) * cfg.M, zeta=zeta,
                       lambda_k_max=lambda_k_max, slack=nan, k=k)


def _solve(cfg: SystemConfig, k: int, nu: float | None = None):
    """(solution, error or None) at one operating point; infeasible, the CLI row's marker.

    The error is what the raising API throws, the primary checked first.
    nu is the primary outage at cfg, evaluated here unless the caller has it.
    """
    k = _as_index("k", k, 0, cfg.M)
    nu = outage_probability(cfg).nu if nu is None else nu
    if cfg.lambda_p > 1.0 - nu:
        return _infeasible(cfg, k, cfg.zeta, 0.0), PrimaryInfeasible(
            f"primary needs throughput {cfg.lambda_p} but the link sustains {1.0 - nu:.6g}")
    f = secondary_success_prob(cfg)
    total = fsum(cfg.lambda_s)
    lambda_k_max = max(0.0, f - fsum(lam for j, lam in enumerate(cfg.lambda_s) if j != k))
    if total > f:
        return _infeasible(cfg, k, cfg.zeta, lambda_k_max), SecondaryInfeasible(
            f"rate demands sum to {total:.6g} > service probability {f:.6g}")
    omega = [lam / f if lam else 0.0 for lam in cfg.lambda_s]   # f may be 0
    omega[k] = max(0.0, 1.0 - fsum(w for j, w in enumerate(omega) if j != k))
    return QosSolution(feasible=True, omega=tuple(omega), zeta=cfg.zeta,
                       lambda_k_max=lambda_k_max, slack=f - total, k=k), None


def max_lambda_k(cfg: SystemConfig, k: int) -> float:
    """Largest extra throughput user k can be promised on top of the others.

    Raises PrimaryInfeasible when the primary outage budget already fails;
    clamps to 0 when the other users alone exhaust the frame.
    """
    sol, err = _solve(cfg, k)
    if isinstance(err, PrimaryInfeasible):
        raise err
    return sol.lambda_k_max


def solve_assignment(cfg: SystemConfig, k: int) -> QosSolution:
    """Slot shares meeting every lambda_j with the leftover given to user k."""
    sol, err = _solve(cfg, k)
    if err is not None:
        raise err
    return sol


def search_zeta(cfg: SystemConfig, k: int, grid_size: int = 999) -> QosSolution:
    """Best slot split for the no-direct-link case: the first feasible grid zeta.

    Scans zeta = i/(grid_size+1), i = 1..grid_size, upward.  The secondary
    rate R/(1-zeta) grows with zeta, so f, slack = f - sum(lambda_s) and
    lambda_k_max never rise, and the first point meeting both constraints is
    the grid optimum (largest slack, then lambda_k_max, then smallest zeta);
    with none, an infeasible marker is returned.  Exact prunes before the
    outage closed form: stop once sum(lambda_s) > f; skip a point with
    lambda_p > 1 - min(nu2, 1), which is >= 1 - nu because nu1 >= 0; nu2 is the
    two-term K < 2 mass; only a split past both prunes reaches `analytic._nu1`.
    Thresholds come from `config._split_threshold`, as in `thresholds()`.

    Two exact shortcuts pass over splits that fail the primary, both against
    cut = (1 - lambda_p)(1 + 1e-11) + 2^-52:

    * nu2 only falls as zeta grows, since the broadcast threshold 2^(R/zeta) - 1
      does, so a bisection finds the last split lo whose nu2 exceeds cut (none
      when cut is 1 or more), for about log2(grid_size) nu2 evaluations.
    * Past lo the scan tests six splits one at a time, then takes runs of
      doubling width, each aligned to its width: splits 7-8, 9-16, 17-32, ...
      past lo.  nu = E[g(K)] with K ~ Bin(M-1, L), g(0) = g(1) = 1 and
      g(K) = A_{K-1}(c) of `analytic._case2_nu1`, the chance that the
      Gamma(K-1) gain misses c(1 + phi).  g does not rise with K (more relays,
      more gain) nor fall with the forward threshold c, and L = e^-q and c
      both rise with zeta.  So every split of a run i..j has nu >=
      nu1(q_j, c_i) + nu2(q_j): one ordinary `_nu1` call at the broadcast
      threshold of j and the forward one of i.  A run whose bound exceeds
      cut is skipped; any other is halved, left half first, down to single
      splits.  An f stop at a run's first split ends the scan, f only falling.

    The margin: the per-split test passes a split only if its nu is at most
    1 - lambda_p + 2^-53, 2^-53 being the rounding of 1 - nu.  nu is tested
    to 1e-12 relative error against mpmath, nu2 to a few ulp, so a run bound,
    or an nu2, above cut can lie over such a split only if two relative
    errors of 1e-12 sum past 1e-11.  The margin is relative because the
    errors are: an absolute one would, with lambda_p near 1, cover every
    split of small nu.  So the split returned, and its nu, are bit for bit
    those of the scan from split 1.

    Cost: a search that succeeds among the first six splits past lo makes
    the scan's `_nu1` calls and no more.  Past them a run whose nu clears cut
    well is skipped whole, so a first feasible split d further on, or none,
    takes O(log d) calls: 20 instead of 50,338 at M = 4, gamma_p = 3, R = 1,
    lambda_p = 0.3 and grid_size 10^5.  The worst case stays linear: a split
    whose nu lies between 1 - lambda_p and cut is in no skipped run, and when
    many do, their runs are halved down to single splits, about one bound
    per split on top of the scan's own sums.
    """
    if cfg.case is not Case.NO_DIRECT_LINK:
        raise InvalidCase("search_zeta applies to the no-direct-link case only")
    k = _as_index("k", k, 0, cfg.M)
    grid_size = _as_index("grid_size", grid_size, 1)
    total = fsum(cfg.lambda_s)
    n = grid_size + 1
    # bisect for the last split lo whose nu2 alone fails the primary by the margin
    cut = (1.0 - cfg.lambda_p) * (1.0 + 1e-11) + 2.0**-52
    lo, hi = 0, n if cut < 1.0 else 1     # only rounding puts nu2 past a cut >= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _nu_small_k(cfg, _split_threshold(cfg.R, mid / n) / cfg.gamma_p) > cut:
            lo = mid
        else:
            hi = mid

    i, width = lo + 1, 1
    while i < n:
        j = min(i + width, n) - 1       # the run i..j
        thr_f = _split_threshold(cfg.R, i / n, True)      # the forward phase
        if total > _success_prob(thr_f, cfg.gamma_s):
            break
        q = _split_threshold(cfg.R, j / n) / cfg.gamma_p
        nu2 = _nu_small_k(cfg, q)     # reads no zeta without a direct link
        if i < j:                     # every split of the run has nu >= its bound
            if _nu1(cfg, q, thr_f / cfg.gamma_p) + nu2 <= cut:
                width = (j - i + 1) // 2      # bisect: its left half next
                continue
        elif cfg.lambda_p <= 1.0 - min(nu2, 1.0):
            nu = _clip_unit(_nu1(cfg, q, thr_f / cfg.gamma_p) + nu2)
            if cfg.lambda_p <= 1.0 - nu:
                return _solve(replace(cfg, zeta=i / n), k, nu)[0]
        i, o = j + 1, j - lo          # o splits past lo are done
        # the widest run from o aligned to its width: after six single splits,
        # o = 6..7, 8..15, 16..31, ...; after a left half, its sibling.  No
        # bound exceeds a cut >= 1.
        width = o & -o if cut < 1.0 and o >= 6 else 1
    return _infeasible(cfg, k, nan, 0.0)
