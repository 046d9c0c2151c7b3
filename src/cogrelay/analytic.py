"""Closed-form primary-outage probabilities, exact and high-SNR asymptotic.

Two topologies:

* direct link present: the slot is halved, both hops run at 2R, and the
  destination MRC-combines the direct and beamformed branches.  Outage
  splits into nu1 (K >= 2 relays cooperated but the combined SINR still
  missed the threshold) and nu2 (K < 2 and the direct link alone failed).
* no direct link: the slot splits zeta/(1-zeta); with K < 2 the primary
  packet is lost outright, with K >= 2 only the beamformed branch counts.

Everything is expressed through thresholds Q = `SystemConfig.thresholds()`/gamma_p,
the per-relay decoding probability L = exp(-Q_broadcast), and the interference
variable phi = gamma_s * |h_v_pd|^2 ~ Exponential(mean gamma_s).

Both phi-averaged outages are exact finite sums of positive terms, with no
complement, no integrator and no open-ended series, so the same code is
accurate from nu ~ 1 down to the smallest normal float, about 2.2e-308.
Below that nu comes back subnormal, with fewer significant digits: M = 1024
with a direct link, gamma_p = gamma_s = 1e4 and R = 1/2 gives
4.810677115e-315, good to about 9 digits.  Case 2 conditions on
the beamforming gain instead of phi (`case2_outage`).  Case 1 conditions on
the direct branch and the beamforming gain, which leaves Gauss hypergeometric
values h_k = 2F1(1, k; n+2; a) with n + 1 - k >= 1.  One seed per call
gives the top row n = M-2 through a three-term contiguous relation run
outward in its contracting directions (`_case1_h`); each lower row follows
from the one above by a positive row descent (`_case1_row_down`).  The seed
is the O(n) log form h_{n+1} = (n+1) a^-(n+1) (-ln b - sum_{i<=n} a^i/i)
wherever it is well-conditioned: when (n+1) b <= 1/2, or when n b <= 1 (no
downward step then expands an error) and the subtraction keeps at least 1/8
of -ln b (at most 3 bits lost).  Past (n+1) b = 1/2 it is within 4.2e-15 of
40-digit mpmath.  Elsewhere the seed is a positive series whose terms a
float loop collects until one falls below half an ulp, summed by
`math.fsum`.  Neither uses `scipy.special.hyp2f1`,
which on scipy 1.17.1 returns inf or out-of-bound values for n >= 99 and
a > 0.9.

The Gamma(n, 1) beamforming gain enters both through Poisson terms: the pmf
and the tails P(n, x) = Pr{Poisson(x) >= n}, the regularized incomplete
gamma at integer order.  One routine, `_poisson`, gives both closed forms
their Poisson pmf and tails as finite sums of positive terms, with no scipy.
One kernel, `_nu1`, fed the relay-count pmf by `channel._binomial_pmf`, gives
nu1 to `outage_probability`, `qos.search_zeta` and, through `_outage_parts`,
the closed-form fits of `dmt.empirical_diversity`.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from math import comb, exp, expm1, fsum, inf, lgamma, log, log1p, pi
from sys import float_info

from .channel import _binomial_pmf, _small_k_mass
from .config import Case, SystemConfig, _split_threshold

_log = logging.getLogger(__name__)


class InvalidCase(Exception):
    """Operation called for the wrong topology case."""


class QuadratureFailure(Exception):
    """Adaptive phi-averaging could not reach the requested tolerance.

    The closed forms here never raise it; it stays the error type of the
    quadrature oracles that check them.
    """


@dataclass(frozen=True)
class OutageBreakdown:
    nu1: float    # outage with K >= 2 (combined/relayed signal undecodable)
    nu2: float    # outage with K < 2 (plus direct-link failure in case 1)
    nu: float     # nu1 + nu2 clipped into [0, 1]


def _clip_unit(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _breakdown(nu1: float, nu2: float) -> OutageBreakdown:
    total = nu1 + nu2
    # each part, like their sum, can round a few ulp past 1
    nu = _clip_unit(total)
    if nu != total:
        _log.debug("clipped nu1+nu2 = %r to %r", total, nu)
    return OutageBreakdown(nu1=_clip_unit(nu1), nu2=_clip_unit(nu2), nu=nu)


def _log_poisson_pmf(j: int, x: float) -> float:
    """log(e^-x x^j/j!) for j >= 1.

    Below j = 30 the direct form loses a few ulp of x.  From j = 30 on,
    Stirling's series for log j! takes the large cancelling terms of
    -x + j log x - log j! apart analytically (Loader 2000), which leaves
    (j - x) + j log1p((x-j)/j): a few ulp of |x - j| instead, so near the
    mode the pmf keeps full relative precision.
    """
    if j < 30:
        return -x + j * log(x) - lgamma(j + 1)
    r = 1.0 / (j * j)
    stirlerr = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / j
    return (j - x) + j * log1p((x - j) / j) - 0.5 * log(2.0 * pi * j) - stirlerr


def _poisson(n: int, x: float) -> tuple[list, list]:
    """Poisson(x) pmf p_j and tails T_j = Pr{N >= j} = P(j, x), for j = 0..n.

    p runs the recurrence p_j = p_{j-1} x/j up from e^-x.  Where e^-x is
    subnormal or 0 (x > ~708) it runs outward from p at min(n, floor(x)),
    the largest term in range, taken from `_log_poisson_pmf`; both
    directions then shrink.  T_n is the positive series
    p_n sum_k x^k/((n+1)...(n+k)) when x < n+1: its term ratio x/k is below
    1/2 from k = 2n+2, so even run to k = 2n+63 it is bounded.
    Otherwise T_n = 1 - sum_{j<n} p_j, which loses nothing, since T_n is then
    above ~1/2.  Below n, T_j = T_{j+1} + p_j adds positive terms only.
    """
    if x == inf:
        return [0.0] * (n + 1), [1.0] * (n + 1)
    p = [0.0] * (n + 1)
    p[0] = exp(-x)
    j0 = 0 if p[0] >= float_info.min else min(n, int(x))
    if j0:
        p[j0] = exp(_log_poisson_pmf(j0, x))
    for j in range(j0, 0, -1):
        p[j - 1] = p[j] * j / x
    for j in range(j0, n):
        p[j + 1] = p[j] * x / (j + 1)
    if x < n + 1:
        term = series = 1.0
        for k in range(n + 1, 2 * n + 64):
            term *= x / k
            if term < 1e-17 * series:
                break             # below half an ulp: no later term moves the sum
            series += term
        tail = [p[n] * series]
    else:
        tail = [1.0 - fsum(p[:n])]
    for j in range(n - 1, -1, -1):
        tail.append(tail[-1] + p[j])
    return p, tail[::-1]


def _log_moments(n_max: int, gamma_s: float) -> list:
    """log(E[(1+phi)^n]/n!) for n = 0..n_max, phi ~ Exponential(mean gamma_s).

    E[(1+phi)^n]/n! = sum_{i<=n} gamma_s^(n-i)/i! overflows for large n, so
    for gamma_s > 1 it is kept as gamma_s^n r_n with r_n = sum_{i<=n}
    gamma_s^-i/i! in [1, e]; otherwise the moment E_n = 1 + n gamma_s E_{n-1}
    itself stays below e*n!.
    """
    out = [0.0]
    if gamma_s > 1.0:
        log_g = log(gamma_s)
        term = r = 1.0
        for n in range(1, n_max + 1):
            term /= n * gamma_s
            r += term
            out.append(n * log_g + log(r))
    else:
        e = 1.0
        for n in range(1, n_max + 1):
            e = 1.0 + n * gamma_s * e
            out.append(log(e) - lgamma(n + 1))
    return out


def _log_pow(x: float, n: int) -> float:
    """log(x^n), with 0^0 = 1 and log(0) = -inf."""
    if n == 0:
        return 0.0
    return n * log(x) if x > 0.0 else -inf


def _exp(x: float) -> float:
    """exp(x), saturating to inf where math.exp raises OverflowError."""
    try:
        return exp(x)
    except OverflowError:
        return inf


def _interference_map(cg: float) -> tuple[float, float]:
    """(a, b) = (cg/(1+cg), 1/(1+cg)), a formed without cancellation on either side of 1."""
    b = 1.0 / (1.0 + cg)
    return (cg * b if cg <= 1.0 else 1.0 - b), b


# --- case 1: direct link + MRC ------------------------------------------


def _nu_small_k(cfg: SystemConfig, q: float) -> float:
    """nu2: Pr{K < 2} at per-relay threshold q, times (case 1 only) Pr{direct link fails}.

    With a direct link that hop runs at the broadcast's rate 2R, so it fails
    with probability 1 - e^-q at the same q.
    """
    p_lt2 = _small_k_mass(cfg.M - 1, q)
    return p_lt2 * -expm1(-q) if cfg.case is Case.DIRECT_LINK else p_lt2


def _case1_h(n: int, a: float, b: float) -> list:
    """h with h[k] = 2F1(1, k; n+2; a) for k = 0..n, where 0 <= a <= 1, b = 1 - a.

    `_case1_nu1` seeds only its top row n = M-2 here and takes every lower
    row from `_case1_row_down`.

    Uses the contiguous relation (DLMF 15.5)

        (n+1-k) h_k + k b h_{k+1} = n+1,

    solved downward (for h_k) below a seed index and upward (for h_{k+1})
    above it.  Each step then computes the larger of the two left-hand terms
    by subtraction from n+1, so rounding errors shrink from step to step.
    The two terms balance near k* = (n+1)/(2-a), which is the seed, summed
    from its positive series sum_j (k*)_j/(n+2)_j a^j.  Its term ratios stay
    below a, so 40/b terms reach e^-40.  A float loop collects them up to
    the first term below 1e-17; each later one is a times smaller, so the
    dropped terms sum to under 1e-17/b, while the seed itself grows about as
    1/b: against mpmath the dropped part stays under 4e-17 of it, below half
    an ulp.  `math.fsum` adds the kept terms with one rounding, where a
    running sum drifts to 1e-13 over the 63,000 terms at n = 1022.

    Where it is well-conditioned the seed is instead the O(n) log form
    h_{n+1} = (n+1) a^-(n+1) (-ln b - sum_{i<=n} a^i/i), the series of
    -ln b = sum_i a^i/i with its first n terms taken off, and every h_k
    below it comes from the downward recurrence.  An error e in h_{k+1}
    enters h_k as k b e/(n+1-k), at most n b e, so with n b <= 1 no downward
    step expands an error.  The subtraction is well-conditioned when it keeps
    at least 1/8 of -ln b, which loses at most 3 bits.  So the log form runs
    when (n+1) b <= 1/2, where the series converges too slowly and every
    downward step contracts, or when n b <= 1 and the subtraction keeps
    1/8; the series runs everywhere else.  Past (n+1) b = 1/2 the log form
    is within 4.2e-15 of 40-digit mpmath (1,918 random draws, n from 1 to
    1022); a looser 1/16 rule reaches 2e-14 to 4.5e-14 at n = 100 to 1022.
    """
    h = [1.0] * (n + 2)
    k0 = min(max(round((n + 1) / (2.0 - a)), 1), n)
    if n * b <= 1.0:
        apow, head = 1.0, 0.0
        for i in range(1, n + 1):
            apow *= a
            head += apow / i
        lb = -log(b) if b > 0.0 else inf
        if (n + 1) * b <= 0.5 or 8.0 * (lb - head) >= lb > 0.0:
            k0 = n + 1
            # b = 0 (Q*gamma_s overflowed) drops every k b h_{k+1} term below
            h[k0] = (n + 1) * (lb - head) / (apow * a) if b > 0.0 else 0.0
    if k0 <= n:
        term, terms = 1.0, [1.0]
        for j in range(int(40.0 / b) + 1):
            term *= (k0 + j) / (n + 2 + j) * a
            if term < 1e-17:
                break
            terms.append(term)
        h[k0] = fsum(terms)
        for k in range(k0, n):
            h[k + 1] = (n + 1 - (n + 1 - k) * h[k]) / (k * b)
    for k in range(k0 - 1, 0, -1):
        h[k] = (n + 1 - k * b * h[k + 1]) / (n + 1 - k)
    return h


def _case1_row_down(h: list, a: float, n: int) -> list:
    """Row n of h_k = 2F1(1, k; n+2; a), k = 0..n, from row n+1 (entries up to k = n+1).

    The Euler integral 2F1(1, k; n+2; a) = (n+1) int_0^1 (1-t)^n (1-at)^-k dt
    (DLMF 15.6.1), integrated by parts, gives

        h_k(n) = 1 + k a h_{k+1}(n+1)/(n+2),

    a sum of positive terms: a relative error in row n+1 does not grow in row n.
    """
    c = a / (n + 2)
    return [1.0] + [1.0 + k * c * h[k + 1] for k in range(1, n + 1)]


def _case1_nu1(Q: float, gamma_s: float, pmf) -> float:
    """nu1 = sum_{K>=2} pmf[K] I_{K-1}(Q), I_n(Q) = Pr{D + G_n/(1+phi) < Q}.

    With D ~ Exp(1), G_n ~ Gamma(n, 1) and Pr{1+phi > y} = e^{-c(y-1)},
    c = 1/gamma_s, conditioning on D and G_n gives

        I_n(Q) = P(n+1, Q) + e^-Q sum_{k=1..n} F_{n,k}/(n-k)!,
        F_{n,k} = int_0^Q v^n (v+c)^-k dv = (Q+c)^{n+1-k} a^{n+1} h_k/(n+1),

    with a = Q/(Q+c) and h_k = 2F1(1, k; n+2; a).  Regrouped as
    I_n = P(n+1, Q) + Q/(n+1) sum_k pi_{n-k} a^k h_k, with pi_j = e^-Q Q^j/j!
    the Poisson pmf, pi_j, a^k and h_k all lie in [0, n+1]: nothing overflows
    and, every term being positive, the deep tail keeps full relative precision.
    K runs downward: one seed gives the top row n = M-2 (`_case1_h`), and
    each lower row comes from the one above by the positive row descent
    `_case1_row_down`.  Once P(K, Q) rounds to 1, I_n is pinned between it
    and 1 for this and every smaller K.
    """
    a, b = _interference_map(Q * gamma_s)
    pois, tail = _poisson(len(pmf) - 1, Q)
    nu1, h = 0.0, None
    for K in range(len(pmf) - 1, 1, -1):
        if tail[K] == 1.0:
            nu1 += fsum(pmf[2:K + 1])
            break
        n = K - 1
        h = _case1_h(n, a, b) if h is None else _case1_row_down(h, a, n)
        acc, apow = 0.0, 1.0
        for k in range(1, n + 1):
            apow *= a
            acc += pois[n - k] * apow * h[k]
        nu1 += pmf[K] * (tail[K] + Q / (n + 1) * acc)
    return nu1


def case1_outage(cfg: SystemConfig) -> OutageBreakdown:
    """Primary outage with a direct link, averaged over the interference phi.

    Exact and finite: nu1 = sum_K pmf[K] I_{K-1}(Q) with
    I_n = P(n+1, Q) + Q/(n+1) sum_{k=1..n} pi_{n-k}(Q) a^k h_k, derived in
    `_case1_nu1`.  The h_k = 2F1(1, k; n+2; a) come from one seeded top row
    (`_case1_h`) and the positive row descent below it (`_case1_row_down`),
    not from `scipy.special.hyp2f1`, which on scipy 1.17.1 is inf or outside
    1 <= h_k <= (n+1)/(n+1-k) for n >= 99 and a > 0.9.
    """
    if cfg.case is not Case.DIRECT_LINK:
        raise InvalidCase("case1_outage needs cfg.case = DIRECT_LINK")
    return outage_probability(cfg)


# --- case 2: no direct link ----------------------------------------------


def _case2_nu1(c: float, gamma_s: float, pmf) -> float:
    """nu1 = sum_{K>=2} pmf[K] A_{K-1}(c), A_n(c) = Pr{G_n < c(1+phi)}, G_n ~ Gamma(n, 1).

    Conditioning on G_n instead of phi, Pr{phi >= G_n/c - 1} =
    e^{-(G_n/c-1)^+/gamma_s}, and integrating against the Gamma density gives

        A_n(c) = P(n, c) + S_n,  S_n = sum_{j=1..n} pi_{n-j}(c) a^j,

    with a = c gamma_s/(1 + c gamma_s) and pi the Poisson(c) pmf: A_n =
    E[a^{(n-N)^+}] for N ~ Poisson(c), a sum of positive terms.
    """
    pois, tail = _poisson(len(pmf) - 2, c)
    a, _ = _interference_map(c * gamma_s)
    nu1 = s = 0.0
    for n in range(1, len(pmf) - 1):
        s = a * (s + pois[n - 1])     # S_n = a (S_{n-1} + pi_{n-1})
        nu1 += pmf[n + 1] * (tail[n] + s)
    return nu1


def case2_outage(cfg: SystemConfig) -> OutageBreakdown:
    """Primary outage without a direct link: nu1 from `_case2_nu1`, nu2 = Pr{K < 2}."""
    if cfg.case is not Case.NO_DIRECT_LINK:
        raise InvalidCase("case2_outage needs cfg.case = NO_DIRECT_LINK")
    return outage_probability(cfg)


# --- both topologies -----------------------------------------------------


def _nu1(cfg: SystemConfig, q: float, q_f: float) -> float:
    """nu1 by topology at broadcast and forward thresholds q and q_f (over gamma_p)."""
    pmf = _binomial_pmf(cfg.M - 1, q)
    if cfg.case is Case.DIRECT_LINK:
        return _case1_nu1(q_f, cfg.gamma_s, pmf)
    return _case2_nu1(q_f, cfg.gamma_s, pmf)


def _outage_parts(cfg: SystemConfig, R: float, gamma_p: float) -> tuple[float, float]:
    """(nu1, nu2) of cfg's topology, M, gamma_s and zeta at rate R and primary SNR gamma_p.

    The thresholds are `thresholds()`'s, from `config._split_threshold`, so at
    (cfg.R, cfg.gamma_p) this is `outage_probability(cfg)` bit for bit, and a
    caller that varies only R and gamma_p needs no config per point.
    """
    q = _split_threshold(R, cfg.zeta) / gamma_p
    return _nu1(cfg, q, _split_threshold(R, cfg.zeta, True) / gamma_p), _nu_small_k(cfg, q)


def outage_probability(cfg: SystemConfig) -> OutageBreakdown:
    """nu1 from `_nu1`, nu2 from `_nu_small_k`, at the config's two thresholds."""
    return _breakdown(*_outage_parts(cfg, cfg.R, cfg.gamma_p))


def outage_highsnr(cfg: SystemConfig) -> float:
    """Leading term of the primary outage as gamma_p grows, for either topology.

    sum_{K=1..M-1} C(M-1,K) Q_b^{M-1-K} Q_f^{K-1+d} E[(1+phi)^{K-1}]/((K-1)! K^d),
    with Q_b and Q_f the broadcast- and forward-phase thresholds.  The direct
    link (d = 1, Q_b = Q_f = Q) adds one power of Q, so the sum is of order
    gamma^-(M-1) with it and gamma^-(M-2) without.  Terms are formed in logs:
    for large M the moments overflow while the Q powers underflow.  It is an
    asymptote, not a bound: far from high SNR it can exceed 1 or be inf, as at
    M = 1024, gamma_s = 1e4 and gamma_p = 50, which the CLI's outage-curve
    prints as its nu_highsnr.
    """
    d = 1 if cfg.case is Case.DIRECT_LINK else 0
    q_b, q_f = (thr / cfg.gamma_p for thr in cfg.thresholds())
    m = cfg.M - 1
    log_s = _log_moments(m - 1, cfg.gamma_s)
    return sum(
        _exp(log(comb(m, K) / K**d) + _log_pow(q_b, m - K) + _log_pow(q_f, K - 1 + d)
             + log_s[K - 1])
        for K in range(1, cfg.M)
    )
