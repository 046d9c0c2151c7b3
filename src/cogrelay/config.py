"""System configuration for the cooperative cognitive relaying model.

One primary transmitter shares a TDMA frame with M secondary users.  In
every slot one secondary acts as source while the remaining M-1 listen to
the primary broadcast and, if they decode it, forward it with a
zero-forcing beamformer on top of the secondary transmission.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum


class Case(str, Enum):
    """Topology variant.

    DIRECT_LINK: the primary destination also hears the primary transmitter,
    so the slot is split in half and both hops run at rate 2R; its config
    stores zeta = 1/2, whatever zeta it is given.
    NO_DIRECT_LINK: the destination only hears the relays; the slot is split
    zeta / (1 - zeta) between broadcast and forwarding.
    """

    DIRECT_LINK = "direct"
    NO_DIRECT_LINK = "nodirect"


@dataclass(frozen=True)
class SystemConfig:
    M: int                      # number of secondary users, 2..1024 (C(M-1, K) overflows from 1031)
    gamma_p: float              # primary transmit SNR
    gamma_s: float              # secondary transmit SNR
    R: float                    # primary target rate (bits/s/Hz, per full slot)
    case: Case = Case.DIRECT_LINK
    zeta: float = 0.5           # broadcast-phase fraction; a direct link stores 1/2
    lambda_p: float = 0.0       # primary throughput target (packets/slot)
    lambda_s: tuple[float, ...] | None = None  # per-SU throughput targets, length M (default zeros)

    def __post_init__(self):
        object.__setattr__(self, "M", _as_index("M", self.M, 2, 1025))
        for name in ("gamma_p", "gamma_s", "R", "zeta", "lambda_p"):
            object.__setattr__(self, name, _as_real(name, getattr(self, name)))
        if not isinstance(self.case, Case):
            object.__setattr__(self, "case", Case(self.case))
        targets = (0.0,) * self.M if self.lambda_s is None else self.lambda_s
        object.__setattr__(self, "lambda_s", _as_reals("lambda_s", targets))
        if not (0.0 < self.gamma_p < math.inf and 0.0 < self.gamma_s < math.inf):
            raise ValueError(f"SNRs must be finite and > 0, got {self.gamma_p} and {self.gamma_s}")
        _check_rate(self.R)
        if not 0.0 < self.zeta < 1.0:
            raise ValueError(f"zeta must lie strictly inside (0, 1), got {self.zeta}")
        if self.case is Case.DIRECT_LINK:     # the direct-link protocol halves the slot
            object.__setattr__(self, "zeta", 0.5)
        if not 0.0 <= self.lambda_p <= 1.0:
            raise ValueError(f"lambda_p must be a rate in [0, 1], got {self.lambda_p}")
        if len(self.lambda_s) != self.M:
            raise ValueError(f"lambda_s needs one entry per secondary user ({self.M}), got {len(self.lambda_s)}")
        if any(not 0.0 <= lam <= 1.0 for lam in self.lambda_s):
            raise ValueError("secondary throughput targets must lie in [0, 1]")

    def thresholds(self) -> tuple[float, float]:
        """(broadcast, forward) SNR thresholds 2^rate - 1 of the zeta : 1 - zeta slot;
        the forward phase carries the relayed packet and the secondary's own."""
        return _split_threshold(self.R, self.zeta), _split_threshold(self.R, self.zeta, True)


def _as_index(name: str, x, lo: int = 0, hi: int | None = None) -> int:
    """x as an int in [lo, hi), or any int >= lo when hi is None; else ValueError."""
    try:     # a bool is no count, though operator.index(True) is 1
        i = operator.index(None if type(x) is bool else x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if lo <= i and (hi is None or i < hi):
        return i
    raise ValueError(f"{name} must be >= {lo}, got {i}" if hi is None
                     else f"{name} must lie in [{lo}, {hi}), got {i}")


def _as_real(name: str, x) -> float:
    try:     # float first: isinstance(x, numbers.Real) alone takes about 0.6 us
        if type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool):
            return float(x)
    except OverflowError:
        pass
    raise ValueError(f"{name} must be a real number, got {x!r}")


def _as_reals(name: str, xs) -> tuple:
    """xs as a tuple of floats, each as `_as_real` takes it; ValueError unless xs iterates."""
    try:
        return tuple(_as_real(name, x) for x in xs)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of reals, got {xs!r}") from None


def _check_rate(R: float) -> None:
    """ValueError unless the primary rate R is finite and nonnegative."""
    if not math.isfinite(R) or R < 0:
        raise ValueError(f"rate must be finite and nonnegative, got R={R}")


def _split_threshold(R: float, zeta: float, forward: bool = False) -> float:
    """Broadcast 2^(R/zeta) - 1 or forward 2^(R/(1-zeta)) - 1 of a zeta : 1 - zeta slot;
    zeta = 1/2 gives 2^(2R) - 1 bit for bit, division by 1/2 being exact.

    Saturates to inf past the float range (rates beyond ~1024 bits arise for
    slot splits zeta near 0 or 1, where the outage is genuinely certain).
    """
    try:
        return math.expm1(R / (1.0 - zeta if forward else zeta) * math.log(2.0))
    except OverflowError:
        return math.inf
