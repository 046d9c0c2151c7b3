"""Zero-forcing distributed beamforming across the decoding relays.

The K decoding relays choose a unit-norm weight vector g that nulls their
aggregate signal at the secondary destination while maximizing the gain at
the primary destination:

    maximize |g' h_pd|^2   s.t.   g' h_sd = 0,  ||g|| = 1

(' denotes conjugate transpose).  The optimum is the normalized projection
of h_pd onto the orthogonal complement of h_sd, and the achieved gain
alpha = ||Psi h_pd||^2 is Gamma(K-1, 1) distributed for i.i.d. unit
complex-Gaussian channels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# squared-norm floor; below this a channel vector counts as numerically null
_DEGENERACY_FLOOR = 1e-30


class DegenerateChannel(Exception):
    """A (probability-zero) numerically null channel configuration."""


@dataclass(frozen=True)
class BeamformerResult:
    g: np.ndarray       # unit-norm complex weights, shape (K,)
    alpha: float        # beamforming gain |g' h_pd|^2 = ||Psi h_pd||^2
    leakage: float      # residual |g' h_sd|^2 at the secondary destination


def _project_out(h_sd: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply Psi x = x - h_sd (h_sd' x)/||h_sd||^2 without forming the matrix."""
    b2 = float(np.real(np.vdot(h_sd, h_sd)))
    if b2 < _DEGENERACY_FLOOR:
        raise DegenerateChannel(f"||h_sd||^2 = {b2:.3e} below degeneracy floor")
    return x - h_sd * (np.vdot(h_sd, x) / b2)


def optimal_weights(h_pd: np.ndarray, h_sd: np.ndarray) -> BeamformerResult:
    """g* = Psi h_pd / ||Psi h_pd|| and the achieved gain/leakage.

    alpha is computed as ||Psi h_pd||^2 (identical to |g*' h_pd|^2
    analytically, but free of one cancellation-prone inner product).  h_pd
    and h_sd must be 1-D arrays of one length K whose entries are finite
    ints, floats or complex numbers; any other shape or dtype (text, bools,
    objects), or a NaN or infinite entry, raises ValueError.
    """
    h_pd, h_sd = np.asarray(h_pd), np.asarray(h_sd)
    if h_pd.ndim != 1 or h_pd.shape != h_sd.shape:
        raise ValueError("h_pd and h_sd must be 1-D arrays of one length, "
                         f"got shapes {h_pd.shape} and {h_sd.shape}")
    if not all(h.dtype.kind in "iufc" and np.isfinite(h).all() for h in (h_pd, h_sd)):
        raise ValueError("channel entries must be finite ints, floats or complex numbers")
    h_pd, h_sd = h_pd.astype(complex), h_sd.astype(complex)
    proj = _project_out(h_sd, h_pd)
    alpha = float(np.real(np.vdot(proj, proj)))
    if alpha < _DEGENERACY_FLOOR:
        raise DegenerateChannel(
            f"h_pd numerically inside span(h_sd): ||Psi h_pd||^2 = {alpha:.3e}"
        )
    g = proj / np.sqrt(alpha)
    leakage = float(np.abs(np.vdot(g, h_sd)) ** 2)
    return BeamformerResult(g=g, alpha=alpha, leakage=leakage)


def effective_gain(h_pd: np.ndarray, h_sd: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Batched alpha over (n, M-1) channel arrays restricted to mask.

    alpha = sum|h_pd|^2 - |<h_sd, h_pd>|^2 / sum|h_sd|^2 over the masked
    relays; rows whose masked h_sd is numerically null (or with fewer than
    one relay) get alpha = 0, matching the zero-gain fallback.  h_pd and
    h_sd must be 2-D arrays of one shape and mask a bool array of that shape,
    else ValueError.  Entries are not checked: a NaN outside the mask is
    ignored, one in a row's masked h_sd gives that row alpha = 0 (its norm
    fails the null test), and one only in its masked h_pd gives alpha = NaN.
    """
    h_pd, h_sd, mask = np.asarray(h_pd), np.asarray(h_sd), np.asarray(mask)
    if h_pd.ndim != 2 or not h_pd.shape == h_sd.shape == mask.shape or mask.dtype != bool:
        raise ValueError("h_pd and h_sd must be 2-D arrays of one shape and mask a bool "
                         f"array of that shape, got shapes {h_pd.shape}, {h_sd.shape} "
                         f"and {mask.shape} ({mask.dtype})")
    pd, sd = (np.where(mask, h, np.complex128(0.0)) for h in (h_pd, h_sd))
    a2, b2 = (np.einsum("ij,ij->i", v, v) for v in (pd.view(np.float64), sd.view(np.float64)))
    ip = np.einsum("ij,ij->i", np.conjugate(sd, out=sd), pd)
    safe = b2 > _DEGENERACY_FLOOR
    alpha = a2 - (ip.real ** 2 + ip.imag ** 2) / np.where(safe, b2, 1.0)
    return np.where(safe, np.clip(alpha, 0.0, None), 0.0)
