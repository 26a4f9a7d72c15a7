"""PSK modulation of Z_q symbols, AWGN sampling, and log-likelihood ratios.

A symbol a maps to the unit-energy constellation point exp(2*pi*i*a/q).
The channel adds circularly symmetric complex Gaussian noise with variance
sigma^2 per real component.  Against reference symbol 0, the exact Gaussian
log-ratio log(p(y|0)/p(y|a)) collapses to a difference of squared distances,
so LLRs are computed in nats without evaluating any density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import _as_symbols, _check_integer

# clearance below which two constellation points count as coincident
_DISTINCT_TOL = 1e-9


class NonPositiveSigma(ValueError):
    """Noise standard deviation must be finite and strictly positive."""


class InvalidRate(ValueError):
    """Code rate must lie in (0, 1]."""


@dataclass(frozen=True)
class ConstellationMap:
    """q complex points indexed by symbol value, normalized to Es = 1."""

    q: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        if pts.shape != (self.q,):
            raise ValueError(f"expected {self.q} points, got shape {pts.shape}")
        for a in range(self.q):
            for b in range(a + 1, self.q):
                if abs(pts[a] - pts[b]) < _DISTINCT_TOL:
                    raise ValueError(f"points {a} and {b} coincide")
        es = float(np.mean(np.abs(pts) ** 2))
        if abs(es - 1.0) > 1e-9:
            raise ValueError(f"average energy must be 1, got {es}")
        object.__setattr__(self, "points", pts)


def psk(q: int) -> ConstellationMap:
    """Phase-shift keying with natural labeling: a -> exp(2*pi*i*a/q)."""
    _check_integer("q", q, 2)
    return ConstellationMap(q=q, points=np.exp(2j * np.pi * np.arange(q) / q))


def modulate(word, cmap: ConstellationMap) -> np.ndarray:
    """Component-wise constellation lookup; an entry that is not a whole
    number in 0..q-1 raises ValueError."""
    return cmap.points[_as_symbols(word, cmap.q)]


def awgn_sample(x, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add complex Gaussian noise, variance sigma^2 per real component."""
    if not 0 < sigma < math.inf:
        raise NonPositiveSigma(f"sigma must be finite and > 0, got {sigma}")
    x = np.asarray(x, dtype=np.complex128)
    noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    return x + sigma * noise


def compute_llr(y, cmap: ConstellationMap, sigma: float) -> np.ndarray:
    """Per-symbol LLRs against reference 0, shape (n, q - 1), in nats.

    Row i, slot a - 1 holds (|y_i - s_a|^2 - |y_i - s_0|^2) / (2 sigma^2),
    which equals log(p(y_i | 0) / p(y_i | a)) for the Gaussian channel.
    """
    if not 0 < sigma < math.inf:
        raise NonPositiveSigma(f"sigma must be finite and > 0, got {sigma}")
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    dist = np.abs(y[:, None] - cmap.points[None, :]) ** 2
    return (dist[:, 1:] - dist[:, :1]) / (2.0 * sigma ** 2)


def ebno_to_sigma(ebno_db: float, rate: float, bits_per_symbol: float) -> float:
    """Noise std per real component for a unit-energy constellation.

    Each channel use carries rate * bits_per_symbol information bits, so
    Es/N0 = rate * bits_per_symbol * 10^(ebno_db / 10) and sigma^2 = N0 / 2.
    An ebno_db that gives no finite sigma > 0 (NaN, infinite, or so far
    out that Es/N0 leaves the float range) raises ValueError.
    """
    if not 0.0 < rate <= 1.0:
        raise InvalidRate(f"rate must be in (0, 1], got {rate}")
    if bits_per_symbol <= 0:
        raise ValueError(f"bits_per_symbol must be > 0, got {bits_per_symbol}")
    try:
        es_n0 = rate * bits_per_symbol * 10.0 ** (ebno_db / 10.0)
        sigma = float(np.sqrt(1.0 / (2.0 * es_n0)))
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"ebno_db = {ebno_db} gives no finite sigma > 0")
    return sigma
