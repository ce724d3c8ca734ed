"""Effective sample size of one chain, computed by the benchmark itself.

Geyer's initial monotone sequence estimator on the FFT autocorrelation, as
described for single chains by Vehtari et al. (arXiv:1903.08008), without
rank normalisation. The library's samplers report no ESS, so the
benchmark's correctness gate and its ESS-per-second figure rely on this.
"""

from __future__ import annotations

import math

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Biased sample autocorrelation ρ_0..ρ_{n-1} (ρ_0 = 1)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n
    if acov[0] <= 0.0:
        return np.zeros(n)
    return acov / acov[0]


def effective_sample_size(x: np.ndarray) -> float:
    """ESS = n / τ with τ = −1 + 2·Σ P_k over the positive, monotone pairs
    P_k = ρ_{2k} + ρ_{2k+1}. A constant chain has ESS 0."""
    x = np.asarray(x, dtype=float)
    n = x.size
    rho = autocorrelation(x)
    if rho[0] == 0.0:
        return 0.0
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    positive = np.nonzero(pairs <= 0.0)[0]
    stop = int(positive[0]) if positive.size else pairs.size
    pairs = np.minimum.accumulate(pairs[:stop])
    tau = -1.0 + 2.0 * float(pairs.sum())
    # cap as Stan does: antithetic chains may not exceed n·log10(n)
    return float(min(n / tau, n * math.log10(n)))


def ar1_ess(n: int, phi: float) -> float:
    """Closed-form ESS of a stationary AR(1) chain: n·(1 − φ)/(1 + φ)."""
    return n * (1.0 - phi) / (1.0 + phi)
