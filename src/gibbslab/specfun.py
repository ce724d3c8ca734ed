"""Special functions and truncated-Gaussian calculus.

Everything here reduces to one accuracy-critical kernel, the regularized
lower incomplete gamma function P(a, z); chi-squared CDFs, Gaussian ball
masses and truncated second moments are thin wrappers around it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ArgumentError

__all__ = [
    "regularized_gamma_P",
    "regularized_gamma_lower",
    "ball_mass_rate",
    "chi2_cdf",
    "chi2_cdf_ratio",
    "truncated_quadratic_moment",
    "gaussian_region_integral",
]


def regularized_gamma_P(a: float, z: float) -> float:
    """Regularized lower incomplete gamma function P(a, z).

    P(a, z) = (Γ(a) − Γ(a, z)) / Γ(a), evaluated by
    ``scipy.special.gammainc``. Monotone nondecreasing in z, P(a, 0) = 0,
    P(a, ∞) = 1; absolute accuracy is better than 1e-10 for a in
    [0.25, 500], z in [0, 1e4].
    """
    a = float(a)
    z = float(z)
    if not a > 0.0:
        raise ArgumentError(f"shape parameter must be positive, got a={a}")
    if z < 0.0:
        raise ArgumentError(f"argument must be nonnegative, got z={z}")
    from scipy.special import gammainc

    return float(gammainc(a, z))


def ball_mass_rate(a: float) -> float:
    """Exponential rate α_a of the lower bound on P(a, z).

    Equals 1 for a ≤ 1 and Γ(1+a)^(-1/a) for a > 1.
    """
    if not a > 0.0:
        raise ArgumentError(f"shape parameter must be positive, got a={a}")
    if a <= 1.0:
        return 1.0
    return math.exp(-math.lgamma(1.0 + a) / a)


def regularized_gamma_lower(a: float, z: float) -> float:
    """Lower bound (1 − e^(−α_a·z))^a on P(a, z); tight exactly at a = 1."""
    a = float(a)
    z = float(z)
    if not a > 0.0:
        raise ArgumentError(f"shape parameter must be positive, got a={a}")
    if z < 0.0:
        raise ArgumentError(f"argument must be nonnegative, got z={z}")
    return (1.0 - math.exp(-ball_mass_rate(a) * z)) ** a


def chi2_cdf(k: float, x: float) -> float:
    """CDF of a chi-squared distribution with k degrees of freedom."""
    return regularized_gamma_P(0.5 * k, 0.5 * x)


def chi2_cdf_ratio(d: int, r_squared: float) -> float:
    """Ratio F_{d+2}(r²) / F_d(r²); lies in (0, 1] for r² > 0, d ≥ 1.

    With a = d/2 and z = r²/2 it is P(a + 1, z) / P(a, z). Where
    P(a + 1, z) is below the smallest normal double (small r², large d)
    that quotient has lost its digits or is 0/0, and the ratio is taken
    from P(a, z) = zᵃe^(−z)/Γ(a + 1) · M(1, a + 1, z) instead:
    z/(a + 1) · M(1, a + 2, z)/M(1, a + 1, z), with Kummer's M.
    """
    if d < 1:
        raise ArgumentError(f"dimension must be >= 1, got d={d}")
    if not r_squared > 0.0:
        raise ArgumentError(f"squared radius must be positive, got {r_squared}")
    upper = chi2_cdf(d + 2, r_squared)
    if upper >= sys.float_info.min:
        return upper / chi2_cdf(d, r_squared)
    from scipy.special import hyp1f1

    a, z = 0.5 * d, 0.5 * r_squared
    kummer = hyp1f1(1.0, a + 2.0, z) / hyp1f1(1.0, a + 1.0, z)
    return float(z / (a + 1.0) * kummer)


def _check_symmetric(name: str, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 0:
        mat = mat.reshape(1, 1)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ArgumentError(f"{name} must be a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > 1e-10 * scale:
        raise ArgumentError(f"{name} must be symmetric")
    return mat


def truncated_quadratic_moment(A: np.ndarray, M: np.ndarray, r: float) -> float:
    """Conditional second moment E[xᵀAx | x in the covariance ellipsoid].

    For x ~ N(0, M) conditioned on the ellipsoid {x : xᵀM⁻¹x ≤ r²} the
    value is F_{d+2}(r²)/F_d(r²) · tr(A·M), always at most tr(A·M); it
    tends to tr(A·M) as r → ∞ and to 0 as r → 0.
    """
    A = _check_symmetric("A", A)
    M = _check_symmetric("M", M)
    if A.shape != M.shape:
        raise ArgumentError(f"dimension mismatch: A is {A.shape}, M is {M.shape}")
    if not r > 0.0:
        raise ArgumentError(f"radius must be positive, got r={r}")
    eig_a = np.linalg.eigvalsh(A)
    if eig_a[0] < -1e-10 * max(1.0, eig_a[-1]):
        raise ArgumentError("A must be positive semi-definite")
    eig_m = np.linalg.eigvalsh(M)
    if eig_m[0] <= 0.0:
        raise ArgumentError("M must be positive definite")
    d = A.shape[0]
    return chi2_cdf_ratio(d, r * r) * float(np.trace(A @ M))


def gaussian_region_integral(
    gamma: float, r: float, d: int, metric: np.ndarray | None = None
) -> float:
    """Integral of e^(−γ‖u‖²/2) over the ball of radius r in d dimensions.

    Closed form (2π/γ)^(d/2) · P(d/2, r²γ/2). With a positive definite
    ``metric`` A the integrand becomes e^(−γ‖u‖²_A/2), the region the
    ellipsoid {‖u‖_A ≤ r}, and the value is divided by sqrt(det A).
    """
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    if not r > 0.0:
        raise ArgumentError(f"radius must be positive, got r={r}")
    if d < 1:
        raise ArgumentError(f"dimension must be >= 1, got d={d}")
    value = (2.0 * math.pi / gamma) ** (0.5 * d) * regularized_gamma_P(
        0.5 * d, 0.5 * r * r * gamma
    )
    if metric is not None:
        metric = _check_symmetric("metric", metric)
        if metric.shape[0] != d:
            raise ArgumentError(
                f"metric dimension {metric.shape[0]} does not match d={d}"
            )
        try:
            chol = np.linalg.cholesky(metric)
        except np.linalg.LinAlgError as exc:
            raise ArgumentError("metric must be positive definite") from exc
        value /= float(np.prod(np.diagonal(chol)))
    return value
