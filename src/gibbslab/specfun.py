"""Special functions and truncated-Gaussian calculus.

Everything here reduces to one accuracy-critical kernel, the regularized
lower incomplete gamma function P(a, z); chi-squared CDFs, Gaussian ball
masses and truncated second moments are thin wrappers around it. The
kernel is the textbook series / continued-fraction pair (DLMF §8.7 and
§8.9; Press et al., Numerical Recipes, §6.2) on ``math`` alone, so no
function here loads ``scipy.special``; the tests compare it with scipy.
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

_EPS = sys.float_info.epsilon
# z = a needs about 7.6·sqrt(a) series terms, so every a up to 1e6 converges
_MAX_TERMS = 10_000


def _not_converged(a: float, z: float) -> ArgumentError:
    return ArgumentError(
        f"incomplete gamma did not converge in {_MAX_TERMS} terms at a={a}, z={z}"
    )


def _kummer_series(a: float, z: float) -> float:
    """Kummer's M(1, a + 1, z) = Σₙ zⁿ/((a + 1)(a + 2)…(a + n)), n ≥ 0."""
    total = term = 1.0
    for n in range(1, _MAX_TERMS + 1):
        term *= z / (a + n)
        total += term
        if term <= total * _EPS:
            return total
    raise _not_converged(a, z)


def _upper_gamma_cf(a: float, z: float) -> float:
    """Q(a, z) by the modified Lentz continued fraction; fast for z ≥ a + 1."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return math.exp(a * math.log(z) - z - math.lgamma(a)) * h
    raise _not_converged(a, z)


def regularized_gamma_P(a: float, z: float) -> float:
    """Regularized lower incomplete gamma function P(a, z).

    P(a, z) = (Γ(a) − Γ(a, z)) / Γ(a). For z < a + 1 it is the power
    series zᵃe^(−z)/Γ(a + 1) · M(1, a + 1, z), with Kummer's M; for
    z ≥ a + 1 it is 1 − Q(a, z), Q from its continued fraction. Monotone
    nondecreasing in z, P(a, 0) = 0, P(a, ∞) = 1; absolute accuracy is
    better than 1e-10 for a in [0.25, 500], z in [0, 1e4]. Every a ≤ 1e6
    converges at every z ≥ 0; a larger a near z = a can use up the
    10 000 terms, and then ArgumentError names a and z.
    """
    a = float(a)
    z = float(z)
    if not a > 0.0:
        raise ArgumentError(f"shape parameter must be positive, got a={a}")
    if not z >= 0.0:
        raise ArgumentError(f"argument must be nonnegative, got z={z}")
    if z == 0.0:
        return 0.0
    if z == math.inf:
        return 1.0
    if z < a + 1.0:
        prefactor = math.exp(a * math.log(z) - z - math.lgamma(a + 1.0))
        return prefactor * _kummer_series(a, z)
    return 1.0 - _upper_gamma_cf(a, z)


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
    a, z = 0.5 * d, 0.5 * r_squared
    return z / (a + 1.0) * _kummer_series(a + 1.0, z) / _kummer_series(a, z)


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
