"""Excess-risk bound formulas evaluated as explicit, auditable arithmetic.

Each operation maps minimum descriptors and a GibbsConfig to the bound
terms of one theorem. Totals always use explicit constants assembled from
the proofs' final displays, never an anonymous universal constant. Raw
formula values are reported unclamped alongside copies clamped to [0, 1]
wherever the formula is compared against a probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DegenerateCurvatureError, RadiusError
from .landscapes import MinimumDescriptor, disjoint_radius
from .specfun import ball_mass_rate, regularized_gamma_P

__all__ = [
    "GibbsConfig",
    "BoundReport",
    "MinimaDistribution",
    "EllipsoidMassBounds",
    "ComplementMassBound",
    "effective_dimension",
    "taylor_approximation_error",
    "generalization_bound",
    "local_excess_bound",
    "minima_distribution",
    "ellipsoid_mass_bounds",
    "complement_mass_bound",
    "tune_radius",
    "global_excess_bound",
    "pseudo_excess_bound",
    "GEN_BOUND_VARIANTS",
]

GEN_BOUND_VARIANTS = ("theorem", "hoeffding_stated")


@dataclass(frozen=True)
class GibbsConfig:
    """Scalar knobs shared by all bound formulas.

    ``gamma`` is the inverse temperature, ``ridge`` the ℓ2 weight λ,
    ``m`` the sample size, ``loss_bound`` the uniform loss bound M and
    ``sigma`` the sub-Gaussian parameter (defaults to M/2, the Hoeffding
    value for a loss in [0, M]). ``gen_bound_variant`` selects between the
    two generalization-bound constants: "theorem" gives 4σ²γ/m and
    "hoeffding_stated" gives M²γ/(2m).
    """

    gamma: float
    ridge: float
    m: int
    loss_bound: float
    sigma: float | None = None
    gen_bound_variant: str = "hoeffding_stated"

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ArgumentError(f"gamma must be positive, got {self.gamma}")
        if self.ridge < 0.0:
            raise ArgumentError(f"ridge weight must be nonnegative, got {self.ridge}")
        if self.m < 1:
            raise ArgumentError(f"sample size must be >= 1, got {self.m}")
        if not self.loss_bound > 0.0:
            raise ArgumentError(f"loss bound must be positive, got {self.loss_bound}")
        if self.sigma is not None and not self.sigma > 0.0:
            raise ArgumentError(f"sigma must be positive, got {self.sigma}")
        if self.gen_bound_variant not in GEN_BOUND_VARIANTS:
            raise ArgumentError(
                f"gen_bound_variant must be one of {GEN_BOUND_VARIANTS}, "
                f"got {self.gen_bound_variant!r}"
            )

    @property
    def effective_sigma(self) -> float:
        return self.sigma if self.sigma is not None else 0.5 * self.loss_bound


@dataclass
class BoundReport:
    """Per-term breakdown of one bound at one configuration.

    ``total`` equals the sum of ``terms`` values to 1e-12.
    """

    terms: dict[str, float]
    total: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MinimaDistribution:
    """Upper bounds on π_{γ,r} together with the zero-temperature limit π_∞."""

    upper_bounds: np.ndarray
    pi_infinity: np.ndarray


@dataclass(frozen=True)
class EllipsoidMassBounds:
    """Laplace sandwich on one ellipsoid's Gibbs probability mass.

    ``upper`` and ``lower_with_z`` need the normalization constant (as
    log Z) and are None when it was not supplied; ``lower_free`` is Z-free.
    The ``clamped`` mapping holds copies clipped to [0, 1] for comparison
    to probabilities.
    """

    upper: float | None
    lower_with_z: float | None
    lower_free: float
    clamped: dict[str, float | None]


@dataclass(frozen=True)
class ComplementMassBound:
    """Bound on the Gibbs mass outside all minima ellipsoids; raw may exit [0, 1]."""

    raw: float
    clamped: float


def effective_dimension(H: np.ndarray, ridge: float) -> float:
    """Soft rank tr(H(H + 2λI)⁻¹) = Σₖ hₖ/(hₖ + 2λ) of a PSD Hessian.

    Eigenvalues at or below 1e-10 times the largest are treated as zero,
    so at λ = 0 the value equals the rank of H.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim == 0:
        H = H.reshape(1, 1)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ArgumentError(f"H must be square, got shape {H.shape}")
    scale = max(1.0, float(np.abs(H).max()))
    if float(np.abs(H - H.T).max()) > 1e-10 * scale:
        raise ArgumentError("H must be symmetric")
    if ridge < 0.0:
        raise ArgumentError(f"ridge weight must be nonnegative, got {ridge}")
    eigs = np.linalg.eigvalsh(H)
    largest = float(eigs[-1])
    if eigs[0] < -1e-10 * max(1.0, largest):
        raise ArgumentError("H must be positive semi-definite")
    if largest <= 0.0:
        return 0.0
    threshold = 1e-10 * largest
    nonzero = eigs[eigs > threshold]
    if ridge == 0.0:
        return float(nonzero.size)
    return float(np.sum(nonzero / (nonzero + 2.0 * ridge)))


def taylor_approximation_error(
    minimum: MinimumDescriptor, r: float, ridge: float
) -> float:
    """Third-order Taylor error envelope ε(r) = L(r)·(r/√(λ_min + λ))³."""
    if r < 0.0:
        raise ArgumentError(f"radius must be nonnegative, got r={r}")
    if r == 0.0:
        return 0.0
    lam_min = minimum.lambda_min
    if lam_min + ridge <= 0.0:
        raise DegenerateCurvatureError(
            "lambda_min + ridge = 0: Taylor approximation error is undefined"
        )
    lip = float(minimum.lipschitz(r))
    return lip * (r / math.sqrt(lam_min + ridge)) ** 3


def generalization_bound(config: GibbsConfig) -> float:
    """Generalization-error bound: 4σ²γ/m or M²γ/(2m) per the variant flag."""
    if config.gen_bound_variant == "theorem":
        return 4.0 * config.effective_sigma**2 * config.gamma / config.m
    return config.loss_bound**2 * config.gamma / (2.0 * config.m)


def local_excess_bound(
    minimum: MinimumDescriptor, config: GibbsConfig, r: float
) -> BoundReport:
    """Localized excess risk bound around one minimizer.

    Total = (1/γ)tr(H(H+2λI)⁻¹) + ε(r)/6 + (M/2)√(γε(r)/3 + γ·gen)
    + gen, where gen is the generalization bound. With the default
    hoeffding_stated variant gen = M²γ/(2m), reproducing the theorem's
    display exactly.
    """
    gamma, loss_bound = config.gamma, config.loss_bound
    eps = taylor_approximation_error(minimum, r, config.ridge)
    gen = generalization_bound(config)
    terms = {
        "effective_dimension": effective_dimension(minimum.hessian, config.ridge) / gamma,
        "taylor": eps / 6.0,
        "sqrt": 0.5 * loss_bound * math.sqrt(gamma * eps / 3.0 + gamma * gen),
        "generalization": gen,
    }
    return BoundReport(
        terms=terms,
        total=sum(terms.values()),
        extras={"taylor_error": eps, "lipschitz_is_estimate": minimum.lipschitz_is_estimate},
    )


def _log_sqrt_det(minimum: MinimumDescriptor) -> float:
    sign, logdet = np.linalg.slogdet(minimum.reg_hessian)
    if sign <= 0:
        raise ArgumentError("regularized Hessian must be positive definite")
    return 0.5 * float(logdet)


def minima_distribution(
    minima: Sequence[MinimumDescriptor], config: GibbsConfig, r: float
) -> MinimaDistribution:
    """Upper bounds on the distribution over minima and its γ→∞ limit.

    Regularized risk values are shifted so the global minimum sits at 0
    before the exponentials are formed. The upper bound for minimum i is
    exp(γ/3 · maxₖ εₖ(r)) / Σⱼ exp(γ(Rᵢ − Rⱼ))·√(det Hλᵢ/det Hλⱼ);
    π_∞ is supported on the global minima with weights ∝ det(Hλᵢ)^(-1/2).
    """
    if not minima:
        raise ArgumentError("need at least one minimum")
    gamma = config.gamma
    values = np.array([m.reg_risk_value for m in minima])
    values = values - values.min()
    log_half_dets = np.array([_log_sqrt_det(m) for m in minima])
    eps = np.array(
        [taylor_approximation_error(m, r, config.ridge) for m in minima]
    )
    max_eps = float(eps.max())

    upper = np.empty(len(minima))
    for i in range(len(minima)):
        exponents = gamma * (values[i] - values) + (log_half_dets[i] - log_half_dets)
        lse = float(np.max(exponents))
        lse += math.log(np.sum(np.exp(exponents - lse)))
        upper[i] = math.exp(min(gamma * max_eps / 3.0 - lse, 700.0))

    glob = np.array([m.is_global for m in minima])
    if not glob.any():
        raise ArgumentError("no global minimum flagged in the descriptor list")
    weights = np.where(glob, np.exp(-(log_half_dets - log_half_dets[glob].min())), 0.0)
    pi_inf = weights / weights.sum()
    return MinimaDistribution(upper_bounds=upper, pi_infinity=pi_inf)


def ellipsoid_mass_bounds(
    minimum: MinimumDescriptor,
    config: GibbsConfig,
    r: float,
    log_z: float | None = None,
) -> EllipsoidMassBounds:
    """Laplace sandwich on the Gibbs mass of one curvature ellipsoid.

    With the log normalization constant log Z supplied:
        upper / lower = (1/Z)·e^(−γRλ(w*) ± γε(r)/6)·(2π/γ)^(d/2)
                        · P(d/2, r²γ/2) / √det(Hλ),
    so upper/lower_with_z = e^(γε(r)/3) exactly. The Z-free lower bound is
    e^(−γε(r)/3)·P(d/2, r²γ/2).
    """
    if not r > 0.0:
        raise ArgumentError(f"radius must be positive, got r={r}")
    if log_z is not None and not math.isfinite(log_z):
        raise ArgumentError(f"log normalization constant must be finite, got {log_z}")
    gamma = config.gamma
    d = minimum.dimension
    eps = taylor_approximation_error(minimum, r, config.ridge)
    p_ball = regularized_gamma_P(0.5 * d, 0.5 * r * r * gamma)
    log_gauss = (
        0.5 * d * math.log(2.0 * math.pi / gamma)
        - _log_sqrt_det(minimum)
        + math.log(p_ball)
        if p_ball > 0.0
        else -math.inf
    )
    lower_free = math.exp(-gamma * eps / 3.0) * p_ball

    upper = lower_with_z = None
    if log_z is not None:
        log_core = -gamma * minimum.reg_risk_value + log_gauss - log_z
        upper = math.exp(min(log_core + gamma * eps / 6.0, 700.0))
        lower_with_z = math.exp(log_core - gamma * eps / 6.0)

    def clamp(v):
        return None if v is None else min(max(v, 0.0), 1.0)

    return EllipsoidMassBounds(
        upper=upper,
        lower_with_z=lower_with_z,
        lower_free=lower_free,
        clamped={
            "upper": clamp(upper),
            "lower_with_z": clamp(lower_with_z),
            "lower_free": clamp(lower_free),
        },
    )


def complement_mass_bound(
    minima: Sequence[MinimumDescriptor],
    config: GibbsConfig,
    r: float,
    r0: float | None = None,
) -> ComplementMassBound:
    """Bound on the Gibbs mass outside every minimum's ellipsoid.

    raw = 1 − (1 − d·e^(−r²γ·α_{d/2}))·Σᵢ e^(−γεᵢ(r)/3), with d the
    dimension of the minima and α_{d/2} = 1 for d = 1 and
    Γ(1 + d/2)^(−2/d) otherwise. The raw value may leave
    [0, 1] (notably with several minima); the clamped copy is the one to
    compare against probabilities.
    """
    if not minima:
        raise ArgumentError("need at least one minimum")
    if not r > 0.0:
        raise ArgumentError(f"radius must be positive, got r={r}")
    if r0 is None:
        r0 = disjoint_radius(list(minima))
    if r > r0 * (1.0 + 1e-12):
        raise RadiusError(f"radius r={r} exceeds the disjointness radius r0={r0}")
    gamma, d = config.gamma, minima[0].dimension
    alpha = ball_mass_rate(0.5 * d) if d > 1 else 1.0
    eps_sum = sum(
        math.exp(-gamma * taylor_approximation_error(m, r, config.ridge) / 3.0)
        for m in minima
    )
    raw = 1.0 - (1.0 - d * math.exp(-r * r * gamma * alpha)) * eps_sum
    return ComplementMassBound(raw=raw, clamped=min(max(raw, 0.0), 1.0))


def tune_radius(gamma: float, p: float) -> float:
    """Radius schedule r = γ^((p−1)/2) for p in (0, 1/3].

    Along this schedule r²γ = γ^p grows while r³γ does not increase, so
    both the complement mass and the Taylor terms vanish as γ → ∞.
    """
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    if not (0.0 < p <= 1.0 / 3.0):
        raise ArgumentError(f"tuning exponent must lie in (0, 1/3], got p={p}")
    return gamma ** (0.5 * (p - 1.0))


def _expectation_weights(
    minima: Sequence[MinimumDescriptor],
    config: GibbsConfig,
    r: float,
    weights,
) -> tuple[np.ndarray, str]:
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(minima),) or np.any(w < 0) or w.sum() <= 0:
            raise ArgumentError("weights must be a nonnegative vector over the minima")
        return w / w.sum(), "quadrature"
    dist = minima_distribution(minima, config, r)
    w = dist.upper_bounds
    return w / w.sum(), "upper_bound_heuristic"


def global_excess_bound(
    minima: Sequence[MinimumDescriptor],
    config: GibbsConfig,
    r: float,
    weights=None,
    r0: float | None = None,
) -> BoundReport:
    """Global excess risk bound with explicit constants.

    Total = (1/γ)E[tr] + E[ε]/6 + (M/2)√(γE[ε]/3 + γ·gen) + gen
    + M·P̄(complement), expectations over the minima under ``weights``
    (quadrature values of π_{γ,r} when given, otherwise the renormalized
    Lemma upper bounds, flagged heuristic) and P̄ the clamped complement
    bound.
    """
    if not minima:
        raise ArgumentError("need at least one minimum")
    if r0 is None:
        r0 = disjoint_radius(list(minima))
    if not 0.0 < r <= r0 * (1.0 + 1e-12):
        raise RadiusError(f"radius r={r} must lie in (0, r0={r0}]")
    w, mode = _expectation_weights(minima, config, r, weights)
    gamma, loss_bound = config.gamma, config.loss_bound
    eff_dims = np.array(
        [effective_dimension(m.hessian, config.ridge) for m in minima]
    )
    eps = np.array([taylor_approximation_error(m, r, config.ridge) for m in minima])
    e_tr = float(w @ eff_dims)
    e_eps = float(w @ eps)
    gen = generalization_bound(config)
    complement = complement_mass_bound(minima, config, r, r0=r0)
    terms = {
        "effective_dimension": e_tr / gamma,
        "taylor": e_eps / 6.0,
        "sqrt": 0.5 * loss_bound * math.sqrt(gamma * e_eps / 3.0 + gamma * gen),
        "generalization": gen,
        "complement": loss_bound * complement.clamped,
    }
    return BoundReport(
        terms=terms,
        total=sum(terms.values()),
        extras={
            "weights": w,
            "weights_mode": mode,
            "complement_raw": complement.raw,
            "complement_clamped": complement.clamped,
            "r0": r0,
        },
    )


def pseudo_excess_bound(
    minima: Sequence[MinimumDescriptor], config: GibbsConfig, r: float
) -> BoundReport:
    """Asymptotic pseudo excess risk bound: π_∞-average of the local bounds.

    The localized bound is applied at each minimum and averaged exactly
    under the closed-form zero-temperature distribution π_∞, so each
    reported term is the π_∞-expectation of the corresponding local term.
    """
    if r < 0.0:
        raise ArgumentError(f"radius must be nonnegative, got r={r}")
    dist = minima_distribution(minima, config, r)
    pi = dist.pi_infinity
    terms = {
        "effective_dimension": 0.0,
        "taylor": 0.0,
        "sqrt": 0.0,
        "generalization": 0.0,
    }
    for weight, minimum in zip(pi, minima):
        if weight == 0.0:
            continue
        local = local_excess_bound(minimum, config, r)
        for key in terms:
            terms[key] += weight * local.terms[key]
    return BoundReport(
        terms=terms,
        total=sum(terms.values()),
        extras={"pi_infinity": pi},
    )
