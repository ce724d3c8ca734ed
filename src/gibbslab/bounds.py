"""Excess-risk bound formulas evaluated as explicit, auditable arithmetic.

Each operation maps minimum descriptors and a GibbsConfig to the bound
terms of one theorem. Totals always use explicit constants assembled from
the proofs' final displays, never an anonymous universal constant. Raw
formula values are reported unclamped; only the complement-mass bound,
which can leave [0, 1], also carries a copy clamped to [0, 1] for
comparison against a probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DegenerateCurvatureError, RadiusError
from .landscapes import MinimumDescriptor, disjoint_radius, nonzero_eigenvalues
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
    ``m`` the sample size and ``loss_bound`` the uniform loss bound M.
    The sub-Gaussian parameter is σ = M/2: by Hoeffding's lemma a loss in
    [0, M] is (M/2)-sub-Gaussian, so M alone fixes it.
    ``gen_bound_variant`` selects between the two generalization-bound
    constants: "theorem" gives 4σ²γ/m = M²γ/m and "hoeffding_stated"
    gives M²γ/(2m).
    """

    gamma: float
    ridge: float
    m: int
    loss_bound: float
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
        if self.gen_bound_variant not in GEN_BOUND_VARIANTS:
            raise ArgumentError(
                f"gen_bound_variant must be one of {GEN_BOUND_VARIANTS}, "
                f"got {self.gen_bound_variant!r}"
            )


@dataclass
class BoundReport:
    """Per-term breakdown of one bound at one configuration.

    ``total`` equals the sum of ``terms`` values to 1e-12.
    """

    terms: dict[str, float]
    total: float


@dataclass(frozen=True)
class MinimaDistribution:
    """Upper bounds on π_{γ,r} together with the zero-temperature limit π_∞."""

    upper_bounds: np.ndarray
    pi_infinity: np.ndarray


@dataclass(frozen=True)
class EllipsoidMassBounds:
    """Laplace sandwich on one ellipsoid's Gibbs probability mass.

    ``upper`` and ``lower_with_z`` use the normalization constant (as
    log Z); ``lower_free`` is Z-free. All three are raw formula values:
    ``upper`` can exceed 1.
    """

    upper: float
    lower_with_z: float
    lower_free: float


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
    if eigs[0] < -1e-10 * max(1.0, float(eigs[-1])):
        raise ArgumentError("H must be positive semi-definite")
    nonzero = nonzero_eigenvalues(eigs)
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
    """Generalization-error bound: 4σ²γ/m with σ = M/2, or M²γ/(2m), per
    the variant flag."""
    if config.gen_bound_variant == "theorem":
        return 4.0 * (0.5 * config.loss_bound) ** 2 * config.gamma / config.m
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
    trace = effective_dimension(minimum.hessian, config.ridge)
    terms = _excess_terms(trace, taylor_approximation_error(minimum, r, config.ridge), config)
    return BoundReport(terms=terms, total=sum(terms.values()))


def _excess_terms(trace: float, eps: float, config: GibbsConfig) -> dict[str, float]:
    """The four terms tr/γ, ε/6, (M/2)√(γε/3 + γ·gen) and gen shared by the
    local and global excess bounds, for a trace tr(H(H+2λI)⁻¹) and a Taylor
    error ε."""
    gamma = config.gamma
    gen = generalization_bound(config)
    return {
        "effective_dimension": trace / gamma,
        "taylor": eps / 6.0,
        "sqrt": 0.5 * config.loss_bound * math.sqrt(gamma * eps / 3.0 + gamma * gen),
        "generalization": gen,
    }


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
    log_z: float,
) -> EllipsoidMassBounds:
    """Laplace sandwich on the Gibbs mass of one curvature ellipsoid.

    With log Z the log normalization constant of the Gibbs density:
        upper / lower = (1/Z)·e^(−γRλ(w*) ± γε(r)/6)·(2π/γ)^(d/2)
                        · P(d/2, r²γ/2) / √det(Hλ),
    so upper/lower_with_z = e^(γε(r)/3) exactly. The Z-free lower bound is
    e^(−γε(r)/3)·P(d/2, r²γ/2).
    """
    if not r > 0.0:
        raise ArgumentError(f"radius must be positive, got r={r}")
    if not math.isfinite(log_z):
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
    log_core = -gamma * minimum.reg_risk_value + log_gauss - log_z
    return EllipsoidMassBounds(
        upper=math.exp(min(log_core + gamma * eps / 6.0, 700.0)),
        lower_with_z=math.exp(log_core - gamma * eps / 6.0),
        lower_free=math.exp(-gamma * eps / 3.0) * p_ball,
    )


def complement_mass_bound(
    minima: Sequence[MinimumDescriptor],
    config: GibbsConfig,
    r: float,
) -> ComplementMassBound:
    """Bound on the Gibbs mass outside every minimum's ellipsoid.

    raw = 1 − (1 − d·e^(−r²γ·α_{d/2}))·Σᵢ e^(−γεᵢ(r)/3), with d the
    dimension of the minima and α_{d/2} = ``ball_mass_rate(d/2)``: 1 for
    d ≤ 2 and Γ(1 + d/2)^(−2/d) above. The raw value may leave
    [0, 1] (notably with several minima); the clamped copy is the one to
    compare against probabilities. r may not exceed the disjointness
    radius r0 = ``disjoint_radius(minima)``.
    """
    if not minima:
        raise ArgumentError("need at least one minimum")
    if not r > 0.0:
        raise ArgumentError(f"radius must be positive, got r={r}")
    r0 = disjoint_radius(list(minima))
    if r > r0 * (1.0 + 1e-12):
        raise RadiusError(f"radius r={r} exceeds the disjointness radius r0={r0}")
    gamma, d = config.gamma, minima[0].dimension
    alpha = ball_mass_rate(0.5 * d)
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


def global_excess_bound(
    minima: Sequence[MinimumDescriptor],
    config: GibbsConfig,
    r: float,
    weights,
) -> BoundReport:
    """Global excess risk bound with explicit constants.

    Total = (1/γ)E[tr] + E[ε]/6 + (M/2)√(γE[ε]/3 + γ·gen) + gen
    + M·P̄(complement), expectations over the minima under ``weights``
    (the probabilities of the minima's ellipsoids under the Gibbs density,
    renormalized here) and P̄ the clamped complement bound, whose checks
    on the minima and on r ≤ r0 = ``disjoint_radius(minima)`` apply.
    """
    complement = complement_mass_bound(minima, config, r)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(minima),) or np.any(w < 0) or w.sum() <= 0:
        raise ArgumentError("weights must be a nonnegative vector over the minima")
    w = w / w.sum()
    eff_dims = np.array([effective_dimension(m.hessian, config.ridge) for m in minima])
    eps = np.array([taylor_approximation_error(m, r, config.ridge) for m in minima])
    terms = _excess_terms(float(w @ eff_dims), float(w @ eps), config)
    terms["complement"] = config.loss_bound * complement.clamped
    return BoundReport(terms=terms, total=sum(terms.values()))


def pseudo_excess_bound(
    minima: Sequence[MinimumDescriptor],
    config: GibbsConfig,
    r: float,
    pi_infinity: np.ndarray,
) -> BoundReport:
    """Asymptotic pseudo excess risk bound: π_∞-average of the local bounds.

    The localized bound is applied at each minimum and averaged exactly
    under the zero-temperature distribution ``pi_infinity`` over the
    minima (``minima_distribution(minima, config, r).pi_infinity``), so
    each reported term is the π_∞-expectation of the corresponding local
    term.
    """
    if r < 0.0:
        raise ArgumentError(f"radius must be nonnegative, got r={r}")
    pi = np.asarray(pi_infinity, dtype=float)
    if pi.shape != (len(minima),):
        raise ArgumentError(
            f"pi_infinity must hold one weight per minimum, got shape {pi.shape} "
            f"for {len(minima)} minima"
        )
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
    return BoundReport(terms=terms, total=sum(terms.values()))
