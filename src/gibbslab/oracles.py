"""Independent ground truth: quadrature and Monte-Carlo estimators.

Nothing here reuses the bound formulas it is meant to check. Quadrature
is restricted to d ≤ 3 (tensor grids explode beyond that); Monte-Carlo
estimators return normal-approximation 95% intervals and assertions on
stochastic quantities should use 3σ margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_legendre

from .errors import ArgumentError, ContractError, ResolutionError
from .landscapes import DataModel, EllipsoidSpec, Landscape, MinimumDescriptor
from .samplers import (
    ChainBatch,
    chain_seed,
    default_step_size,
    sample_chain,
    target_from_sample,
)

__all__ = [
    "QuadratureGrid",
    "QuadratureMeasure",
    "tensor_gauss_legendre",
    "quadrature_measure",
    "ellipsoid_masses",
    "Estimate",
    "empirical_excess_risk",
    "empirical_generalization_gap",
    "irm_objective",
    "DerivativeCheckReport",
    "derivative_check",
]

_PANEL_ORDER = 16


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensorized composite Gauss-Legendre rule over a box, d ≤ 3.

    Weights are positive and sum to the box volume to relative 1e-12.
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain_box: np.ndarray
    nodes_per_dim: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return int(self.domain_box.shape[0])


@dataclass(frozen=True)
class QuadratureMeasure:
    """Normalization constant, region mass, and conditional moments."""

    z: float
    log_z: float
    region_mass: float
    conditional: dict[str, float]


def _composite_gl_1d(lo: float, hi: float, n_nodes: int, breakpoints=()):
    # Panel edges are forced onto the breakpoints so that interval regions
    # are unions of whole panels; masked region masses then converge
    # spectrally instead of stalling at the indicator discontinuity.
    panels = max(1, math.ceil(n_nodes / _PANEL_ORDER))
    base_x, base_w = roots_legendre(_PANEL_ORDER)
    cuts = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    total = hi - lo
    edges = []
    for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
        seg_panels = max(1, round(panels * (seg_hi - seg_lo) / total))
        edges.append(np.linspace(seg_lo, seg_hi, seg_panels + 1)[:-1])
    edges = np.concatenate(edges + [np.array([hi])])
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def tensor_gauss_legendre(domain_box, nodes_per_dim, breakpoints=None) -> QuadratureGrid:
    """Build a tensor-product composite Gauss-Legendre grid over a box.

    ``nodes_per_dim`` is an int or per-dimension sequence; the actual
    count is rounded up to whole 16-node panels. ``breakpoints`` is an
    optional per-dimension list of coordinates forced onto panel edges.
    """
    box = np.asarray(domain_box, dtype=float)
    if box.ndim == 1:
        box = box.reshape(1, 2)
    d = box.shape[0]
    if d > 3:
        raise ArgumentError(f"tensor quadrature is restricted to d <= 3, got d={d}")
    if isinstance(nodes_per_dim, (int, np.integer)):
        counts = [int(nodes_per_dim)] * d
    else:
        counts = [int(n) for n in nodes_per_dim]
    if breakpoints is None:
        breakpoints = [()] * d
    axes = [
        _composite_gl_1d(lo, hi, n, bps)
        for (lo, hi), n, bps in zip(box, counts, breakpoints)
    ]
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    w = axes[0][1]
    for extra in axes[1:]:
        w = np.multiply.outer(w, extra[1])
    return QuadratureGrid(
        nodes=nodes,
        weights=w.ravel(),
        domain_box=box,
        nodes_per_dim=tuple(len(a[0]) for a in axes),
    )


def _region_boundaries_1d(region, box: np.ndarray):
    ellipsoids = []
    if isinstance(region, EllipsoidSpec):
        ellipsoids = [region]
    elif region is not None:
        ellipsoids = list(region)
    pts = []
    for e in ellipsoids:
        rho = e.radius / math.sqrt(float(e.metric[0, 0]))
        pts.extend([float(e.center[0]) - rho, float(e.center[0]) + rho])
    return [[p for p in pts if box[0, 0] < p < box[0, 1]]]


def _region_mask(nodes: np.ndarray, region, complement: bool) -> np.ndarray:
    if region is None:
        mask = np.ones(nodes.shape[0], dtype=bool)
    elif isinstance(region, EllipsoidSpec):
        mask = np.asarray(region.contains(nodes), dtype=bool)
    else:
        mask = np.zeros(nodes.shape[0], dtype=bool)
        for e in region:
            mask |= np.asarray(e.contains(nodes), dtype=bool)
    return ~mask if complement else mask


def _measure_on_grid(potential, gamma, grid, region, complement, integrands):
    f = np.asarray(potential(grid.nodes), dtype=float)
    f_min = float(f.min())
    dens = grid.weights * np.exp(-gamma * (f - f_min))
    total = float(dens.sum())
    log_z = math.log(total) - gamma * f_min
    mask = _region_mask(grid.nodes, region, complement)
    region_total = float(dens[mask].sum())
    conditional = {}
    if integrands:
        if region_total <= 0.0:
            raise ArgumentError("region has zero Gibbs mass on this grid")
        for name, g in integrands.items():
            g_vals = np.asarray(g(grid.nodes[mask]), dtype=float)
            conditional[name] = float(np.sum(dens[mask] * g_vals) / region_total)
    z = math.exp(log_z) if log_z > -700.0 else 0.0
    return QuadratureMeasure(
        z=z, log_z=log_z, region_mass=region_total / total, conditional=conditional
    )


def quadrature_measure(
    potential: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    grid: QuadratureGrid,
    region=None,
    complement: bool = False,
    integrands: dict[str, Callable[[np.ndarray], np.ndarray]] | None = None,
    check_resolution: bool = True,
    rel_tol: float = 1e-6,
) -> QuadratureMeasure:
    """Normalization constant, region mass and conditional expectations.

    Integrates the Gibbs density e^(−γ·potential) over the grid's box.
    ``region`` may be None, one EllipsoidSpec, or a sequence of them
    (their union); ``complement`` flips the region. ``integrands`` maps
    names to batched functions g(w); their conditional expectations
    E[g | region] are returned.

    A Richardson check re-evaluates on a grid with doubled resolution and
    raises ResolutionError (with a suggested node count) if any output
    moves by more than ``rel_tol`` relative; the fine-grid values are
    returned.
    """
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    breakpoints = None
    if region is not None and grid.dimension == 1:
        breakpoints = _region_boundaries_1d(region, grid.domain_box)
        grid = tensor_gauss_legendre(grid.domain_box, grid.nodes_per_dim, breakpoints)
    coarse = _measure_on_grid(potential, gamma, grid, region, complement, integrands)
    if not check_resolution:
        return coarse
    fine_grid = tensor_gauss_legendre(
        grid.domain_box, [2 * n for n in grid.nodes_per_dim], breakpoints
    )
    fine = _measure_on_grid(potential, gamma, fine_grid, region, complement, integrands)

    def rel(a, b):
        scale = max(abs(a), abs(b), 1e-300)
        return abs(a - b) / scale

    drifts = [rel(coarse.log_z, fine.log_z), rel(coarse.region_mass, fine.region_mass)]
    drifts += [rel(coarse.conditional[k], fine.conditional[k]) for k in coarse.conditional]
    if max(drifts) > rel_tol:
        suggested = tuple(4 * n for n in grid.nodes_per_dim)
        raise ResolutionError(
            f"quadrature grid under-resolved (max relative drift {max(drifts):.3e} "
            f"on doubling); retry with nodes_per_dim={suggested}",
            suggested_nodes=suggested,
        )
    return fine


def ellipsoid_masses(
    potential,
    gamma: float,
    grid: QuadratureGrid,
    ellipsoids: Sequence[EllipsoidSpec],
    check_resolution: bool = True,
) -> tuple[np.ndarray, float, float]:
    """Gibbs masses of each ellipsoid plus the complement mass and Z.

    Returns (masses, complement_mass, z). Masses are taken under the
    box-normalized Gibbs density, so together with the complement they
    form a partition of unity when the ellipsoids are disjoint.
    """
    masses = []
    for e in ellipsoids:
        masses.append(
            quadrature_measure(
                potential, gamma, grid, region=e, check_resolution=check_resolution
            ).region_mass
        )
    comp = quadrature_measure(
        potential,
        gamma,
        grid,
        region=list(ellipsoids),
        complement=True,
        check_resolution=check_resolution,
    )
    return np.array(masses), comp.region_mass, comp.z


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a normal-approximation 95% interval."""

    value: float
    halfwidth_95: float
    n: int

    @property
    def std_error(self) -> float:
        return 0.5 * self.halfwidth_95


def empirical_excess_risk(
    landscape: Landscape,
    minimum: MinimumDescriptor,
    batch: ChainBatch,
    r: float,
) -> Estimate:
    """Monte-Carlo conditional excess risk E[R(w) − R(w*) | w in the ellipsoid].

    The batch must already be conditioned on the minimum's curvature
    ellipsoid of radius r (ContractError otherwise).
    """
    if batch.region is None or batch.region_complement:
        raise ContractError("batch must be conditioned on the minimum's ellipsoid")
    if not np.allclose(batch.region.center, minimum.location) or not math.isclose(
        batch.region.radius, r, rel_tol=1e-12, abs_tol=1e-15
    ):
        raise ContractError(
            "batch was conditioned on a different region than the requested ellipsoid"
        )
    risk_star = float(landscape.risk(minimum.location))
    gaps = np.asarray(landscape.risk(batch.samples), dtype=float) - risk_star
    n = gaps.size
    return Estimate(
        value=float(gaps.mean()),
        halfwidth_95=float(2.0 * gaps.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf,
        n=n,
    )


def empirical_generalization_gap(
    data_model: DataModel,
    gamma: float,
    ridge: float,
    m: int,
    trials: int,
    master_seed: int,
    steps: int = 2000,
) -> Estimate:
    """Cross-trial estimate of E_S E_w[R(w) − R̂_S(w)].

    Each trial draws a fresh size-m sample, runs one chain of ``steps``
    steps on its regularized empirical risk, and averages R(w) − ℓ(w, zᵢ)
    over the chain and the examples. The chain draws exact Gaussians when
    the data model declares a quadratic empirical risk and runs Metropolis
    (with the default step size and a fifth of the steps as burn-in)
    otherwise. Requires trials ≥ 50.
    """
    if trials < 50:
        raise ArgumentError(f"need at least 50 trials, got {trials}")
    land = data_model.landscape
    gaps = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(chain_seed(master_seed, 2 * t))
        sample = data_model.sample_examples(rng, m)
        target = target_from_sample(data_model, sample, ridge)
        exact = target.quadratic is not None
        batch = sample_chain(
            "exact_gaussian" if exact else "metropolis",
            target,
            gamma,
            default_step_size(target, gamma),
            steps,
            0 if exact else steps // 5,
            master_seed,
            chain_id=2 * t + 1,
        )
        # differencing per example keeps the gap of an example-independent
        # loss exactly zero; a mean of m equal losses can round off R(w)
        risks = np.asarray(land.risk(batch.samples), dtype=float)
        gaps[t] = float(np.mean(risks[:, None] - data_model.loss(batch.samples, sample)))
    return Estimate(
        value=float(gaps.mean()),
        halfwidth_95=float(2.0 * gaps.std(ddof=1) / math.sqrt(trials)),
        n=trials,
    )


def irm_objective(
    density_on_grid: np.ndarray,
    potential: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    ridge: float,
    grid: QuadratureGrid,
) -> float:
    """Information-risk objective E_p[f] + (1/γ)·KL(p ‖ reference Gaussian).

    ``potential`` is the unregularized empirical risk; the reference is
    the centered Gaussian with precision 2γλ·I, whose exponent matches the
    ridge term of the Gibbs density. The Gibbs density restricted to the
    grid attains the minimum among all grid densities. KL uses the
    0·ln 0 = 0 convention.
    """
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    if not ridge > 0.0:
        raise ArgumentError("the reference Gaussian needs a positive ridge weight")
    p = np.asarray(density_on_grid, dtype=float)
    if p.shape != grid.weights.shape:
        raise ArgumentError("density must be evaluated on the grid nodes")
    if np.any(p < 0.0):
        raise ArgumentError("density must be nonnegative")
    mass = float(np.sum(grid.weights * p))
    if abs(mass - 1.0) > 1e-9:
        raise ArgumentError(f"density must integrate to 1 on the grid, got {mass}")
    d = grid.dimension
    precision = 2.0 * gamma * ridge
    sq = np.sum(grid.nodes * grid.nodes, axis=-1)
    log_ref = 0.5 * d * math.log(precision / (2.0 * math.pi)) - 0.5 * precision * sq
    f_vals = np.asarray(potential(grid.nodes), dtype=float)
    positive = p > 0.0
    kl_terms = np.zeros_like(p)
    kl_terms[positive] = p[positive] * (np.log(p[positive]) - log_ref[positive])
    expected_risk = float(np.sum(grid.weights * p * f_vals))
    kl = float(np.sum(grid.weights * kl_terms))
    return expected_risk + kl / gamma


@dataclass(frozen=True)
class DerivativeCheckReport:
    """Worst-case finite-difference errors over the probe set."""

    max_gradient_error: float
    max_hessian_error: float
    worst_probe: np.ndarray

    @property
    def max_error(self) -> float:
        return max(self.max_gradient_error, self.max_hessian_error)


def _jet_functions(obj, rng: np.random.Generator):
    if isinstance(obj, DataModel):
        z_batch = obj.sample_examples(rng, 3)
        return (
            obj.landscape,
            lambda w: float(np.mean(obj.loss(w, z_batch))),
            lambda w: np.mean(obj.loss_gradient(w, z_batch), axis=0),
            lambda w: np.mean(obj.loss_hessian(w, z_batch), axis=0),
        )
    land: Landscape = obj
    return (
        land,
        lambda w: float(land.risk(w)),
        lambda w: np.asarray(land.gradient(w), dtype=float),
        lambda w: np.atleast_2d(np.asarray(land.hessian(w), dtype=float)),
    )


def derivative_check(
    obj: Landscape | DataModel,
    probes: np.ndarray | None = None,
    n_probes: int = 25,
    seed: int = 20260809,
) -> DerivativeCheckReport:
    """Central finite differences against the analytic gradient and Hessian.

    Uses step h = 1e-4·(1 + ‖w‖) and reports the maximum relative error
    (scaled by max(1, ‖analytic‖_∞)) over interior probe points.
    """
    rng = np.random.default_rng(seed)
    land, value, grad, hess = _jet_functions(obj, rng)
    if probes is None:
        lo = land.domain_box[:, 0]
        hi = land.domain_box[:, 1]
        width = hi - lo
        probes = lo + 0.05 * width + 0.9 * width * rng.random((n_probes, land.dimension))
    probes = np.atleast_2d(np.asarray(probes, dtype=float))

    worst_g, worst_h, worst_probe = 0.0, 0.0, probes[0]
    for w in probes:
        h_step = 1e-4 * (1.0 + float(np.linalg.norm(w)))
        g_ana = np.atleast_1d(grad(w)).astype(float)
        h_ana = np.atleast_2d(hess(w)).astype(float)
        g_fd = np.empty_like(g_ana)
        h_fd = np.empty_like(h_ana)
        for k in range(land.dimension):
            e = np.zeros(land.dimension)
            e[k] = h_step
            g_fd[k] = (value(w + e) - value(w - e)) / (2.0 * h_step)
            h_fd[:, k] = (
                np.atleast_1d(grad(w + e)).astype(float)
                - np.atleast_1d(grad(w - e)).astype(float)
            ) / (2.0 * h_step)
        g_err = float(np.abs(g_fd - g_ana).max()) / max(1.0, float(np.abs(g_ana).max()))
        h_err = float(np.abs(h_fd - h_ana).max()) / max(1.0, float(np.abs(h_ana).max()))
        if max(g_err, h_err) > max(worst_g, worst_h):
            worst_probe = w
        worst_g = max(worst_g, g_err)
        worst_h = max(worst_h, h_err)
    return DerivativeCheckReport(
        max_gradient_error=worst_g,
        max_hessian_error=worst_h,
        worst_probe=worst_probe,
    )
