"""Independent ground truth: quadrature and Monte-Carlo estimators.

Nothing here reuses the bound formulas it is meant to check. Quadrature
is restricted to d ≤ 3 (tensor grids explode beyond that); Monte-Carlo
estimators return normal-approximation 95% intervals and assertions on
stochastic quantities should use 3σ margins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_legendre

from .errors import ArgumentError, ContractError, ResolutionError
from .landscapes import (
    DataModel,
    EllipsoidSpec,
    Landscape,
    MinimumDescriptor,
    empirical_landscape,
)
from .samplers import (
    ChainBatch,
    chain_seed,
    default_step_size,
    sample_chain,
    target_from_landscape,
)

__all__ = [
    "QuadratureGrid",
    "QuadratureMeasure",
    "tensor_gauss_legendre",
    "quadrature_measure",
    "Estimate",
    "empirical_excess_risk",
    "empirical_generalization_gap",
    "irm_objective",
    "DerivativeCheckReport",
    "derivative_check",
]

_PANEL_ORDER = 16
# (chain samples × examples) elements per block of the generalization gap
_GAP_BLOCK = 32768


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
    """One Gibbs measure on a box, read off for a tuple of regions.

    ``masses[i]`` is the probability of region i. ``complement_mass[r]``
    is that of the box outside the union of the regions of radius r (the
    complement of the curvature ellipsoids at one radius).
    ``conditional[name]`` is the box expectation of an integrand and
    ``region_conditional[name][i]`` its expectation given region i (NaN for
    a region with no mass on the grid).
    """

    log_z: float
    masses: np.ndarray
    complement_mass: dict[float, float]
    conditional: dict[str, float]
    region_conditional: dict[str, np.ndarray]


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _PANEL_ORDER-point Gauss-Legendre rule on
    [-1, 1], built on first use: scipy builds it with scipy.linalg, which
    a process that runs no quadrature then never loads (6.5 MB of RSS)."""
    return roots_legendre(_PANEL_ORDER)


def _composite_gl_1d(lo: float, hi: float, n_nodes: int, breakpoints=()):
    # Panel edges are forced onto the breakpoints so that interval regions
    # are unions of whole panels; masked region masses then converge
    # spectrally instead of stalling at the indicator discontinuity.
    panels = max(1, math.ceil(n_nodes / _PANEL_ORDER))
    base_x, base_w = _panel_rule()
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


def _region_edges_1d(regions, box: np.ndarray) -> list[float]:
    edges = []
    for e in regions:
        rho = e.radius / math.sqrt(float(e.metric[0, 0]))
        edges.extend([float(e.center[0]) - rho, float(e.center[0]) + rho])
    return [p for p in edges if box[0, 0] < p < box[0, 1]]


def _measure_on_grid(potential, gamma, grid, regions, integrands) -> QuadratureMeasure:
    f = np.asarray(potential(grid.nodes), dtype=float)
    f_min = float(f.min())
    # e^(−γ(f − f_min)) in place: d = 3 grids hold millions of nodes
    dens = f - f_min
    del f
    dens *= -gamma
    np.exp(dens, out=dens)
    dens *= grid.weights
    total = float(dens.sum())
    masks = [np.asarray(e.contains(grid.nodes), dtype=bool) for e in regions]
    complement = {}
    for r in sorted({e.radius for e in regions}):
        inside = np.logical_or.reduce([m for m, e in zip(masks, regions) if e.radius == r])
        complement[r] = float(dens[~inside].sum()) / total
    region_totals = np.array([dens[mask].sum() for mask in masks])
    conditional, region_conditional = {}, {}
    for name, g in integrands.items():
        weighted = dens * np.asarray(g(grid.nodes), dtype=float)
        conditional[name] = float(weighted.sum() / total)
        with np.errstate(invalid="ignore"):
            region_conditional[name] = (
                np.array([weighted[mask].sum() for mask in masks]) / region_totals
            )
    return QuadratureMeasure(
        log_z=math.log(total) - gamma * f_min,
        masses=region_totals / total,
        complement_mass=complement,
        conditional=conditional,
        region_conditional=region_conditional,
    )


def _values(meas: QuadratureMeasure) -> np.ndarray:
    return np.concatenate(
        [[meas.log_z], meas.masses, list(meas.complement_mass.values()),
         list(meas.conditional.values()), *meas.region_conditional.values()]
    )


def quadrature_measure(
    potential: Callable[[np.ndarray], np.ndarray],
    gamma: float,
    grid: QuadratureGrid,
    regions: Sequence[EllipsoidSpec] = (),
    integrands: dict[str, Callable[[np.ndarray], np.ndarray]] | None = None,
) -> QuadratureMeasure:
    """The Gibbs density e^(−γ·potential) on the grid's box, read off once.

    Returns log Z, the mass of each region, for each radius among the
    regions the mass outside the union of the regions of that radius, and
    for each batched integrand g(w) its box expectation and its
    expectation given each region. In d = 1 the region boundaries become
    panel edges, so masked masses converge spectrally.

    The potential is evaluated on the grid and on one with doubled
    resolution; if any returned value moves by more than 1e-6 relative,
    ResolutionError is raised with a suggested node count. The fine-grid
    values are returned.
    """
    if not gamma > 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")
    regions, integrands = list(regions), integrands or {}
    breakpoints = None
    if regions and grid.dimension == 1:
        breakpoints = [_region_edges_1d(regions, grid.domain_box)]
        grid = tensor_gauss_legendre(grid.domain_box, grid.nodes_per_dim, breakpoints)
    coarse = _values(_measure_on_grid(potential, gamma, grid, regions, integrands))
    fine_grid = tensor_gauss_legendre(
        grid.domain_box, [2 * n for n in grid.nodes_per_dim], breakpoints
    )
    fine = _measure_on_grid(potential, gamma, fine_grid, regions, integrands)
    new = _values(fine)
    scale = np.maximum(np.maximum(np.abs(coarse), np.abs(new)), 1e-300)
    drift = float(np.nanmax(np.abs(coarse - new) / scale))
    if drift > 1e-6:
        suggested = tuple(4 * n for n in grid.nodes_per_dim)
        raise ResolutionError(
            f"quadrature grid under-resolved (max relative drift {drift:.3e} "
            f"on doubling); retry with nodes_per_dim={suggested}",
            suggested_nodes=suggested,
        )
    return fine


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
    otherwise. The losses are summed over blocks of chain samples of
    about 32k (sample, example) pairs, so memory does not grow with
    ``steps``. Requires trials ≥ 50.
    """
    if trials < 50:
        raise ArgumentError(f"need at least 50 trials, got {trials}")
    land = data_model.landscape
    gaps = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(chain_seed(master_seed, 2 * t))
        sample = data_model.sample_examples(rng, m)
        target = target_from_landscape(empirical_landscape(data_model, sample), ridge)
        if target.quadratic is not None:
            # exact draws ignore the step size; any positive value does
            kind, step_size, burn_in = "exact_gaussian", 1.0, 0
        else:
            kind, step_size, burn_in = "metropolis", default_step_size(target, gamma), steps // 5
        batch = sample_chain(
            kind, target, gamma, step_size, steps, burn_in, master_seed, chain_id=2 * t + 1
        )
        # differencing per example keeps the gap of an example-independent
        # loss exactly zero; a mean of m equal losses can round off R(w)
        risks = np.asarray(land.risk(batch.samples), dtype=float)
        rows = max(1, _GAP_BLOCK // m)
        total = 0.0
        for i in range(0, len(batch), rows):
            w = batch.samples[i : i + rows]
            total += float(np.sum(risks[i : i + rows, None] - data_model.loss(w, sample)))
        gaps[t] = total / (len(batch) * m)
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


def derivative_check(
    obj: Landscape | DataModel,
    probes: np.ndarray | None = None,
    n_probes: int = 25,
    seed: int = 20260809,
) -> DerivativeCheckReport:
    """Central finite differences against the analytic gradient and Hessian.

    Uses step h = 1e-4·(1 + ‖w‖) and reports the maximum relative error
    (scaled by max(1, ‖analytic‖_∞)) over interior probe points. A data
    model is checked through its empirical landscape on 3 examples drawn
    before the probes.
    """
    rng = np.random.default_rng(seed)
    land = obj
    if isinstance(obj, DataModel):
        land = empirical_landscape(obj, obj.sample_examples(rng, 3))
    if probes is None:
        lo = land.domain_box[:, 0]
        hi = land.domain_box[:, 1]
        width = hi - lo
        probes = lo + 0.05 * width + 0.9 * width * rng.random((n_probes, land.dimension))
    probes = np.atleast_2d(np.asarray(probes, dtype=float))

    worst_g, worst_h, worst_probe = 0.0, 0.0, probes[0]
    for w in probes:
        h_step = 1e-4 * (1.0 + float(np.linalg.norm(w)))
        g_ana = np.atleast_1d(land.gradient(w)).astype(float)
        h_ana = np.atleast_2d(land.hessian(w)).astype(float)
        g_fd = np.empty_like(g_ana)
        h_fd = np.empty_like(h_ana)
        for k in range(land.dimension):
            e = np.zeros(land.dimension)
            e[k] = h_step
            g_fd[k] = (float(land.risk(w + e)) - float(land.risk(w - e))) / (2.0 * h_step)
            h_fd[:, k] = (
                np.atleast_1d(land.gradient(w + e)).astype(float)
                - np.atleast_1d(land.gradient(w - e)).astype(float)
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
