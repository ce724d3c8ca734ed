"""Independent numerical oracles shared across the test suite.

These deliberately avoid the code paths they are used to check: the ball
quadrature integrates in angle-mapped coordinates (smooth, so plain
Gauss-Legendre converges spectrally), the truncated-Gaussian sampler
draws radii by inverting the chi-square law: in closed form for d <= 2,
through scipy's inverse incomplete gamma above, and the Gaussian batch
draws i.i.d. normals without running a chain.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf, erfinv, gammainc, gammaincinv, roots_legendre

from gibbslab.landscapes import MinimumDescriptor
from gibbslab.samplers import ChainBatch


def _legendre_rule(order: int, width: float | None):
    """Gauss-Legendre nodes and weights on [-1, 1]: one rule of ``order``
    nodes or, with ``width`` below 1, a composite rule of ``order`` nodes
    per panel on the panels between 0, ±width, ±2·width, ±4·width,
    ±8·width and ±1, which resolve an integrand of that width about 0."""
    x_gl, w_gl = roots_legendre(order)
    if width is None or width >= 1.0:
        return x_gl, w_gl
    inner = [k * width for k in (1.0, 2.0, 4.0, 8.0) if k * width < 1.0]
    edges = np.array([-1.0, *(-e for e in reversed(inner)), 0.0, *inner, 1.0])
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x_gl).ravel(), (half * w_gl).ravel()


def ball_quadrature(fn, r: float, d: int, order: int = 64, width: float | None = None) -> float:
    """Integrate fn over the d-ball of radius r with mapped tensor GL rules.

    The ball is parameterized so the integrand stays smooth: in 2-d,
    x = r·sinθ, y = t·r·cosθ with Jacobian r²cos²θ; 3-d adds an outer
    slice coordinate z = r·sinφ. fn takes an (n, d) array of points.
    With ``width``, the scale about the centre on which fn varies, each
    mapped coordinate takes a composite rule of ``order`` nodes per panel
    whose panels resolve width/r about its middle (``_legendre_rule``).
    """
    x_gl, w_gl = _legendre_rule(order, None if width is None else width / r)

    if d == 1:
        nodes = (r * x_gl)[:, None]
        weights = r * w_gl
        return float(np.sum(weights * fn(nodes)))

    half = 0.5 * np.pi
    theta = half * x_gl
    w_theta = half * w_gl
    if d == 2:
        tt, xx = np.meshgrid(theta, x_gl, indexing="ij")
        wt, wx = np.meshgrid(w_theta, w_gl, indexing="ij")
        px = r * np.sin(tt)
        py = xx * r * np.cos(tt)
        jac = (r * np.cos(tt)) ** 2
        pts = np.stack([px.ravel(), py.ravel()], axis=-1)
        weights = (wt * wx * jac).ravel()
        return float(np.sum(weights * fn(pts)))

    if d == 3:
        ph, th, xx = np.meshgrid(theta, theta, x_gl, indexing="ij")
        wp, wt, wx = np.meshgrid(w_theta, w_theta, w_gl, indexing="ij")
        rho = r * np.cos(ph)
        pz = r * np.sin(ph)
        px = rho * np.sin(th)
        py = xx * rho * np.cos(th)
        jac = r * np.cos(ph) * (rho * np.cos(th)) ** 2
        pts = np.stack([px.ravel(), py.ravel(), pz.ravel()], axis=-1)
        weights = (wp * wt * wx * jac).ravel()
        return float(np.sum(weights * fn(pts)))

    raise ValueError(f"ball quadrature implemented for d <= 3, got d={d}")


def sample_truncated_gaussian_ellipsoid(
    rng: np.random.Generator, cov: np.ndarray, r: float, n: int
) -> np.ndarray:
    """Draw x ~ N(0, cov) conditioned on the ellipsoid xᵀcov⁻¹x ≤ r².

    Exact (no rejection): for x = L·u with L·Lᵀ = cov, the condition is
    ‖u‖ ≤ r, so u has uniform direction and chi-square radial law
    truncated to [0, r²], sampled by inverting its CDF: 2·erfinv(p)² in
    d = 1, −2·log1p(−p) in d = 2 and the inverse incomplete gamma above.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    chol = np.linalg.cholesky(cov)
    direction = rng.standard_normal((n, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    u = rng.random(n)
    if d == 1:
        radii_sq = 2.0 * erfinv(u * erf(r / np.sqrt(2.0))) ** 2
    elif d == 2:
        radii_sq = -2.0 * np.log1p(u * np.expm1(-0.5 * r * r))
    else:
        radii_sq = 2.0 * gammaincinv(0.5 * d, u * gammainc(0.5 * d, 0.5 * r * r))
    u_pts = direction * np.sqrt(radii_sq)[:, None]
    return u_pts @ chol.T


def gaussian_batch(rng: np.random.Generator, gamma: float, n: int) -> ChainBatch:
    """n i.i.d. draws of N(0, 1/γ), the Gibbs density of the risk ½w² in
    d = 1 without the domain box, as an unconditioned ChainBatch of kind
    "iid"."""
    samples = rng.standard_normal((n, 1)) / np.sqrt(gamma)
    return ChainBatch(
        samples=samples, kind="iid", master_seed=0, chain_id=0, step_size=0.0, burn_in=0, steps=n
    )


def build_descriptor(
    location,
    hessian,
    ridge: float = 0.0,
    reg_risk_value: float = 0.0,
    is_global: bool = True,
    lipschitz=lambda r: 0.0,
    index: int = 0,
    domain_box=None,
) -> MinimumDescriptor:
    """Fabricate a MinimumDescriptor for pure-formula tests; the domain box
    defaults to half-width 10 around the location."""
    location = np.atleast_1d(np.asarray(location, dtype=float))
    hessian = np.atleast_2d(np.asarray(hessian, dtype=float))
    d = location.shape[0]
    reg_hessian = hessian + 2.0 * ridge * np.eye(d)
    eigs = np.linalg.eigvalsh(hessian)
    above = eigs[eigs > 1e-10 * max(eigs[-1], 1e-300)]
    lam_min = float(above[0]) if above.size else 0.0
    return MinimumDescriptor(
        index=index,
        location=location,
        reg_risk_value=float(reg_risk_value),
        hessian=hessian,
        reg_hessian=reg_hessian,
        lambda_min=lam_min,
        is_global=is_global,
        lipschitz=lipschitz,
        lipschitz_is_estimate=False,
        domain_box=(
            np.column_stack([location - 10.0, location + 10.0])
            if domain_box is None
            else np.asarray(domain_box, dtype=float)
        ),
    )
