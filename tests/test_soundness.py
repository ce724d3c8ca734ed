"""Soundness properties: each bound against an exact value it must obey.

Two families of instances have exact answers.

Single Gaussian wells: ``quadratic_landscape`` with a random diagonal
spectrum h in [0.1, 10]^d, d = 1..8, on the box ±40/√(γ·h_min), whose
truncation is below e^(−800). Under the Gibbs density of
f = ½wᵀHw + λ‖w‖², u = (H + 2λI)^(1/2)·w is N(0, I/γ), so with z = γr²/2
every exact value below comes from the χ² law of γ‖u‖²:

- the ellipsoid mass is P(d/2, z);
- log Z = (d/2)·log(2π/γ) − ½·Σ log(hₖ + 2λ);
- the excess risk in the ellipsoid is (1/2γ)·Σ hₖ/(hₖ + 2λ) ·
  P(d/2 + 1, z)/P(d/2, z), which is also the pseudo excess of the one
  minimum, and the global excess is (1/2γ)·Σ hₖ/(hₖ + 2λ);
- the one minimum has probability 1.

They are computed here with ``scipy.special.gammainc`` and numpy, never
with ``gibbslab.bounds``.

Product double wells: ``double_well_landscape(d)``, R(w) = Σₖ(wₖ² − 1)² on
[−2, 2]^d, d ≤ 3, whose Gibbs density is a product of 1-d factors
e^(−γφ(x)), φ(x) = (x² − 1)² + λx². log Z and E[R] are sums of 1-d
integrals from ``scipy.integrate.quad``; each ellipsoid's mass and
E[R | ellipsoid] come from ``helpers.ball_quadrature`` on the whitened
ellipsoid. The 2^d wells are mirror images of one another, so one well's
reference serves every well, and each has probability 2^(−d). Every
reference is checked converged first: its error estimate (the change on
doubling the ball rule's order) must be under 1% of its distance to each
bound it meets, else the order is doubled.

Each assertion is the harness's pass rule for that theorem; the
complement-mass bound is not checked here.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from gibbslab.bounds import (
    GibbsConfig,
    ellipsoid_mass_bounds,
    global_excess_bound,
    local_excess_bound,
    minima_distribution,
    pseudo_excess_bound,
)
from gibbslab.landscapes import (
    disjoint_radius,
    double_well_landscape,
    enumerate_minima,
    quadratic_landscape,
)
from helpers import ball_quadrature


@st.composite
def gaussian_wells(draw):
    d = draw(st.integers(1, 8))
    h = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
    gamma = draw(st.floats(1.0, 1e3))
    ridge = draw(st.sampled_from([0.0, 0.05, 0.5]))
    # r ∈ [1e-12·r0, r0]: far smaller radii underflow P(d/2, z) to 0, and
    # the exact conditional excess is then 0/0
    relative = draw(st.floats(1e-12, 1.0))
    half = 40.0 / math.sqrt(gamma * h.min())
    land = quadratic_landscape(matrix=np.diag(h), bounds=(-half, half))
    minima = enumerate_minima(land, ridge)
    r = relative * disjoint_radius(minima)
    cfg = GibbsConfig(gamma=gamma, ridge=ridge, m=1000, loss_bound=land.loss_bound)
    return h, ridge, minima, r, cfg


def _exact(h, ridge, gamma, r):
    d = len(h)
    z = 0.5 * gamma * r * r
    mass = gammainc(0.5 * d, z)
    log_z = 0.5 * d * math.log(2.0 * math.pi / gamma) - 0.5 * np.sum(np.log(h + 2.0 * ridge))
    global_excess = np.sum(h / (h + 2.0 * ridge)) / (2.0 * gamma)
    local_excess = global_excess * gammainc(0.5 * d + 1.0, z) / mass
    return mass, log_z, local_excess, global_excess


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(gaussian_wells())
def test_bounds_hold_on_one_gaussian_well(well):
    h, ridge, minima, r, cfg = well
    (minimum,) = minima
    mass, log_z, local_excess, global_excess = _exact(h, ridge, cfg.gamma, r)

    sandwich = ellipsoid_mass_bounds(minimum, cfg, r, log_z=log_z)
    tol = 1e-9 * max(1.0, mass)
    assert sandwich.lower_with_z <= mass + tol and mass <= sandwich.upper + tol

    assert local_excess_bound(minimum, cfg, r).total >= local_excess
    dist = minima_distribution(minima, cfg, r)
    assert pseudo_excess_bound(minima, cfg, r, dist.pi_infinity).total >= local_excess
    assert global_excess_bound(minima, cfg, r, np.array([1.0])).total >= global_excess

    assert dist.upper_bounds[0] >= 1.0 - 1e-9


@st.composite
def product_double_wells(draw):
    d = draw(st.integers(1, 3))
    gamma = draw(st.floats(20.0, 200.0))
    ridge = draw(st.sampled_from([0.0, 0.05, 0.1]))
    relative = draw(st.floats(0.05, 1.0))
    land = double_well_landscape(d)
    minima = enumerate_minima(land, ridge)
    r = relative * disjoint_radius(minima)
    cfg = GibbsConfig(gamma=gamma, ridge=ridge, m=1000, loss_bound=land.loss_bound)
    return minima, r, cfg


def _risk(w):
    return np.sum((w * w - 1.0) ** 2, axis=-1)


def _box_reference(gamma, ridge, d):
    """The normalized 1-d Gibbs factor; log Z and E[R] over [−2, 2]^d; and
    the error estimates of log Z and of E[R]."""
    c = math.sqrt(1.0 - 0.5 * ridge)  # the wells sit at ±c on every axis
    phi = lambda x: (x * x - 1.0) ** 2 + ridge * x * x
    phi_min = phi(c)
    rule = dict(points=[-c, c], epsabs=0.0, epsrel=1e-13, limit=200)
    z1, z1_err = quad(lambda x: math.exp(-gamma * (phi(x) - phi_min)), -2.0, 2.0, **rule)
    moment, moment_err = quad(
        lambda x: math.exp(-gamma * (phi(x) - phi_min)) * (x * x - 1.0) ** 2, -2.0, 2.0, **rule
    )
    factor = lambda x: np.exp(-gamma * (phi(x) - phi_min)) / z1
    log_z = d * (math.log(z1) - gamma * phi_min)
    mean = d * moment / z1
    return factor, log_z, mean, d * z1_err / z1, d * (moment_err + moment * z1_err / z1) / z1


def _well_reference(minimum, factor, gamma, r, order):
    """Mass and E[R | ellipsoid] − R(w*) of one minimum's ellipsoid, by
    ``ball_quadrature`` of ``order`` nodes per panel over w = w* + y/√h,
    |y| ≤ r, whose density varies on the scale 1/√γ in y."""
    scale = 1.0 / np.sqrt(np.diagonal(minimum.reg_hessian))
    d = scale.size

    def density(y):
        return np.prod(factor(minimum.location + y * scale), axis=-1) * np.prod(scale)

    def risk_density(y):
        return density(y) * _risk(minimum.location + y * scale)

    width = 1.0 / math.sqrt(gamma)
    mass = ball_quadrature(density, r, d, order, width)
    moment = ball_quadrature(risk_density, r, d, order, width)
    return mass, moment / mass - float(_risk(minimum.location))


def _resolved(error, value, *bounds) -> bool:
    """Whether a reference's error is under 1% of its distance to every
    bound it is checked against."""
    return all(error <= 0.01 * abs(b - value) for b in bounds)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(product_double_wells())
def test_bounds_hold_on_product_double_wells(instance):
    minima, r, cfg = instance
    d = minima[0].dimension
    factor, log_z, mean, log_z_err, mean_err = _box_reference(cfg.gamma, cfg.ridge, d)
    sandwiches = [ellipsoid_mass_bounds(mn, cfg, r, log_z=log_z) for mn in minima]
    edges = [s.upper for s in sandwiches] + [s.lower_with_z for s in sandwiches]
    local = [local_excess_bound(mn, cfg, r).total for mn in minima]
    pseudo = pseudo_excess_bound(
        minima, cfg, r, minima_distribution(minima, cfg, r).pi_infinity
    ).total
    # the masses are equal, so the harness's weights are uniform
    weights = np.full(len(minima), 1.0 / len(minima))
    global_bound = global_excess_bound(minima, cfg, r, weights).total
    global_excess = mean - float(_risk(minima[0].location))

    order, coarse = 4, _well_reference(minima[0], factor, cfg.gamma, r, 4)
    while True:
        mass, excess = fine = _well_reference(minima[0], factor, cfg.gamma, r, 2 * order)
        if _resolved(abs(mass - coarse[0]), mass, *edges) and _resolved(
            abs(excess - coarse[1]), excess, *local, pseudo
        ):
            break
        assert order < 8, f"ball reference unresolved at order {2 * order}"
        order, coarse = 2 * order, fine
    # an error δ in log Z moves each end b of a sandwich by about δ·b
    assert all(log_z_err * b <= 0.01 * abs(b - mass) for b in edges)
    assert _resolved(mean_err, global_excess, global_bound)

    tol = 1e-9 * max(1.0, mass)
    for sandwich in sandwiches:
        assert sandwich.lower_with_z <= mass + tol and mass <= sandwich.upper + tol
    assert all(bound >= excess for bound in local)
    assert pseudo >= excess
    assert global_bound >= global_excess
    upper = minima_distribution(minima, cfg, r).upper_bounds
    assert np.all(upper - 1.0 / len(minima) >= -1e-9)
