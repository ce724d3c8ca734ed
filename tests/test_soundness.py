"""Soundness properties: each bound against an exact value it must obey.

The instances are single Gaussian wells: ``quadratic_landscape`` with a
random diagonal spectrum h in [0.1, 10]^d, d = 1..8, on the box
±40/√(γ·h_min), whose truncation is below e^(−800). Under the Gibbs
density of f = ½wᵀHw + λ‖w‖², u = (H + 2λI)^(1/2)·w is N(0, I/γ), so with
z = γr²/2 every exact value below comes from the χ² law of γ‖u‖²:

- the ellipsoid mass is P(d/2, z);
- log Z = (d/2)·log(2π/γ) − ½·Σ log(hₖ + 2λ);
- the excess risk in the ellipsoid is (1/2γ)·Σ hₖ/(hₖ + 2λ) ·
  P(d/2 + 1, z)/P(d/2, z), which is also the pseudo excess of the one
  minimum, and the global excess is (1/2γ)·Σ hₖ/(hₖ + 2λ);
- the one minimum has probability 1.

They are computed here with ``scipy.special.gammainc`` and numpy, never
with ``gibbslab.bounds``. Each assertion is the harness's pass rule for
that theorem.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from gibbslab.bounds import (
    GibbsConfig,
    ellipsoid_mass_bounds,
    global_excess_bound,
    local_excess_bound,
    minima_distribution,
    pseudo_excess_bound,
)
from gibbslab.landscapes import disjoint_radius, enumerate_minima, quadratic_landscape


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
    assert pseudo_excess_bound(minima, cfg, r).total >= local_excess
    assert global_excess_bound(minima, cfg, r, np.array([1.0])).total >= global_excess

    assert minima_distribution(minima, cfg, r).upper_bounds[0] >= 1.0 - 1e-9
