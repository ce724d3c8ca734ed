"""Two samplers against the exact Gibbs density.

1. SGLD on a quadratic target is an AR(1) chain whose stationary variance
   has a closed form; the empirical variance should land within a few
   percent.
2. Random-walk Metropolis (with uniform restarts so it can hop the e^{-20}
   barrier) reproduces the bimodal double-well density in total variation.
3. Metropolis on the quadratic target, conditioned on the radius-1.2
   ellipsoid, which lies inside the domain box, reproduces the conditional
   excess risk of the truncated-Gaussian moment closed form.
"""

import math

import numpy as np

import gibbslab as gl


def main():
    gamma, eta = 10.0, 0.01
    tgt = gl.target_from_landscape(gl.quadratic_landscape(1), 0.0)
    batch = gl.sample_chain("sgld", tgt, gamma, eta, 400_000, 80_000, master_seed=1)
    expected = 2.0 / (gamma * (2.0 - eta))
    print(f"SGLD stationary variance: {batch.samples.var():.6f} "
          f"(AR(1) closed form {expected:.6f})")

    land = gl.double_well_landscape()
    tgt2 = gl.target_from_landscape(land, 0.0)
    gamma2 = 20.0
    step = 2.4 / math.sqrt(gamma2 * 8.0)
    batch2 = gl.sample_chain("metropolis", tgt2, gamma2, step, 600_000, 120_000, master_seed=2)
    print(f"Metropolis acceptance rate: {batch2.acceptance_rate:.3f}")

    edges = np.linspace(-2.0, 2.0, 129)
    hist, _ = np.histogram(batch2.samples[:, 0], bins=edges)
    emp = hist / hist.sum()
    grid = gl.tensor_gauss_legendre(land.domain_box, 4096)
    f = land.risk(grid.nodes)
    dens = grid.weights * np.exp(-gamma2 * (f - f.min()))
    dens /= dens.sum()
    truth = np.zeros(128)
    idx = np.clip(np.digitize(grid.nodes[:, 0], edges) - 1, 0, 127)
    np.add.at(truth, idx, dens)
    tv = 0.5 * float(np.abs(emp - truth).sum())
    print(f"Metropolis vs quadrature density, TV on 128 bins: {tv:.4f}")

    minima = gl.enumerate_minima(land, 0.0)
    right = [m for m in minima if m.location[0] > 0][0]
    kept = gl.condition_on_region(batch2, right.ellipsoid(1.0))
    print(f"fraction in the right well's ellipsoid: {kept.retained_fraction:.3f} "
          "(symmetry says 1/2)")

    quad = gl.quadratic_landscape(1)
    minimum = gl.enumerate_minima(quad, 0.0)[0]
    step3 = 2.4 / math.sqrt(gamma)
    batch3 = gl.sample_chain("metropolis", tgt, gamma, step3, 120_000, 20_000, master_seed=3)
    kept3 = gl.condition_on_region(batch3, minimum.ellipsoid(1.2))
    print(f"Metropolis on the quadratic: acceptance rate {batch3.acceptance_rate:.3f}, "
          f"{kept3.retained_fraction:.4f} of the draws in the radius-1.2 ellipsoid")
    est = gl.empirical_excess_risk(quad, minimum, kept3, 1.2)
    closed = 0.5 * gl.truncated_quadratic_moment(
        np.eye(1), np.eye(1) / gamma, 1.2 * math.sqrt(gamma)
    )
    print(f"conditional excess risk: {est.value:.6f} +- {est.halfwidth_95:.6f} "
          f"(truncated-moment closed form {closed:.6f})")


if __name__ == "__main__":
    main()
