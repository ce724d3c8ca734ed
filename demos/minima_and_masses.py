"""Distribution over minima and the Laplace sandwich on ellipsoid masses.

Uses the asymmetric C2 spline double well: two equally deep wells with
curvatures 1 and 4. The wide well should receive 2/3 of the
zero-temperature mass (det-weighted), and the quadrature masses should
approach that limit as gamma grows. The Laplace sandwich brackets each
ellipsoid's Gibbs mass using the quadrature normalization constant.
"""

import numpy as np

import gibbslab as gl


def main():
    land = gl.spline_double_well_landscape()
    minima = gl.enumerate_minima(land, 0.0)
    pot = lambda w: land.reg_risk(w, 0.0)
    r = 0.45

    print(f"wells at {[float(m.location[0]) for m in minima]} "
          f"with curvatures {[float(m.hessian[0, 0]) for m in minima]}")
    cfg0 = gl.GibbsConfig(gamma=100.0, ridge=0.0, m=1000, loss_bound=land.loss_bound)
    pi_inf = gl.minima_distribution(minima, cfg0, r).pi_infinity
    print(f"pi_infinity from Hessian determinants: {np.round(pi_inf, 6)}  (expect 2/3, 1/3)\n")

    print(f"{'gamma':>8} {'mass(wide)':>12} {'mass(stiff)':>12} {'pi_quad(wide)':>14} "
          f"{'upper(wide)':>12}")
    for gamma in (20.0, 100.0, 1000.0):
        nodes = max(2000, int(500 * np.sqrt(gamma / 20.0)))
        grid = gl.tensor_gauss_legendre(land.domain_box, nodes)
        masses = gl.quadrature_measure(
            pot, gamma, grid, regions=[m.ellipsoid(r) for m in minima]
        ).masses
        cfg = gl.GibbsConfig(gamma=gamma, ridge=0.0, m=1000, loss_bound=land.loss_bound)
        dist = gl.minima_distribution(minima, cfg, r)
        pi_quad = masses / masses.sum()
        print(f"{gamma:8.0f} {masses[0]:12.6f} {masses[1]:12.6f} {pi_quad[0]:14.6f} "
              f"{min(dist.upper_bounds[0], 99.0):12.4f}")

    gamma = 100.0
    grid = gl.tensor_gauss_legendre(land.domain_box, 4000)
    meas = gl.quadrature_measure(pot, gamma, grid, regions=[m.ellipsoid(r) for m in minima])
    masses = meas.masses
    cfg = gl.GibbsConfig(gamma=gamma, ridge=0.0, m=1000, loss_bound=land.loss_bound)
    print(f"\nLaplace sandwich at gamma={gamma:.0f}, r={r} (log Z={meas.log_z:.6f}):")
    for m, mass in zip(minima, masses):
        sb = gl.ellipsoid_mass_bounds(m, cfg, r, log_z=meas.log_z)
        print(f"  well@{float(m.location[0]):+.0f}: "
              f"{sb.lower_with_z:.6f} <= {mass:.6f} <= {sb.upper:.6f}")

    # ridge makes the stiff well strictly suboptimal: its pi_infinity entry drops to 0
    ridge = 0.1
    minima_r = gl.enumerate_minima(land, ridge)
    cfg_r = gl.GibbsConfig(gamma=gamma, ridge=ridge, m=1000, loss_bound=land.loss_bound)
    dist_r = gl.minima_distribution(minima_r, cfg_r, r)
    print(f"\nwith ridge {ridge}: regularized values "
          f"{[round(m.reg_risk_value, 4) for m in minima_r]}, "
          f"pi_infinity {np.round(dist_r.pi_infinity, 6)} "
          "(suboptimal minimum gets zero)")


if __name__ == "__main__":
    main()
