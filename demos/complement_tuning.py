"""Vanishing complement mass under the tuned radius schedule.

With r = gamma^{(p-1)/2} and p = 1/3, the ellipsoid radii shrink slowly
enough that r^2*gamma grows while the Taylor terms r^3*gamma stay bounded,
so the Gibbs mass outside every well's ellipsoid must vanish as gamma
grows. The quadrature column shows it; the formula column shows the
complement bound as stated, whose raw value drops below zero once both
wells contribute (the clamped copy is the one comparable to a
probability).
"""

import math


import gibbslab as gl


def main():
    land = gl.double_well_landscape()
    minima = gl.enumerate_minima(land, 0.0)
    pot = lambda w: land.reg_risk(w, 0.0)
    p = 1.0 / 3.0

    print(f"{'gamma':>8} {'r':>8} {'quad complement':>16} {'raw bound':>12} {'clamped':>9}")
    for gamma in (10.0, 100.0, 1000.0, 10000.0):
        r = gl.tune_radius(gamma, p)
        nodes = int(20 * 4 * math.sqrt(gamma * 8.0)) + 200
        grid = gl.tensor_gauss_legendre(land.domain_box, nodes)
        comp = gl.quadrature_measure(
            pot, gamma, grid, regions=[m.ellipsoid(r) for m in minima]
        ).complement_mass[r]
        cfg = gl.GibbsConfig(gamma=gamma, ridge=0.0, m=1000, loss_bound=land.loss_bound)
        cb = gl.complement_mass_bound(minima, cfg, r)
        print(f"{gamma:8.0f} {r:8.4f} {comp:16.6e} {cb.raw:12.4f} {cb.clamped:9.4f}")

    print("\nthe same sweep through the experiment harness "
          "(exit status reflects the assertions):")
    raw = {
        "landscape": {"name": "double_well", "params": {"dimension": 1}},
        "gibbs": {"gamma": [10.0, 100.0, 1000.0, 10000.0], "ridge": 0.0, "m": [1000]},
        "radius": {"tuning_p": [p]},
        "theorems": ["complement_mass"],
        "master_seed": 7,
        "output_dir": "runs",
    }
    from gibbslab.harness import load_config, run_experiment

    result = run_experiment(load_config(raw), out_dir="runs")
    monotone = [row for row in result.rows if row["variant"] == "monotone_decreasing"]
    print(f"wrote {result.run_dir}; monotone-decrease assertion passed: "
          f"{monotone[0]['passed']}")


if __name__ == "__main__":
    main()
