"""Distribution over minima and the Laplace sandwich on ellipsoid masses.

Uses the asymmetric C2 spline double well: two equally deep wells with
curvatures 1 (i = 0) and 4 (i = 1). Without ridge the wide well receives
2/3 of the zero-temperature mass (det-weighted), and the quadrature
shares approach that limit as gamma grows; a ridge makes the stiff well
strictly suboptimal, and its limit share drops to 0. The Laplace sandwich
brackets each ellipsoid's Gibbs mass using the quadrature normalization
constant. Exits 1 if any row fails its pass rule.
"""

import sys
from pathlib import Path

from gibbslab.harness import load_config, run_experiment

CONFIG = Path(__file__).resolve().parent / "configs" / "minima_and_masses.json"


def main() -> int:
    result = run_experiment(load_config(CONFIG))
    print(f"wrote {result.run_dir}")
    # the two theorems' rows at one (gamma, ridge, r, minimum) share a key
    pairs = {}
    for row in result.rows:
        pairs.setdefault(row["key"], {})[row["theorem"]] = row
    print(f"{'ridge':>5} {'gamma':>6} {'i':>2} {'r':>6} {'pi_inf':>8} {'pi_quad':>9} "
          f"{'pi_upper':>9} | {'lower':>9} {'mass':>9} {'upper':>9} passed")
    order = lambda pair: [pair["ellipsoid_mass"][k] for k in ("ridge", "gamma", "minimum_index")]
    for pair in sorted(pairs.values(), key=order):
        dist, mass = pair["minima_distribution"], pair["ellipsoid_mass"]
        print(f"{mass['ridge']:5.2f} {mass['gamma']:6.0f} {mass['minimum_index']:2d} "
              f"{mass['radius']:6.3f} {dist['bound_secondary']:8.6f} "
              f"{dist['oracle_value']:9.6f} {dist['bound_total']:9.3g} | "
              f"{mass['bound_secondary']:9.3g} {mass['oracle_value']:9.6f} "
              f"{mass['bound_total']:9.3g} {dist['passed'] and mass['passed']}")
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
