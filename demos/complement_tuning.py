"""Vanishing complement mass under the tuned radius schedule.

With r = gamma^{(p-1)/2} and p = 1/3, the ellipsoid radii shrink slowly
enough that r^2*gamma grows while the Taylor terms r^3*gamma stay bounded,
so the Gibbs mass outside every well's ellipsoid must vanish as gamma
grows. The quadrature column shows it, and the harness asserts that it
decreases; the formula column shows the complement bound as stated, whose
raw value drops below zero once both wells contribute (the clamped copy is
the one comparable to a probability, and a raw value outside [0, 1] is not
asserted). Exits 1 if any row fails its pass rule.
"""

import sys
from pathlib import Path

from gibbslab.harness import load_config, run_experiment

CONFIG = Path(__file__).resolve().parent / "configs" / "complement_tuning.json"


def main() -> int:
    result = run_experiment(load_config(CONFIG))
    print(f"wrote {result.run_dir}")
    points = [row for row in result.rows if row["gamma"] is not None]
    print(f"{'gamma':>8} {'r':>8} {'quad complement':>16} {'raw bound':>12} {'clamped':>9} passed")
    for row in sorted(points, key=lambda row: row["gamma"]):
        print(f"{row['gamma']:8.0f} {row['radius']:8.4f} {row['oracle_value']:16.6e} "
              f"{row['bound_secondary']:12.4f} {row['bound_total']:9.4f} {row['passed']}")
    for row in result.rows:
        if row["variant"] == "monotone_decreasing":
            print(f"complement decreases in gamma: {row['passed']}")
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
