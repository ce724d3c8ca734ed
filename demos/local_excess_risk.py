"""Localized excess risk: bound terms vs the quadrature oracle.

Walks the inverse-temperature axis on two landscapes through the harness
and prints, for each gamma and minimum, every term of the localized bound
next to the exact (quadrature) conditional excess risk. On the quadratic
landscape the Taylor term is identically zero and the bound is driven by
the effective dimension at small gamma and by the sample terms at large
gamma; on the double well the Taylor envelope enters through the local
Hessian-Lipschitz profile. Exits 1 if any row fails its pass rule.
"""

import sys
from pathlib import Path

from gibbslab.harness import load_config, run_experiment

CONFIGS = Path(__file__).resolve().parent / "configs"
TERMS = ("effective_dimension", "taylor", "sqrt", "generalization")


def main() -> int:
    passed = True
    for name in ("local_excess_quadratic.json", "local_excess_double_well.json"):
        result = run_experiment(load_config(CONFIGS / name))
        passed &= result.all_passed
        print(f"\n== {name} -> {result.run_dir} ==")
        print(f"{'gamma':>8} {'i':>2} {'r':>6} {'eff-dim':>10} {'taylor':>10} {'sqrt':>10} "
              f"{'gen':>10} {'total':>10} {'oracle':>12} {'margin':>10} passed")
        for row in sorted(result.rows, key=lambda row: (row["gamma"], row["minimum_index"])):
            terms = " ".join(f"{row['term_' + t]:10.4f}" for t in TERMS)
            print(f"{row['gamma']:8.0f} {row['minimum_index']:2d} {row['radius']:6.3f} {terms} "
                  f"{row['bound_total']:10.4f} {row['oracle_value']:12.3e} "
                  f"{row['margin']:10.4f} {row['passed']}")
    print("\nthe oracle scales like (effective dimension)/gamma, the bound's first term.")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
