"""Empirical generalization gap of a Gibbs learner on the RLS data model.

Runs ``configs/rls_generalization.json`` through the harness: each trial
resamples a dataset, forms the quadratic empirical risk and takes the
expectation of R(w) - RHat_S(w) under its Gaussian Gibbs density in
closed form (the mean of the untruncated Gaussian; no chain runs), so
only the average over datasets is Monte Carlo. At these sizes
the estimated gap is a few 1e-3 at most, within its 3-sigma allowance of
zero, and far below both bound variants (the Hoeffding-style constant and
the sub-Gaussian one, which differ by a factor of two since sigma = M/2
for a loss in [0, M]). Exits 1 if any row fails its pass rule.
"""

import sys
from pathlib import Path

import gibbslab as gl
from gibbslab.harness import load_config, run_experiment

CONFIG = Path(__file__).resolve().parent / "configs" / "rls_generalization.json"


def main() -> int:
    result = run_experiment(load_config(CONFIG))
    print(f"wrote {result.run_dir}")
    rows = {(row["gamma"], row["m"], row["variant"]): row for row in result.rows}
    print(f"{'gamma':>6} {'m':>6} {'gap':>12} {'3-sigma':>10} "
          f"{'bound(hoeffding)':>17} {'bound(theorem)':>15} passed")
    for gamma, m, _ in sorted(key for key in rows if key[2] == "theorem"):
        stated, theorem = rows[gamma, m, "hoeffding_stated"], rows[gamma, m, "theorem"]
        print(f"{gamma:6.0f} {m:6d} {theorem['oracle_value']:12.3e} "
              f"{theorem['stat_allowance']:10.1e} {stated['bound_total']:17.4f} "
              f"{theorem['bound_total']:15.4f} {stated['passed'] and theorem['passed']}")
    print("\nan example-independent loss has zero gap by construction:")
    dm0 = gl.constant_loss_data_model(gl.quadratic_landscape(1))
    est0 = gl.empirical_generalization_gap(dm0, 5.0, 0.1, 20, trials=50, master_seed=5)
    print(f"  constant-loss model gap = {est0.value} (exactly zero)")
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
