"""Empirical generalization gap of a Gibbs learner on the RLS data model.

Each trial resamples a dataset, forms the quadratic empirical risk, draws
from the exact Gaussian posterior and averages R(w) - RHat_S(w). The gap
shrinks linearly in 1/m and stays far below both bound variants (the
Hoeffding-style constant and the sub-Gaussian one, which differ by a
factor of two since sigma = M/2 for a loss in [0, M]).
"""

import gibbslab as gl


def main():
    dm = gl.rls_data_model()
    ridge = 0.1
    print(f"RLS model: slope {dm.landscape.params['slope']}, "
          f"loss bound M = {dm.landscape.loss_bound}")
    print(f"{'gamma':>6} {'m':>6} {'gap':>12} {'95% hw':>10} "
          f"{'bound(hoeffding)':>17} {'bound(theorem)':>15}")
    for gamma in (1.0, 10.0):
        for m_size in (100, 1000):
            est = gl.empirical_generalization_gap(
                dm, gamma, ridge, m_size, trials=100, master_seed=5, steps=400
            )
            bounds = {}
            for variant in ("hoeffding_stated", "theorem"):
                cfg = gl.GibbsConfig(
                    gamma=gamma,
                    ridge=ridge,
                    m=m_size,
                    loss_bound=dm.landscape.loss_bound,
                    gen_bound_variant=variant,
                )
                bounds[variant] = gl.generalization_bound(cfg)
            print(f"{gamma:6.0f} {m_size:6d} {est.value:12.3e} {est.halfwidth_95:10.1e} "
                  f"{bounds['hoeffding_stated']:17.4f} {bounds['theorem']:15.4f}")
    print("\nan example-independent loss has zero gap by construction:")
    dm0 = gl.constant_loss_data_model(gl.quadratic_landscape(1))
    est0 = gl.empirical_generalization_gap(dm0, 5.0, ridge, 20, trials=50, master_seed=5)
    print(f"  constant-loss model gap = {est0.value} (exactly zero)")


if __name__ == "__main__":
    main()
