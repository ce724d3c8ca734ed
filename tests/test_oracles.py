import math

import numpy as np
import pytest

from gibbslab.bounds import GibbsConfig, local_excess_bound
from gibbslab.errors import ArgumentError, ContractError, ResolutionError
from gibbslab.landscapes import (
    EllipsoidSpec,
    constant_loss_data_model,
    double_well_landscape,
    empirical_landscape,
    enumerate_minima,
    disjoint_radius,
    quadratic_landscape,
    rls_data_model,
    spline_double_well_landscape,
)
from gibbslab.oracles import (
    derivative_check,
    empirical_excess_risk,
    empirical_generalization_gap,
    irm_objective,
    quadrature_measure,
    tensor_gauss_legendre,
)
from gibbslab.samplers import (
    chain_seed,
    condition_on_region,
    default_step_size,
    sample_chain,
    target_from_landscape,
)
from gibbslab.specfun import regularized_gamma_P, truncated_quadratic_moment

from helpers import ball_quadrature


def gaussian_potential(w):
    return 0.5 * np.sum(w * w, axis=-1)


class TestQuadratureGrid:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weights_positive_and_sum_to_volume(self, d):
        box = np.tile([-1.5, 2.0], (d, 1))
        grid = tensor_gauss_legendre(box, [40, 20, 10][:d])
        assert np.all(grid.weights > 0.0)
        assert float(grid.weights.sum()) == pytest.approx(3.5**d, rel=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ArgumentError):
            tensor_gauss_legendre(np.tile([-1, 1], (4, 1)), 8)

    def test_breakpoints_on_panel_edges(self):
        grid = tensor_gauss_legendre([[-2.0, 2.0]], 160, breakpoints=[[0.3]])
        # no node may straddle the breakpoint inside a panel: check by
        # integrating a function with a kink at 0.3 to near-GL accuracy
        f = lambda w: np.abs(w[:, 0] - 0.3)
        val = float(np.sum(grid.weights * f(grid.nodes)))
        exact = 0.5 * (2.3**2 + 1.7**2)
        assert val == pytest.approx(exact, rel=1e-13)


class TestQuadratureMeasure:
    def test_gaussian_normalization(self):
        grid = tensor_gauss_legendre([[-9.0, 9.0]], 500)
        meas = quadrature_measure(gaussian_potential, 1.0, grid)
        assert math.exp(meas.log_z) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-8)

    def test_ball_mass_matches_closed_form(self):
        grid = tensor_gauss_legendre([[-9.0, 9.0]], 500)
        region = EllipsoidSpec(center=np.zeros(1), metric=np.eye(1), radius=1.0)
        meas = quadrature_measure(gaussian_potential, 1.0, grid, regions=[region])
        assert meas.masses[0] == pytest.approx(
            regularized_gamma_P(0.5, 0.5), rel=1e-9
        )

    @pytest.mark.parametrize("gamma", [20.0, 100.0])
    def test_partition_of_unity(self, gamma):
        land = double_well_landscape()
        minima = enumerate_minima(land, 0.0)
        r0 = disjoint_radius(minima)
        grid = tensor_gauss_legendre(land.domain_box, 2000)
        pot = lambda w: land.reg_risk(w, 0.0)
        for frac in (0.25, 0.6, 1.0):
            ellipsoids = [m.ellipsoid(frac * r0) for m in minima]
            meas = quadrature_measure(pot, gamma, grid, regions=ellipsoids)
            comp = meas.complement_mass[ellipsoids[0].radius]
            assert float(meas.masses.sum() + comp) == pytest.approx(1.0, abs=1e-9)

    def test_under_resolved_raises_with_suggestion(self):
        grid = tensor_gauss_legendre([[-2.0, 2.0]], 32)
        sharp = lambda w: 0.5 * 1e4 * np.sum(w * w, axis=-1)
        with pytest.raises(ResolutionError) as err:
            quadrature_measure(sharp, 100.0, grid)
        assert err.value.suggested_nodes is not None

    def test_conditional_moment_matches_tallis_formula(self):
        gamma, r = 10.0, 0.7
        grid = tensor_gauss_legendre([[-8.0, 8.0]], 600)
        region = EllipsoidSpec(center=np.zeros(1), metric=np.eye(1), radius=r)
        meas = quadrature_measure(
            gaussian_potential,
            gamma,
            grid,
            regions=[region],
            integrands={"sq": lambda w: np.sum(w * w, axis=-1)},
        )
        closed = truncated_quadratic_moment(
            np.eye(1), np.eye(1) / gamma, r * math.sqrt(gamma)
        )
        assert meas.region_conditional["sq"][0] == pytest.approx(closed, rel=1e-4)

    def test_conditional_moment_2d_against_mapped_rule(self):
        # ellipsoid conditional quadratic moments on a 2-d Gaussian target
        gamma, r = 3.0, 1.1
        a = np.array([[2.0, 0.4], [0.4, 1.0]])
        dens = lambda pts: np.exp(-0.5 * gamma * np.sum(pts * pts, axis=-1))
        num = ball_quadrature(
            lambda pts: dens(pts) * np.einsum("ni,ij,nj->n", pts, a, pts), r, 2
        )
        den = ball_quadrature(dens, r, 2)
        closed = truncated_quadratic_moment(a, np.eye(2) / gamma, r * math.sqrt(gamma))
        assert num / den == pytest.approx(closed, rel=1e-6)


class TestEmpiricalExcessRisk:
    def test_all_samples_at_minimum_give_zero(self):
        land = quadratic_landscape(1)
        minimum = enumerate_minima(land, 0.0)[0]
        r = 0.8
        from gibbslab.samplers import ChainBatch

        batch = ChainBatch(
            samples=np.tile(minimum.location, (200, 1)),
            kind="exact_gaussian",
            master_seed=0,
            chain_id=0,
            step_size=0.1,
            burn_in=0,
            steps=200,
            region=minimum.ellipsoid(r),
        )
        est = empirical_excess_risk(land, minimum, batch, r)
        assert est.value == 0.0

    def test_exact_gaussian_matches_closed_form(self):
        gamma, r = 10.0, 1.2
        land = quadratic_landscape(1)
        minimum = enumerate_minima(land, 0.0)[0]
        tgt = target_from_landscape(land, 0.0)
        batch = sample_chain("exact_gaussian", tgt, gamma, 0.1, 400_000, 0, 3)
        kept = condition_on_region(batch, minimum.ellipsoid(r))
        est = empirical_excess_risk(land, minimum, kept, r)
        closed = 0.5 * truncated_quadratic_moment(
            np.eye(1), np.eye(1) / gamma, r * math.sqrt(gamma)
        )
        assert abs(est.value - closed) < 1.5 * est.halfwidth_95

    def test_estimate_below_local_bound(self):
        gamma = 1000.0
        land = double_well_landscape()
        minimum = [m for m in enumerate_minima(land, 0.0) if m.location[0] > 0][0]
        tgt = target_from_landscape(land, 0.0)
        r = 0.3 * disjoint_radius(enumerate_minima(land, 0.0))
        batch = sample_chain("metropolis", tgt, gamma, 0.03, 200_000, 40_000, 5)
        kept = condition_on_region(batch, minimum.ellipsoid(r))
        est = empirical_excess_risk(land, minimum, kept, r)
        cfg = GibbsConfig(gamma=gamma, ridge=0.0, m=10**4, loss_bound=land.loss_bound)
        bound = local_excess_bound(minimum, cfg, r)
        assert est.value + 1.5 * est.halfwidth_95 <= bound.total

    def test_contract_errors(self):
        land = quadratic_landscape(1)
        minimum = enumerate_minima(land, 0.0)[0]
        tgt = target_from_landscape(land, 0.0)
        batch = sample_chain("exact_gaussian", tgt, 10.0, 0.1, 500, 0, 3)
        with pytest.raises(ContractError):
            empirical_excess_risk(land, minimum, batch, 0.5)  # unconditioned
        kept = condition_on_region(batch, minimum.ellipsoid(0.5))
        with pytest.raises(ContractError):
            empirical_excess_risk(land, minimum, kept, 0.9)  # wrong radius


class TestEmpiricalGeneralizationGap:
    def test_example_independent_loss_gives_exact_zero(self):
        dm = constant_loss_data_model(quadratic_landscape(1))
        est = empirical_generalization_gap(dm, 5.0, 0.1, 20, trials=50, master_seed=4)
        assert est.value == 0.0
        assert est.halfwidth_95 == 0.0

    def test_uniform_limit_gap_vanishes(self):
        dm = rls_data_model()
        est = empirical_generalization_gap(dm, 1e-6, 0.1, 50, trials=60, master_seed=4)
        assert abs(est.value) < max(1.5 * est.halfwidth_95, 1e-4)

    def test_gap_below_both_bound_variants(self):
        from gibbslab.bounds import generalization_bound

        dm = rls_data_model()
        gamma, ridge, m = 10.0, 0.1, 100
        est = empirical_generalization_gap(dm, gamma, ridge, m, trials=60, master_seed=4)
        for variant in ("theorem", "hoeffding_stated"):
            cfg = GibbsConfig(
                gamma=gamma,
                ridge=ridge,
                m=m,
                loss_bound=dm.landscape.loss_bound,
                gen_bound_variant=variant,
            )
            assert est.value - 1.5 * est.halfwidth_95 <= generalization_bound(cfg)

    def test_trial_floor(self):
        dm = rls_data_model()
        with pytest.raises(ArgumentError):
            empirical_generalization_gap(dm, 1.0, 0.1, 10, trials=10, master_seed=0)

    def test_blocked_sum_equals_whole_array_mean(self):
        # 300 samples in blocks of 32 rows at m = 1000, the last one partial
        dm = rls_data_model()
        gamma, ridge, m, steps, trials = 10.0, 0.1, 1000, 300, 50
        est = empirical_generalization_gap(
            dm, gamma, ridge, m, trials=trials, master_seed=4, steps=steps
        )
        gaps = []
        for t in range(trials):
            sample = dm.sample_examples(np.random.default_rng(chain_seed(4, 2 * t)), m)
            tgt = target_from_landscape(empirical_landscape(dm, sample), ridge)
            batch = sample_chain(
                "exact_gaussian", tgt, gamma, default_step_size(tgt, gamma), steps, 0, 4,
                chain_id=2 * t + 1,
            )
            whole = dm.landscape.risk(batch.samples)[:, None] - dm.loss(batch.samples, sample)
            gaps.append(np.mean(whole))
        assert est.value == pytest.approx(np.mean(gaps), rel=1e-12, abs=0.0)

    def test_example_independent_loss_stays_zero_across_blocks(self):
        # m = 3000 gives blocks of 10 Metropolis samples of the spline risk
        dm = constant_loss_data_model(spline_double_well_landscape())
        est = empirical_generalization_gap(dm, 5.0, 0.1, 3000, trials=50, master_seed=4,
                                           steps=100)
        assert est.value == 0.0
        assert est.halfwidth_95 == 0.0

    def test_memory_does_not_grow_with_steps(self):
        import tracemalloc

        # the whole (steps × m) float array would take 160 MB
        dm = rls_data_model()
        tracemalloc.start()
        try:
            empirical_generalization_gap(dm, 10.0, 0.1, 1000, trials=50, master_seed=4,
                                         steps=20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestIrmObjective:
    @staticmethod
    def _setup(gamma=5.0, ridge=0.2):
        land = quadratic_landscape(1, bounds=(-6.0, 6.0))
        grid = tensor_gauss_legendre(land.domain_box, 400)
        pot = lambda w: land.risk(w)
        f = pot(grid.nodes)
        dens = np.exp(-gamma * (f + ridge * np.sum(grid.nodes**2, axis=-1)))
        dens /= np.sum(grid.weights * dens)
        return land, grid, pot, dens, gamma, ridge

    def test_gibbs_is_minimal_among_perturbations(self):
        land, grid, pot, gibbs, gamma, ridge = self._setup()
        base = irm_objective(gibbs, pot, gamma, ridge, grid)
        w = grid.nodes[:, 0]
        for k, tilt in enumerate(
            [0.1 * w, -0.2 * w, 0.15 * np.sin(3 * w), 0.1 * np.abs(w), 0.05 * w**2]
        ):
            pert = gibbs * np.exp(tilt)
            pert /= np.sum(grid.weights * pert)
            assert irm_objective(pert, pot, gamma, ridge, grid) > base + 1e-9

    def test_exponential_tilt_strictly_larger(self):
        land, grid, pot, gibbs, gamma, ridge = self._setup()
        base = irm_objective(gibbs, pot, gamma, ridge, grid)
        tilted = gibbs * np.exp(0.1 * grid.nodes[:, 0])
        tilted /= np.sum(grid.weights * tilted)
        gap = irm_objective(tilted, pot, gamma, ridge, grid) - base
        # gap = KL(tilted || gibbs)/gamma > 0
        assert gap > 1e-6

    def test_low_temperature_limit_gap_to_reference_vanishes(self):
        land, grid, pot, _, _, ridge = self._setup()
        gaps = []
        for gamma in (1e-1, 1e-2, 1e-3):
            f = pot(grid.nodes)
            gibbs = np.exp(-gamma * (f + ridge * np.sum(grid.nodes**2, axis=-1)))
            gibbs /= np.sum(grid.weights * gibbs)
            precision = 2.0 * gamma * ridge
            ref = np.exp(-0.5 * precision * np.sum(grid.nodes**2, axis=-1))
            ref /= np.sum(grid.weights * ref)
            gap = irm_objective(gibbs, pot, gamma, ridge, grid) - irm_objective(
                ref, pot, gamma, ridge, grid
            )
            assert gap <= 0.0 or gap < 1e-6  # gibbs never worse
            gaps.append(abs(gap))
        assert gaps[-1] < gaps[0]

    def test_unnormalized_density_rejected(self):
        land, grid, pot, gibbs, gamma, ridge = self._setup()
        with pytest.raises(ArgumentError):
            irm_objective(1.01 * gibbs, pot, gamma, ridge, grid)
        with pytest.raises(ArgumentError):
            irm_objective(-gibbs, pot, gamma, ridge, grid)


class TestDerivativeCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        report = derivative_check(quadratic_landscape(2))
        assert report.max_error <= 1e-10

    def test_double_well_standard_accuracy(self):
        report = derivative_check(double_well_landscape(), probes=np.array([[0.7]]))
        assert report.max_error <= 1e-5

    def test_all_builtin_landscapes_pass(self):
        for land in (
            quadratic_landscape(2),
            double_well_landscape(2),
            spline_double_well_landscape(),
        ):
            assert derivative_check(land, n_probes=25).max_error <= 1e-5

    def test_data_model_loss_derivatives(self):
        assert derivative_check(rls_data_model(), n_probes=25).max_error <= 1e-5

    def test_spline_junction_from_both_sides(self):
        # probes sit on either side of the junction, beyond the FD step, so
        # central differences never straddle the (C^2-only) kink
        land = spline_double_well_landscape()
        delta = land.params["junction_offset"]
        for j in (-1.0 + delta, 1.0 - delta):
            for side in (-5e-4, 5e-4):
                report = derivative_check(land, probes=np.array([[j + side]]))
                assert report.max_error <= 1e-5


class TestMonteCarloRate:
    def test_variance_halves_when_samples_quadruple(self):
        land = quadratic_landscape(1)
        tgt = target_from_landscape(land, 0.0)
        means_small, means_large = [], []
        for cid in range(40):
            small = sample_chain("exact_gaussian", tgt, 4.0, 0.1, 400, 0, 99, chain_id=cid)
            large = sample_chain(
                "exact_gaussian", tgt, 4.0, 0.1, 1600, 0, 999, chain_id=cid
            )
            means_small.append(float(land.risk(small.samples).mean()))
            means_large.append(float(land.risk(large.samples).mean()))
        ratio = np.std(means_small) / np.std(means_large)
        assert ratio == pytest.approx(2.0, abs=0.8)
