import math

import numpy as np
import pytest

from gibbslab.bounds import (
    GibbsConfig,
    complement_mass_bound,
    effective_dimension,
    ellipsoid_mass_bounds,
    generalization_bound,
    global_excess_bound,
    local_excess_bound,
    minima_distribution,
    pseudo_excess_bound,
    taylor_approximation_error,
    tune_radius,
)
from gibbslab.errors import ArgumentError, DegenerateCurvatureError, RadiusError
from gibbslab.landscapes import disjoint_radius, double_well_landscape, enumerate_minima
from gibbslab.specfun import regularized_gamma_P

from helpers import build_descriptor


def config(**kw):
    base = dict(gamma=10.0, ridge=0.0, m=100, loss_bound=1.0)
    base.update(kw)
    return GibbsConfig(**base)


class TestEffectiveDimension:
    def test_identity_full_rank(self):
        for d in (1, 2, 5):
            assert effective_dimension(np.eye(d), 0.0) == d

    def test_rank_deficient(self):
        assert effective_dimension(np.diag([1.0, 0.0]), 0.0) == 1.0

    def test_diagonal_arithmetic(self):
        assert effective_dimension(np.diag([1.0, 3.0]), 0.5) == pytest.approx(1.25)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((4, 4))
        h = g @ g.T
        lams = [0.0, 0.1, 0.5, 2.0, 10.0]
        vals = [effective_dimension(h, lam) for lam in lams]
        assert all(0.0 <= v <= 4.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rank_at_zero_counts_above_threshold(self):
        h = np.diag([5.0, 1e-3, 5e-11])  # last one below 1e-10 * 5
        assert effective_dimension(h, 0.0) == 2.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ArgumentError):
            effective_dimension(np.array([[1.0, 0.2], [0.0, 1.0]]), 0.0)


class TestTaylorApproximationError:
    def test_constant_hessian_is_zero(self):
        m = build_descriptor([0.0], [[1.0]])
        for r in (0.0, 0.5, 3.0):
            assert taylor_approximation_error(m, r, 0.0) == 0.0

    def test_plugin_arithmetic(self):
        m = build_descriptor([0.0], [[0.0]], lipschitz=lambda r: 6.0)
        assert m.lambda_min == 0.0
        assert taylor_approximation_error(m, 1.0, 1.0) == pytest.approx(6.0)

    def test_double_well_closed_form(self):
        minima = enumerate_minima(double_well_landscape(), 0.0)
        m = minima[1]
        expected = 12.0 * (2.0 + 1.0 / math.sqrt(8.0)) * (1.0 / math.sqrt(8.0)) ** 3
        assert taylor_approximation_error(m, 1.0, 0.0) == pytest.approx(expected)
        assert expected == pytest.approx(1.2482, abs=1e-4)

    def test_nondecreasing_in_radius(self):
        minima = enumerate_minima(double_well_landscape(), 0.0)
        vals = [taylor_approximation_error(minima[0], r, 0.0) for r in np.linspace(0, 2, 15)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_degenerate_curvature(self):
        m = build_descriptor([0.0], [[0.0]], lipschitz=lambda r: 1.0)
        with pytest.raises(DegenerateCurvatureError):
            taylor_approximation_error(m, 1.0, 0.0)


class TestGeneralizationBound:
    def test_theorem_variant(self):
        cfg = config(sigma=1.0, gen_bound_variant="theorem")
        assert generalization_bound(cfg) == pytest.approx(0.4)

    def test_hoeffding_variant(self):
        cfg = config(loss_bound=1.0, gen_bound_variant="hoeffding_stated")
        assert generalization_bound(cfg) == pytest.approx(0.05)

    def test_vanishes_with_sample_size(self):
        assert generalization_bound(config(m=10**12)) < 1e-10

    def test_default_sigma_is_half_loss_bound(self):
        cfg = config(loss_bound=4.0)
        assert cfg.effective_sigma == 2.0

    def test_variants_differ_by_factor_two_at_default_sigma(self):
        t = generalization_bound(config(gen_bound_variant="theorem"))
        h = generalization_bound(config(gen_bound_variant="hoeffding_stated"))
        assert t == pytest.approx(2.0 * h)

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            config(gamma=-1.0)
        with pytest.raises(ArgumentError):
            config(m=0)
        with pytest.raises(ArgumentError):
            config(gen_bound_variant="bogus")


class TestLocalExcessBound:
    def test_plugin_display(self):
        m = build_descriptor([0.0], [[1.0]])
        rep = local_excess_bound(m, config(), r=1.0)
        expected = 0.1 + 10.0 / (2.0 * math.sqrt(200.0)) + 0.05
        assert rep.total == pytest.approx(expected)
        assert rep.total == pytest.approx(0.50355, abs=5e-6)
        assert rep.terms["taylor"] == 0.0

    def test_total_is_sum_of_terms(self):
        minima = enumerate_minima(double_well_landscape(), 0.05)
        rep = local_excess_bound(minima[0], config(loss_bound=9.0), r=0.7)
        assert rep.total == pytest.approx(sum(rep.terms.values()), abs=1e-12)

    def test_grows_with_gamma(self):
        m = build_descriptor([0.0], [[1.0]])
        totals = [
            local_excess_bound(m, config(gamma=g), r=1.0).total
            for g in (10.0, 100.0, 1e4, 1e8)
        ]
        assert totals[-1] > totals[-2] > 1e2 * totals[0] / 1e2  # diverges with gamma

    def test_monotone_in_taylor_error_and_gamma(self):
        eps_values = (0.0, 0.5, 2.0)
        totals = []
        for eps in eps_values:
            m = build_descriptor([0.0], [[1.0]], lipschitz=lambda r, e=eps: e)
            totals.append(local_excess_bound(m, config(ridge=1.0), r=1.0).total)
        assert totals[0] < totals[1] < totals[2]
        m = build_descriptor([0.0], [[1.0]], lipschitz=lambda r: 0.5)
        t1 = local_excess_bound(m, config(gamma=5.0, ridge=1.0), r=1.0).total
        t2 = local_excess_bound(m, config(gamma=50.0, ridge=1.0), r=1.0).total
        assert t2 > t1


class TestMinimaDistribution:
    def test_two_identical_globals(self):
        minima = [
            build_descriptor([-1.0], [[4.0]]),
            build_descriptor([1.0], [[4.0]], index=1),
        ]
        dist = minima_distribution(minima, config(), r=0.5)
        np.testing.assert_allclose(dist.pi_infinity, [0.5, 0.5])

    def test_determinant_weights(self):
        minima = [
            build_descriptor([-1.0], [[1.0]]),
            build_descriptor([1.0], [[4.0]], index=1),
        ]
        dist = minima_distribution(minima, config(), r=0.5)
        np.testing.assert_allclose(dist.pi_infinity, [2.0 / 3.0, 1.0 / 3.0])

    def test_suboptimal_gets_zero(self):
        minima = [
            build_descriptor([-1.0], [[1.0]]),
            build_descriptor([1.0], [[4.0]], reg_risk_value=0.2, is_global=False, index=1),
        ]
        dist = minima_distribution(minima, config(), r=0.5)
        assert dist.pi_infinity[1] == 0.0
        assert dist.pi_infinity[0] == 1.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        minima = [
            build_descriptor([float(i)], [[float(rng.uniform(0.5, 5.0))]], index=i)
            for i in range(5)
        ]
        dist = minima_distribution(minima, config(), r=0.3)
        assert float(dist.pi_infinity.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_rescaling_invariance(self):
        minima = [
            build_descriptor([-1.0], [[1.0]]),
            build_descriptor([1.0], [[4.0]], index=1),
        ]
        scaled = [
            build_descriptor([-1.0], [[7.0]]),
            build_descriptor([1.0], [[28.0]], index=1),
        ]
        a = minima_distribution(minima, config(), r=0.4)
        b = minima_distribution(scaled, config(), r=0.4)
        np.testing.assert_allclose(a.pi_infinity, b.pi_infinity, atol=1e-13)

    def test_upper_bound_formula_with_shift(self):
        # values are shifted so min R = 0 before exponentials are formed
        gamma = 10.0
        minima = [
            build_descriptor([-1.0], [[1.0]], reg_risk_value=5.0),
            build_descriptor([1.0], [[4.0]], reg_risk_value=5.3, is_global=False, index=1),
        ]
        dist = minima_distribution(minima, config(gamma=gamma), r=0.5)
        d11 = 1.0
        d12 = math.exp(gamma * (0.0 - 0.3)) * math.sqrt(1.0 / 4.0)
        assert dist.upper_bounds[0] == pytest.approx(1.0 / (d11 + d12))

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            minima_distribution([], config(), 0.5)


class TestEllipsoidMassBounds:
    def test_constant_hessian_all_three_coincide(self):
        gamma = 10.0
        m = build_descriptor([0.0], [[1.0]])
        z_exact = math.sqrt(2.0 * math.pi / gamma)  # full Gaussian integral
        sb = ellipsoid_mass_bounds(m, config(gamma=gamma), r=1.0, log_z=math.log(z_exact))
        p = regularized_gamma_P(0.5, 0.5 * gamma)
        assert sb.upper == pytest.approx(p, rel=1e-12)
        assert sb.lower_with_z == pytest.approx(p, rel=1e-12)
        assert sb.lower_free == pytest.approx(p, rel=1e-12)

    def test_ratio_is_exactly_exp_gamma_eps_third(self):
        gamma = 10.0
        m = build_descriptor([0.0], [[1.0]], lipschitz=lambda r: 0.3)
        sb = ellipsoid_mass_bounds(m, config(gamma=gamma), r=1.0, log_z=0.0)
        eps = taylor_approximation_error(m, 1.0, 0.0)
        assert sb.upper / sb.lower_with_z == pytest.approx(
            math.exp(gamma * eps / 3.0), rel=1e-12
        )

    def test_z_free_only_without_z(self):
        m = build_descriptor([0.0], [[1.0]])
        sb = ellipsoid_mass_bounds(m, config(), r=1.0)
        assert sb.upper is None and sb.lower_with_z is None
        assert sb.lower_free > 0.0
        assert sb.clamped["upper"] is None

    def test_clamping(self):
        m = build_descriptor([0.0], [[1.0]])
        sb = ellipsoid_mass_bounds(m, config(), r=2.0, log_z=math.log(1e-12))
        assert sb.upper > 1.0
        assert sb.clamped["upper"] == 1.0

    def test_argument_errors(self):
        m = build_descriptor([0.0], [[1.0]])
        with pytest.raises(ArgumentError):
            ellipsoid_mass_bounds(m, config(), r=0.0)
        for log_z in (-math.inf, math.nan):
            with pytest.raises(ArgumentError):
                ellipsoid_mass_bounds(m, config(), r=1.0, log_z=log_z)


class TestComplementMassBound:
    def test_single_minimum_formula(self):
        m = build_descriptor([0.0], [[1.0]], domain_box=[[-5.0, 5.0]])
        cb = complement_mass_bound([m], config(gamma=2.0), r=1.0)
        assert cb.raw == pytest.approx(math.exp(-2.0))
        assert cb.clamped == cb.raw

    def test_dimension_constant_d2(self):
        # alpha_1 = Gamma(2)^(-1) = 1, so the d=2 bound uses exponent -r^2 gamma
        minima = [build_descriptor([0.0, 0.0], np.eye(2), domain_box=[[-5, 5], [-5, 5]])]
        cb = complement_mass_bound(minima, config(gamma=3.0), r=1.0)
        assert cb.raw == pytest.approx(1.0 - (1.0 - 2.0 * math.exp(-3.0)))

    def test_two_minima_negative_raw_clamps_to_zero(self):
        minima = [
            build_descriptor([-1.0], [[4.0]]),
            build_descriptor([1.0], [[4.0]], index=1),
        ]
        cb = complement_mass_bound(minima, config(gamma=10.0), r=1.5)
        assert cb.raw < 0.0
        assert cb.clamped == 0.0

    def test_radius_error(self):
        minima = [
            build_descriptor([-1.0], [[4.0]]),
            build_descriptor([1.0], [[4.0]], index=1),
        ]
        r0 = disjoint_radius(minima)
        with pytest.raises(RadiusError):
            complement_mass_bound(minima, config(), r=1.1 * r0)


class TestTuneRadius:
    def test_example_values(self):
        assert tune_radius(1e6, 1.0 / 3.0) == pytest.approx(1e-2)
        assert tune_radius(1.0, 0.2) == 1.0

    def test_r_cubed_gamma_nonincreasing(self):
        for p in (0.1, 1.0 / 3.0):
            gammas = np.logspace(0, 6, 13)
            vals = [tune_radius(g, p) ** 3 * g for g in gammas]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
        # at the boundary exponent the product is constant
        vals = [tune_radius(g, 1.0 / 3.0) ** 3 * g for g in (1.0, 10.0, 1e4)]
        assert vals == pytest.approx([1.0, 1.0, 1.0])

    def test_domain_errors(self):
        with pytest.raises(ArgumentError):
            tune_radius(10.0, 0.0)
        with pytest.raises(ArgumentError):
            tune_radius(10.0, 0.5)
        with pytest.raises(ArgumentError):
            tune_radius(-1.0, 0.2)


class TestGlobalExcessBound:
    def test_single_minimum_reduces_to_local_plus_complement(self):
        m = build_descriptor([0.0], [[1.0]], domain_box=[[-5.0, 5.0]])
        cfg = config(gamma=4.0, loss_bound=2.0)
        rep = global_excess_bound([m], cfg, r=1.0)
        local = local_excess_bound(m, cfg, r=1.0)
        comp = complement_mass_bound([m], cfg, r=1.0)
        assert rep.total == pytest.approx(local.total + 2.0 * comp.clamped, abs=1e-12)

    def test_vanishes_in_joint_limit_on_constant_hessian(self):
        m = build_descriptor([0.0], [[1.0]], domain_box=[[-50.0, 50.0]])
        totals = []
        for gamma in (1e2, 1e4, 1e6):
            cfg = config(gamma=gamma, m=int(gamma**3), loss_bound=1.0)
            totals.append(global_excess_bound([m], cfg, r=tune_radius(gamma, 1/3)).total)
        assert totals[0] > totals[1] > totals[2]
        assert totals[2] < 1e-2

    def test_quadrature_weights_mode_flagged(self):
        minima = [
            build_descriptor([-1.0], [[4.0]]),
            build_descriptor([1.0], [[4.0]], index=1),
        ]
        heur = global_excess_bound(minima, config(), r=0.5)
        quad = global_excess_bound(minima, config(), r=0.5, weights=[0.5, 0.5])
        assert heur.extras["weights_mode"] == "upper_bound_heuristic"
        assert quad.extras["weights_mode"] == "quadrature"
        np.testing.assert_allclose(heur.extras["weights"].sum(), 1.0)

    def test_radius_validation(self):
        m = build_descriptor([0.0], [[1.0]], domain_box=[[-5.0, 5.0]])
        with pytest.raises(RadiusError):
            global_excess_bound([m], config(), r=100.0)
        with pytest.raises(ArgumentError):
            global_excess_bound([], config(), r=0.5)


class TestPseudoExcessBound:
    def test_symmetric_average_equals_common_local(self):
        minima = [
            build_descriptor([-1.0], [[4.0]]),
            build_descriptor([1.0], [[4.0]], index=1),
        ]
        cfg = config(loss_bound=1.0)
        rep = pseudo_excess_bound(minima, cfg, r=0.5)
        local = local_excess_bound(minima[0], cfg, r=0.5)
        assert rep.total == pytest.approx(local.total, abs=1e-12)
        assert rep.terms["effective_dimension"] == pytest.approx(
            local.terms["effective_dimension"]
        )

    def test_suboptimal_minima_ignored(self):
        minima = [
            build_descriptor([-1.0], [[4.0]]),
            build_descriptor(
                [1.0], [[0.5]], reg_risk_value=1.0, is_global=False, index=1
            ),
        ]
        cfg = config()
        rep = pseudo_excess_bound(minima, cfg, r=0.5)
        local = local_excess_bound(minima[0], cfg, r=0.5)
        assert rep.total == pytest.approx(local.total, abs=1e-12)

    def test_total_is_sum_of_terms(self):
        minima = enumerate_minima(double_well_landscape(), 0.0)
        rep = pseudo_excess_bound(minima, config(loss_bound=9.0), r=0.6)
        assert rep.total == pytest.approx(sum(rep.terms.values()), abs=1e-12)


class TestBoundTotalsWellFormed:
    def test_totals_finite_and_nonnegative_across_grid(self):
        minima = enumerate_minima(double_well_landscape(), 0.05)
        for gamma in (1.0, 100.0, 1e4):
            for m in (10, 10**6):
                cfg = config(gamma=gamma, ridge=0.05, m=m, loss_bound=9.0)
                for r in (0.1, 1.0, 2.0):
                    reports = [
                        local_excess_bound(minima[0], cfg, r),
                        global_excess_bound(minima, cfg, r),
                        pseudo_excess_bound(minima, cfg, r),
                    ]
                    for rep in reports:
                        assert math.isfinite(rep.total)
                        assert rep.total >= 0.0
                        assert rep.total == pytest.approx(
                            sum(rep.terms.values()), abs=1e-12
                        )
