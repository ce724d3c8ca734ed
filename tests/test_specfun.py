import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, hyp1f1

from gibbslab.errors import ArgumentError
from gibbslab.specfun import (
    ball_mass_rate,
    chi2_cdf,
    chi2_cdf_ratio,
    gaussian_region_integral,
    regularized_gamma_P,
    regularized_gamma_lower,
    truncated_quadratic_moment,
)

from helpers import ball_quadrature, sample_truncated_gaussian_ellipsoid

A_GRID = [0.5, 1.0, 2.0, 5.0, 10.0, 50.0]
Z_GRID = [0.0, 0.1, 1.0, 5.0, 20.0, 50.0]


class TestRegularizedGammaP:
    def test_exponential_special_case(self):
        for z in [0.01, 0.5, 1.0, 5.0, 30.0]:
            assert regularized_gamma_P(1.0, z) == pytest.approx(1.0 - math.exp(-z), abs=1e-14)
        assert regularized_gamma_P(1.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_zero_argument(self):
        for a in [0.25, 1.0, 7.0, 300.0]:
            assert regularized_gamma_P(a, 0.0) == 0.0

    def test_half_one_against_adaptive_quadrature(self):
        # Independent oracle: adaptive quadrature of t^(-1/2) e^(-t) / Gamma(1/2),
        # with t = s^2 so the integrand is smooth.
        integral, err = quad(lambda s: 2.0 * math.exp(-s * s), 0.0, 1.0)
        oracle = integral / math.gamma(0.5)
        assert err < 1e-10
        assert regularized_gamma_P(0.5, 1.0) == pytest.approx(oracle, abs=1e-10)
        assert regularized_gamma_P(0.5, 1.0) == pytest.approx(0.8427007929497149, abs=1e-12)

    def test_accuracy_against_scipy_on_wide_grid(self):
        for a in [0.25, 0.5, 1.0, 3.5, 20.0, 100.0, 500.0]:
            for z in [0.0, 1e-3, 0.3, 1.0, 17.0, 300.0, 2500.0, 1e4]:
                assert regularized_gamma_P(a, z) == pytest.approx(
                    float(gammainc(a, z)), abs=1e-10
                )
        # the z ~ a switchover region is where series/CF convergence is slowest
        for a, z in [(500.0, 499.0), (500.0, 500.9), (500.0, 501.1), (100.0, 100.0)]:
            assert regularized_gamma_P(a, z) == pytest.approx(
                float(gammainc(a, z)), abs=1e-10
            )

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(1, 2000), st.floats(-6.0, 5.0))
    def test_accuracy_against_scipy(self, d, log10_z):
        z = 10.0**log10_z
        p, reference = regularized_gamma_P(0.5 * d, z), float(gammainc(0.5 * d, z))
        assert abs(p - reference) <= 1e-12
        # scipy flushes values below the smallest normal double to 0, so the
        # relative error is taken where its reference is a normal number
        if sys.float_info.min <= reference < 0.5:
            assert abs(p - reference) <= 1e-10 * reference

    @pytest.mark.parametrize("z", [1e12, 1e12 + 2.0], ids=["series", "continued_fraction"])
    def test_running_out_of_terms_raises(self, z):
        # near z = a either loop needs on the order of sqrt(a) terms: about
        # 7.6e6 for the series at a = 1e12, past the cap of 10 000
        with pytest.raises(ArgumentError, match=f"a=1000000000000.0, z={z}"):
            regularized_gamma_P(1e12, z)

    def test_limits_at_infinity_and_nan(self):
        assert regularized_gamma_P(3.0, math.inf) == 1.0
        with pytest.raises(ArgumentError):
            regularized_gamma_P(3.0, math.nan)

    def test_monotone_in_z_and_limits(self):
        for a in A_GRID:
            values = [regularized_gamma_P(a, z) for z in np.linspace(0, 60, 40)]
            assert all(b >= a_ for a_, b in zip(values, values[1:]))
            assert regularized_gamma_P(a, 1e6) == pytest.approx(1.0, abs=1e-12)

    def test_argument_errors(self):
        with pytest.raises(ArgumentError):
            regularized_gamma_P(0.0, 1.0)
        with pytest.raises(ArgumentError):
            regularized_gamma_P(-2.0, 1.0)
        with pytest.raises(ArgumentError):
            regularized_gamma_P(1.0, -0.5)


class TestRegularizedGammaLower:
    def test_never_exceeds_p_equality_only_at_one(self):
        for a in A_GRID:
            for z in Z_GRID:
                low = regularized_gamma_lower(a, z)
                p = regularized_gamma_P(a, z)
                assert low <= p + 1e-12
                if a == 1.0:
                    assert low == pytest.approx(p, abs=1e-12)
                elif z > 0.0 and 1.0 - low > 1e-10:
                    # strict at the values' own scale, except where both
                    # sides saturate to 1 in doubles
                    assert p - low > 1e-12 * max(p, 1e-300)

    def test_trivial_values(self):
        assert regularized_gamma_lower(0.5, 0.0) == 0.0
        val = regularized_gamma_lower(3.0, 5.0)
        assert val < regularized_gamma_P(3.0, 5.0)

    def test_rate_cases(self):
        assert ball_mass_rate(0.5) == 1.0
        assert ball_mass_rate(1.0) == 1.0
        assert ball_mass_rate(3.0) == pytest.approx(math.gamma(4.0) ** (-1.0 / 3.0))
        # d=2 case of the dimension constant: Gamma(2)^(-1) = 1
        assert ball_mass_rate(1.0) == pytest.approx(1.0)


class TestChiSquare:
    def test_cdf_via_kernel(self):
        # chi2 CDF with k dof is P(k/2, x/2)
        assert chi2_cdf(1, 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)
        assert chi2_cdf(3, 1.0) == pytest.approx(0.19874804309879915, abs=1e-12)

    def test_ratio_in_unit_interval(self):
        for d in (1, 2, 3, 5, 10):
            for r in (0.05, 0.3, 1.0, 2.5, 10.0):
                ratio = chi2_cdf_ratio(d, r * r)
                assert 0.0 < ratio <= 1.0

    def test_ratio_small_radius_limit(self):
        # F_{d+2}(r^2)/F_d(r^2) -> r^2/(d+2)... vanishes as r -> 0
        assert chi2_cdf_ratio(2, 1e-8) < 1e-8

    @staticmethod
    def series_ratio(d, r_squared):
        """z/(a+1)·M(1, a+2, z)/M(1, a+1, z) with a = d/2, z = r²/2, each
        M(1, b, z) = Σ zⁿ/(b(b+1)…(b+n−1)) summed until the terms vanish."""
        a, z = 0.5 * d, 0.5 * r_squared

        def kummer(b):
            total, term, n = 1.0, 1.0, 0
            while term > 1e-18 * total:
                term *= z / (b + n)
                total += term
                n += 1
            return total

        return z / (a + 1.0) * kummer(a + 2.0) / kummer(a + 1.0)

    @pytest.mark.parametrize(
        "d, r_squared", [(200, 1e-3), (20, 1e-30), (2, 1e-320), (1, 1e-300)]
    )
    def test_ratio_where_the_incomplete_gamma_underflows(self, d, r_squared):
        # P(d/2 + 1, r²/2) is below the smallest normal double here
        assert gammainc(0.5 * d + 1.0, 0.5 * r_squared) < 2.2250738585072014e-308
        ratio = chi2_cdf_ratio(d, r_squared)
        assert 0.0 < ratio <= 1.0
        assert ratio == pytest.approx(self.series_ratio(d, r_squared), rel=1e-15)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.integers(1, 2000), st.floats(-300.0, 3.0))
    def test_ratio_where_p_underflows_against_scipy_kummer(self, d, log10_r_squared):
        r_squared = 10.0**log10_r_squared
        a, z = 0.5 * d, 0.5 * r_squared
        assume(gammainc(a + 1.0, z) < sys.float_info.min)
        reference = z / (a + 1.0) * hyp1f1(1.0, a + 2.0, z) / hyp1f1(1.0, a + 1.0, z)
        assert chi2_cdf_ratio(d, r_squared) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("d, r_squared", [(3, 0.5), (10, 5.0), (200, 150.0)])
    def test_ratio_against_series(self, d, r_squared):
        assert chi2_cdf_ratio(d, r_squared) == pytest.approx(
            self.series_ratio(d, r_squared), rel=1e-14
        )


class TestTruncatedQuadraticMoment:
    def test_untruncated_limit(self):
        assert truncated_quadratic_moment(np.eye(2), np.eye(2), 100.0) == pytest.approx(2.0)

    def test_high_dimension_small_radius(self):
        # P(101, 4.5e-4) underflows to 0, which made the chi2 ratio 0/0
        value = truncated_quadratic_moment(np.eye(200), np.eye(200), 0.03)
        assert value == pytest.approx(200.0 * TestChiSquare.series_ratio(200, 9e-4), rel=1e-14)

    def test_one_dimensional_value_vs_monte_carlo(self):
        closed = truncated_quadratic_moment(np.eye(1), np.eye(1), 1.0)
        assert closed == pytest.approx(
            chi2_cdf(3, 1.0) / chi2_cdf(1, 1.0), rel=1e-12
        )
        # spec-level cross check of the two chi2 values
        assert closed == pytest.approx(0.19875 / 0.68269, rel=1e-3)
        rng = np.random.default_rng(1234)
        total, count = 0.0, 0
        for _ in range(5):
            z = rng.standard_normal(2 * 10**6)
            kept = z[np.abs(z) <= 1.0]
            total += float(np.sum(kept * kept))
            count += kept.size
        assert count > 6 * 10**6  # ~68% acceptance of 1e7 draws
        assert closed == pytest.approx(total / count, rel=0.01)

    def test_tiny_radius(self):
        a = np.diag([2.0, 1.0])
        m = np.diag([0.5, 3.0])
        val = truncated_quadratic_moment(a, m, 1e-6)
        assert val <= 1e-10 * np.trace(a @ m)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3))
        a = g @ g.T
        m = np.eye(3) + 0.2 * a
        radii = np.linspace(0.1, 5.0, 20)
        vals = [truncated_quadratic_moment(a, m, r) for r in radii]
        assert all(b >= a_ - 1e-12 for a_, b in zip(vals, vals[1:]))
        assert all(v <= np.trace(a @ m) + 1e-9 for v in vals)

    def test_direct_truncated_sampler_agrees(self):
        rng = np.random.default_rng(77)
        g = rng.standard_normal((2, 2))
        a = g @ g.T
        m = np.eye(2) + 0.5 * np.diag([1.0, 0.3])
        r = 1.3
        x = sample_truncated_gaussian_ellipsoid(rng, m, r, 400_000)
        mc = float(np.mean(np.einsum("ni,ij,nj->n", x, a, x)))
        assert truncated_quadratic_moment(a, m, r) == pytest.approx(mc, rel=0.02)

    def test_argument_errors(self):
        with pytest.raises(ArgumentError):
            truncated_quadratic_moment(np.diag([1.0, -1.0]), np.eye(2), 1.0)
        with pytest.raises(ArgumentError):
            truncated_quadratic_moment(np.eye(2), np.diag([1.0, 0.0]), 1.0)
        with pytest.raises(ArgumentError):
            truncated_quadratic_moment(np.eye(2), np.eye(2), 0.0)
        with pytest.raises(ArgumentError):
            truncated_quadratic_moment(np.eye(2), np.eye(3), 1.0)
        with pytest.raises(ArgumentError):
            truncated_quadratic_moment(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), 1.0)


class TestGaussianRegionIntegral:
    def test_full_line_limit(self):
        assert gaussian_region_integral(1.0, 50.0, 1) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-12
        )

    def test_one_dimensional_against_quadrature(self):
        oracle, err = quad(lambda u: math.exp(-(u * u)), -1.0, 1.0)
        assert err < 1e-12
        value = gaussian_region_integral(2.0, 1.0, 1)
        assert value == pytest.approx(oracle, rel=1e-10)
        assert value == pytest.approx(math.sqrt(math.pi) * math.erf(1.0), rel=1e-12)

    def test_metric_determinant_scaling(self):
        ball = gaussian_region_integral(2.0, 1.0, 1)
        scaled = gaussian_region_integral(2.0, 1.0, 1, metric=np.array([[4.0]]))
        assert scaled == pytest.approx(0.5 * ball, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_mapped_tensor_quadrature(self, d):
        gamma, r = 1.7, 1.2
        oracle = ball_quadrature(
            lambda pts: np.exp(-0.5 * gamma * np.sum(pts * pts, axis=-1)), r, d
        )
        assert gaussian_region_integral(gamma, r, d) == pytest.approx(oracle, rel=1e-9)

    def test_singular_metric_error(self):
        with pytest.raises(ArgumentError):
            gaussian_region_integral(1.0, 1.0, 2, metric=np.diag([1.0, 0.0]))
        with pytest.raises(ArgumentError):
            gaussian_region_integral(0.0, 1.0, 1)
        with pytest.raises(ArgumentError):
            gaussian_region_integral(1.0, -1.0, 1)
