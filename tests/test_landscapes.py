import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import qmc

from gibbslab.bounds import taylor_approximation_error
from gibbslab.errors import ArgumentError, DomainError, LandscapeDefinitionError
from gibbslab.landscapes import (
    DataModel,
    constant_loss_data_model,
    EllipsoidSpec,
    disjoint_radius,
    double_well_landscape,
    empirical_landscape,
    enumerate_minima,
    lipschitz_estimate,
    quadratic_landscape,
    risk_jet,
    rls_data_model,
    spline_double_well_landscape,
)

from helpers import build_descriptor


def toy_square_data_model():
    """m-sample model with loss (w - z)^2, risk centered at E[z] = 0."""
    land = quadratic_landscape(1)

    def residuals(w, sample):
        return np.asarray(w, dtype=float)[..., :1] - np.ravel(sample)

    def loss_hessian(w, sample):
        shape = np.shape(w)[:-1] + (np.size(sample), 1, 1)
        return np.full(shape, 2.0)

    return DataModel(
        name="toy_square",
        landscape=land,
        loss=lambda w, sample: residuals(w, sample) ** 2,
        loss_gradient=lambda w, sample: 2.0 * residuals(w, sample)[..., None],
        loss_hessian=loss_hessian,
        sample_examples=lambda rng, n: rng.uniform(-1, 1, size=(n, 1)),
        quadratic=True,
    )


class TestRiskJet:
    def test_double_well_minimum(self):
        jet = risk_jet(double_well_landscape(), [1.0])
        assert jet.value == 0.0
        assert jet.gradient == pytest.approx([0.0])
        np.testing.assert_allclose(jet.hessian, [[8.0]])

    def test_double_well_local_max(self):
        jet = risk_jet(double_well_landscape(), [0.0])
        assert jet.value == 1.0
        assert jet.gradient == pytest.approx([0.0])
        np.testing.assert_allclose(jet.hessian, [[-4.0]])

    def test_quadratic_identity_hessian(self):
        jet = risk_jet(quadratic_landscape(2), [3.0, 4.0])
        assert jet.value == pytest.approx(12.5)
        assert jet.gradient == pytest.approx([3.0, 4.0])
        assert jet.hessian == pytest.approx(np.eye(2))

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            risk_jet(double_well_landscape(), [5.0])

    def test_risk_within_loss_bound(self):
        for land in (
            quadratic_landscape(2),
            double_well_landscape(2),
            spline_double_well_landscape(),
            rls_data_model().landscape,
        ):
            pts = qmc.Halton(d=land.dimension, scramble=False).random(800)
            lo, hi = land.domain_box[:, 0], land.domain_box[:, 1]
            w = lo + pts * (hi - lo)
            values = land.risk(w)
            assert np.all(values >= -1e-12)
            assert np.all(values <= land.loss_bound + 1e-9)


class TestEmpiricalRiskJet:
    def test_single_square_loss(self):
        dm = toy_square_data_model()
        jet = risk_jet(empirical_landscape(dm, np.array([0.0])), [2.0])
        assert jet.value == pytest.approx(4.0)
        assert jet.gradient == pytest.approx([4.0])
        np.testing.assert_allclose(jet.hessian, [[2.0]])

    def test_ridge_contribution(self):
        land = empirical_landscape(toy_square_data_model(), np.array([0.3, -0.4, 0.9]))
        w = np.array([0.0])
        # ridge vanishes at w=0
        assert land.reg_risk(w, 1.0) == pytest.approx(land.reg_risk(w, 0.0))
        assert land.reg_gradient(w, 1.0) == pytest.approx(land.reg_gradient(w, 0.0))
        np.testing.assert_allclose(
            land.reg_hessian(w, 1.0) - land.reg_hessian(w, 0.0), [[2.0]], atol=1e-12
        )

    def test_rls_matches_independent_resummation(self):
        dm = rls_data_model()
        rng = np.random.default_rng(42)
        sample = dm.sample_examples(rng, 100)
        lam = 0.05
        w_star = enumerate_minima(dm.landscape, lam)[0].location
        land = empirical_landscape(dm, sample)
        # second code path: plain python accumulation
        total = slope = curvature = 0.0
        for x, y in sample:
            total += (y - w_star[0] * x) ** 2
            slope += -2.0 * (y - w_star[0] * x) * x
            curvature += 2.0 * x * x
        m = len(sample)
        expected = total / m + lam * w_star[0] ** 2
        assert land.reg_risk(w_star, lam) == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(
            land.reg_gradient(w_star, lam), [slope / m + 2.0 * lam * w_star[0]],
            rtol=0.0, atol=1e-12,
        )
        np.testing.assert_allclose(
            land.reg_hessian(w_star, lam), [[curvature / m + 2.0 * lam]], rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_rls_minimum_solves_normal_equations(self, lam):
        dm = rls_data_model()
        sample = dm.sample_examples(np.random.default_rng(5), 100)
        minimum = enumerate_minima(empirical_landscape(dm, sample), lam)[0]
        sxx = sum(x * x for x, _ in sample) / len(sample)
        sxy = sum(x * y for x, y in sample) / len(sample)
        np.testing.assert_allclose(
            minimum.location, [2.0 * sxy / (2.0 * sxx + 2.0 * lam)], rtol=0.0, atol=1e-12
        )

    def test_empty_sample(self):
        with pytest.raises(ArgumentError):
            empirical_landscape(toy_square_data_model(), np.empty((0, 1)))


class TestEnumerateMinima:
    def test_double_well_unregularized(self):
        minima = enumerate_minima(double_well_landscape(), 0.0)
        locs = sorted(float(m.location[0]) for m in minima)
        assert locs == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert all(m.is_global for m in minima)
        assert all(m.hessian[0, 0] == pytest.approx(8.0) for m in minima)

    def test_double_well_ridge_pulls_inward(self):
        lam = 0.1
        minima = enumerate_minima(double_well_landscape(), lam)
        # independent derivation: 4w(w^2-1) + 2*lam*w = 0  =>  w^2 = 1 - lam/2
        expected = math.sqrt(1.0 - lam / 2.0)
        for m in minima:
            assert abs(m.location[0]) == pytest.approx(expected, abs=1e-10)
            assert abs(m.location[0]) < 1.0
            assert m.is_global

    def test_quadratic_origin(self):
        for lam in (0.0, 0.3):
            minima = enumerate_minima(quadratic_landscape(2), lam)
            assert len(minima) == 1
            assert minima[0].location == pytest.approx([0.0, 0.0], abs=1e-12)
            assert minima[0].reg_risk_value == pytest.approx(0.0, abs=1e-15)

    def test_descriptor_invariants(self):
        for land, lam in [
            (double_well_landscape(2), 0.05),
            (spline_double_well_landscape(), 0.0),
        ]:
            minima = enumerate_minima(land, lam)
            for m in minima:
                grad = land.reg_gradient(m.location, lam)
                assert np.linalg.norm(grad) <= 1e-8
                assert np.linalg.eigvalsh(m.reg_hessian)[0] > 0.0
                assert np.linalg.eigvalsh(m.hessian)[0] >= -1e-9
                assert m.lambda_min > 0.0
            for i in range(len(minima)):
                for j in range(i + 1, len(minima)):
                    assert np.linalg.norm(minima[i].location - minima[j].location) > 1e-6

    def test_spectra_are_taken_once(self, monkeypatch):
        # the descriptors' cached spectra are the ones the checks took, and
        # the double well's closed-form L(r) reads them
        minima = enumerate_minima(double_well_landscape(2), 0.05)
        expected = [(np.linalg.eigvalsh(m.hessian), np.linalg.eigvalsh(m.reg_hessian))
                    for m in minima]

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called after enumerate_minima")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for m, (eigs, reg_eigs) in zip(minima, expected):
            assert np.array_equal(m.hessian_eigenvalues, eigs)
            assert np.array_equal(m.reg_hessian_eigenvalues, reg_eigs)
            assert m.lipschitz(0.3) > 0.0

    def test_deterministic(self):
        a = enumerate_minima(double_well_landscape(2), 0.02)
        b = enumerate_minima(double_well_landscape(2), 0.02)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.location, mb.location)
            assert ma.reg_risk_value == mb.reg_risk_value

    def test_sorted_by_value(self):
        minima = enumerate_minima(spline_double_well_landscape(), 0.1)
        values = [m.reg_risk_value for m in minima]
        assert values == sorted(values)
        # under ridge the stiffer well is strictly suboptimal
        assert minima[0].is_global and not minima[1].is_global

    def test_merged_wells_rejected(self):
        with pytest.raises(LandscapeDefinitionError):
            enumerate_minima(double_well_landscape(), 3.0)

    def test_minimum_outside_the_box_rejected(self):
        with pytest.raises(DomainError):
            enumerate_minima(double_well_landscape(1, bounds=(0.5, 2.0)), 0.0)
        with pytest.raises(DomainError):
            enumerate_minima(quadratic_landscape(1, bounds=(1.0, 5.0)), 0.0)


def scipy_halton_ellipsoid_points(minimum, r, count):
    """The ellipsoid point set built on scipy's unscrambled Halton engine."""
    eigval, eigvec = np.linalg.eigh(minimum.reg_hessian)
    inv_sqrt = eigvec @ np.diag(eigval**-0.5) @ eigvec.T
    sampler = qmc.Halton(d=minimum.dimension, scramble=False)
    collected, total = [], 0
    while total < count:
        v = 2.0 * sampler.random(4 * count) - 1.0
        pts = v[np.sum(v * v, axis=1) <= 1.0]
        collected.append(pts)
        total += pts.shape[0]
    ball = np.concatenate(collected, axis=0)[:count]
    return minimum.location + (r * ball) @ inv_sqrt.T


class TestLipschitzEstimate:
    def test_quadratic_is_zero(self):
        land = quadratic_landscape(1)
        m = enumerate_minima(land, 0.0)[0]
        for r in (0.1, 1.0, 4.0):
            assert lipschitz_estimate(land, m, r) == 0.0
        assert not m.lipschitz_is_estimate

    def test_double_well_closed_form(self):
        land = double_well_landscape()
        m = [x for x in enumerate_minima(land, 0.0) if x.location[0] > 0][0]
        for r in (0.2, 1.0, 2.0):
            assert m.lipschitz(r) == pytest.approx(12.0 * (2.0 + r / math.sqrt(8.0)))
        # r -> 0 limit of the closed form is 24, while r = 0 returns 0
        assert m.lipschitz(1e-9) == pytest.approx(24.0, rel=1e-6)
        assert m.lipschitz(0.0) == 0.0

    def test_fallback_flagged_and_close_to_dense_scan(self):
        land = spline_double_well_landscape()
        m = [x for x in enumerate_minima(land, 0.0) if x.location[0] < 0][0]
        assert m.lipschitz_is_estimate
        r = 0.8
        est = lipschitz_estimate(land, m, r)
        # independent dense scan of the ratio on the same interval
        rho = r / math.sqrt(m.reg_hessian[0, 0])
        ws = np.linspace(m.location[0] - rho, m.location[0] + rho, 200_001)[:, None]
        hess = land.hessian(ws)[:, 0, 0]
        dist = np.abs(ws[:, 0] - m.location[0])
        keep = dist > 1e-9
        dense = float(np.max(np.abs(hess[keep] - m.hessian[0, 0]) / dist[keep]))
        assert est <= dense * (1.0 + 1e-9)  # under-estimate by construction
        assert est == pytest.approx(dense, rel=5e-3)

    def test_small_radius_stays_inside_quadratic_piece(self):
        land = spline_double_well_landscape()
        m = enumerate_minima(land, 0.0)[0]
        assert lipschitz_estimate(land, m, 0.2) == 0.0

    @pytest.mark.parametrize("ridge", [0.0, 0.05])
    def test_spline_grid_scan_equals_halton_reference(self, ridge):
        # in d = 1 the first 4096 unscrambled Halton points are the grid
        # -1 + 2k/4096, so the scan reproduces the Halton maximum bit for bit
        land = spline_double_well_landscape()
        minima = enumerate_minima(land, ridge)
        r0 = disjoint_radius(minima)
        rels = [0.1, 0.2, 0.3, 0.5, 0.8] + list(np.linspace(0.0, 1.0, 65)[1:])
        for m in minima:
            for rel in rels:
                pts = scipy_halton_ellipsoid_points(m, rel * r0, 4096)
                dists = np.linalg.norm(pts - m.location, axis=1)
                keep = dists > 1e-12
                gaps = np.linalg.eigvalsh(land.hessian(pts[keep]) - m.hessian)
                spectral = np.maximum(np.abs(gaps[..., 0]), np.abs(gaps[..., -1]))
                reference = float(np.max(spectral / dists[keep]))
                assert lipschitz_estimate(land, m, rel * r0) == reference

    def test_undeclared_landscape_in_two_dimensions_raises(self):
        land = dataclasses.replace(double_well_landscape(2), lipschitz_closed_form=None)
        with pytest.raises(LandscapeDefinitionError, match="neither quadratic"):
            enumerate_minima(land, 0.0)

    def test_rls_empirical_landscape_is_exactly_zero(self):
        model = rls_data_model()
        land = empirical_landscape(model, model.sample_examples(np.random.default_rng(3), 40))
        assert land.lipschitz_closed_form is None
        m = enumerate_minima(land, 0.1)[0]
        assert not m.lipschitz_is_estimate
        for r in (0.05, 0.5, 2.0):
            assert m.lipschitz(r) == 0.0
            assert lipschitz_estimate(land, m, r) == 0.0

    def test_profile_evaluates_each_radius_once(self):
        land = spline_double_well_landscape()
        calls = []

        def counted_hessian(w):
            calls.append(np.shape(w))
            return land.hessian(w)

        minimum = enumerate_minima(dataclasses.replace(land, hessian=counted_hessian), 0.0)[0]
        first = minimum.lipschitz(0.4)
        seen = len(calls)
        assert seen > 0
        assert minimum.lipschitz(0.4) == first
        assert len(calls) == seen


class TestDisjointRadius:
    def test_double_well_value(self):
        minima = enumerate_minima(double_well_landscape(), 0.0)
        assert disjoint_radius(minima) == pytest.approx(math.sqrt(8.0))

    def test_single_quadratic_box_touch(self):
        minima = enumerate_minima(quadratic_landscape(1, bounds=(-5.0, 5.0)), 0.0)
        assert disjoint_radius(minima) == pytest.approx(5.0)

    def test_box_caps_the_pairwise_radius(self):
        # wells at ±1 with curvature 8: the pairwise radius is √8, but each
        # ellipsoid touches the box [−1.2, 1.2] at 0.2·√8
        minima = enumerate_minima(double_well_landscape(bounds=(-1.2, 1.2)), 0.0)
        assert disjoint_radius(minima) == pytest.approx(0.2 * math.sqrt(8.0))

    def test_monotone_in_smallest_eigenvalue(self):
        base = [
            build_descriptor([-1.0], [[4.0]]),
            build_descriptor([1.0], [[4.0]], index=1),
        ]
        softer = [
            build_descriptor([-1.0], [[4.0]]),
            build_descriptor([1.0], [[0.25]], index=1),
        ]
        assert disjoint_radius(softer) == pytest.approx(
            disjoint_radius(base) * math.sqrt(0.25 / 4.0)
        )

    def test_duplicate_locations_rejected(self):
        dup = [build_descriptor([1.0], [[4.0]]), build_descriptor([1.0], [[2.0]], index=1)]
        with pytest.raises(ArgumentError):
            disjoint_radius(dup)

    @pytest.mark.parametrize("land_fn,lam", [
        (double_well_landscape, 0.0),
        (spline_double_well_landscape, 0.0),
    ])
    def test_no_point_in_two_ellipsoids_at_r0(self, land_fn, lam):
        land = land_fn()
        minima = enumerate_minima(land, lam)
        r0 = disjoint_radius(minima)
        # scrambled (seeded, deterministic) points avoid the measure-zero
        # tangency where two closed ellipsoids touch exactly at r0
        pts = qmc.Halton(d=land.dimension, scramble=True, seed=99).random(4096)
        lo, hi = land.domain_box[:, 0], land.domain_box[:, 1]
        grid = lo + pts * (hi - lo)
        membership = np.stack(
            [m.ellipsoid(r0).contains(grid) for m in minima], axis=0
        )
        assert int(np.max(membership.sum(axis=0))) <= 1


class TestTaylorSandwich:
    @pytest.mark.parametrize("land_fn,lam", [
        (double_well_landscape, 0.0),
        (double_well_landscape, 0.1),
        (spline_double_well_landscape, 0.0),
    ])
    def test_quadratic_model_sandwich(self, land_fn, lam):
        land = land_fn()
        minima = enumerate_minima(land, lam)
        r0 = disjoint_radius(minima)
        for m in minima:
            for frac in (0.2, 0.5, 1.0):
                r = frac * r0
                eps = taylor_approximation_error(m, r, lam)
                rho = r / math.sqrt(float(np.linalg.eigvalsh(m.reg_hessian)[0]))
                offsets = np.linspace(-rho, rho, 401)
                w = m.location[None, :] + offsets[:, None]
                inside = m.ellipsoid(r).contains(w)
                w = w[inside]
                actual = land.reg_risk(w, lam)
                diff = w - m.location
                quad_model = m.reg_risk_value + 0.5 * np.einsum(
                    "ni,ij,nj->n", diff, m.reg_hessian, diff
                )
                assert np.all(actual >= quad_model - eps / 6.0 - 1e-12)
                assert np.all(actual <= quad_model + eps / 6.0 + 1e-12)


class TestSplineDoubleWell:
    def test_exactly_two_minima_with_requested_curvatures(self):
        land = spline_double_well_landscape(curvatures=(1.0, 4.0))
        minima = enumerate_minima(land, 0.0)
        assert len(minima) == 2
        hs = sorted(float(m.hessian[0, 0]) for m in minima)
        assert hs == pytest.approx([1.0, 4.0])
        assert all(m.reg_risk_value == pytest.approx(0.0, abs=1e-14) for m in minima)

    def test_c2_junctions_one_sided_differences(self):
        land = spline_double_well_landscape()
        delta = land.params["junction_offset"]
        for junction in (-1.0 + delta, 1.0 - delta):
            h = 1e-6
            for fn in (land.risk, lambda w: land.gradient(w)[..., 0]):
                left = (fn(np.array([[junction]])) - fn(np.array([[junction - h]]))) / h
                right = (fn(np.array([[junction + h]])) - fn(np.array([[junction]]))) / h
                # one-sided differences carry O(h*f''') error ~ 7e-5 here
                assert float(left[0]) == pytest.approx(float(right[0]), abs=1e-4)
            # second derivative continuity directly from the closed form
            h_left = land.hessian(np.array([[junction - 1e-12]]))[0, 0, 0]
            h_right = land.hessian(np.array([[junction + 1e-12]]))[0, 0, 0]
            assert h_left == pytest.approx(h_right, rel=1e-6)

    def test_no_interior_minimum_on_bridge(self):
        land = spline_double_well_landscape()
        w = np.linspace(-0.59, 0.59, 5001)[:, None]
        grad = land.gradient(w)[:, 0]
        signs = np.sign(grad)
        # gradient crosses zero exactly once (the barrier top)
        assert int(np.sum(signs[:-1] != signs[1:])) == 1

    def test_one_point_calls_match_batched_rows(self):
        # a one-point call evaluates only its own piece; its bits and shapes
        # are those of the batch row, on every piece, at both junctions
        # (ties: x = j1 is left, x = j2 right) and at NaN
        land = spline_double_well_landscape()
        delta = land.params["junction_offset"]
        points = list(np.random.default_rng(31).uniform(-3.0, 3.0, 300)) + [np.nan]
        for junction in (-1.0 + delta, 1.0 - delta):
            below, above = np.nextafter(junction, -np.inf), np.nextafter(junction, np.inf)
            points += [junction - 0.1, below, junction, above, junction + 0.1]
        batch = np.array(points)[:, None]
        risks, grads, hessians = land.risk(batch), land.gradient(batch), land.hessian(batch)
        for k, w in enumerate(batch):
            for one, row in ((land.risk(w), risks[k]), (land.gradient(w), grads[k]),
                             (land.hessian(w), hessians[k])):
                assert np.shape(one) == np.shape(row)
                assert np.array_equal(one, row, equal_nan=True)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ArgumentError):
            spline_double_well_landscape(curvatures=(1.0, -1.0))
        with pytest.raises(ArgumentError):
            spline_double_well_landscape(junction_offset=2.0)


class TestEllipsoidSpec:
    def test_membership_symmetric_under_reflection(self):
        from gibbslab.landscapes import EllipsoidSpec

        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 3))
        spec = EllipsoidSpec(
            center=rng.standard_normal(3), metric=g @ g.T + 0.5 * np.eye(3), radius=1.3
        )
        w = spec.center + rng.standard_normal((500, 3))
        reflected = 2.0 * spec.center - w
        np.testing.assert_array_equal(spec.contains(w), spec.contains(reflected))


    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_metric_norm_matches_per_point_loop(self, d):
        from gibbslab.landscapes import EllipsoidSpec

        rng = np.random.default_rng(11)
        g = rng.standard_normal((d, d))
        spec = EllipsoidSpec(center=rng.standard_normal(d), metric=g @ g.T + np.eye(d), radius=1.0)
        w = rng.standard_normal((200, d)) * 3.0
        loop = [
            math.sqrt(sum((p[i] - spec.center[i]) * spec.metric[i, j] * (p[j] - spec.center[j])
                          for i in range(d) for j in range(d)))
            for p in w
        ]
        np.testing.assert_allclose(spec.metric_norm(w), loop, rtol=1e-14)
        assert float(spec.metric_norm(w[0])) == pytest.approx(loop[0], rel=1e-14)


class TestQuadraticRisk:
    def test_risk_matches_per_point_loop(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((3, 3))
        a = g @ g.T + 0.1 * np.eye(3)
        land = quadratic_landscape(3, matrix=a)
        w = rng.uniform(-5.0, 5.0, size=(4, 50, 3))
        loop = np.array([
            [0.5 * sum(p[i] * a[i, j] * p[j] for i in range(3) for j in range(3)) for p in row]
            for row in w
        ])
        np.testing.assert_allclose(land.risk(w), loop, rtol=1e-14)
        assert float(land.risk(w[0, 0])) == pytest.approx(loop[0, 0], rel=1e-14)

    def test_diagonal_loss_bound_is_the_worst_corner(self):
        rng = np.random.default_rng(13)
        h = rng.exponential(size=4)
        box = [(-3.0, 1.0), (-0.5, 2.0), (1.0, 4.0), (-2.0, -1.0)]
        corners = np.array(list(itertools.product(*box)))
        worst = max(0.5 * c @ np.diag(h) @ c for c in corners)
        assert quadratic_landscape(4, matrix=np.diag(h), bounds=box).loss_bound == worst

    @pytest.mark.parametrize(
        "kwargs, matrix",
        [
            ({}, [[1.0]]),
            ({"dimension": 1}, [[1.0]]),
            ({"dimension": 3}, np.eye(3)),
            ({"matrix": 2.0}, [[2.0]]),
            ({"matrix": np.diag([0.2, 1.0, 7.0])}, np.diag([0.2, 1.0, 7.0])),
            ({"dimension": 2, "matrix": [[1.0, 0.3], [0.3, 2.0]]}, [[1.0, 0.3], [0.3, 2.0]]),
        ],
    )
    def test_dimension_defaults_to_the_matrix_size(self, kwargs, matrix):
        land = quadratic_landscape(**kwargs)
        d = len(matrix)
        assert land.dimension == d and land.domain_box.shape == (d, 2)
        np.testing.assert_array_equal(land.params["matrix"], matrix)

    def test_dimension_that_disagrees_with_the_matrix_raises(self):
        with pytest.raises(ArgumentError, match="dimension 5"):
            quadratic_landscape(dimension=5, matrix=[[2.0]])
        with pytest.raises(ArgumentError, match="dimension 1"):
            quadratic_landscape(1, matrix=np.eye(2))

    def test_diagonal_loss_bound_in_high_dimension(self):
        start = time.perf_counter()
        land = quadratic_landscape(40)
        assert time.perf_counter() - start < 0.25
        assert land.loss_bound == 500.0


class TestCoordinateKernels:
    """The per-coordinate-column kernels against the whole-axis numpy
    formulas they replaced: bit for bit where those summed the d terms in
    order, within 1e-14 relative where an einsum over d = 3 did not."""

    @staticmethod
    def _batches(d, seed):
        # points of shape (d,), (n, d) and (a, b, d)
        rng = np.random.default_rng(seed)
        return [rng.uniform(-5.0, 5.0, size=lead + (d,)) for lead in [(), (40,), (3, 5)]]

    @staticmethod
    def _assert_matches(new, old, exact):
        assert np.shape(new) == np.shape(old)
        if exact:
            assert np.array_equal(new, old)
        else:
            np.testing.assert_allclose(new, old, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_double_well_risk_and_ridge_term(self, d):
        land = double_well_landscape(d)
        for w in self._batches(d, 21):
            self._assert_matches(land.risk(w), np.sum((w * w - 1.0) ** 2, axis=-1), True)
            old = np.sum((w * w - 1.0) ** 2, axis=-1) + 0.3 * np.sum(w * w, axis=-1)
            self._assert_matches(land.reg_risk(w, 0.3), old, True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_quadratic_risk(self, d):
        rng = np.random.default_rng(22)
        g = rng.standard_normal((d, d))
        a = g @ g.T + 0.1 * np.eye(d)
        land = quadratic_landscape(d, matrix=a)
        a = land.params["matrix"]
        for w in self._batches(d, 23):
            old = 0.5 * np.einsum("...i,...i->...", w @ a, w)
            self._assert_matches(land.risk(w), old, d <= 2)
            self._assert_matches(land.gradient(w), w @ a.T, True)

    @pytest.mark.parametrize(
        "land",
        [double_well_landscape(1), double_well_landscape(2), quadratic_landscape(3),
         spline_double_well_landscape()],
        ids=["double_well1", "double_well2", "quadratic3", "spline"],
    )
    def test_zero_ridge_is_the_plain_risk(self, land):
        for w in self._batches(land.dimension, 26):
            self._assert_matches(land.reg_risk(w, 0.0), land.risk(w), True)
            self._assert_matches(land.reg_gradient(w, 0.0), land.gradient(w), True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_metric_norm(self, d):
        rng = np.random.default_rng(24)
        g = rng.standard_normal((d, d))
        spec = EllipsoidSpec(center=rng.standard_normal(d), metric=g @ g.T + np.eye(d), radius=1.0)
        for w in self._batches(d, 25):
            diff = w - spec.center
            if d == 1:
                old = np.sqrt(np.einsum("...i,ij,...j->...", diff, spec.metric, diff))
            else:
                old = np.sqrt(np.einsum("...i,...i->...", diff @ spec.metric, diff))
            self._assert_matches(spec.metric_norm(w), old, d <= 2)


class TestCoordinateRisks:
    """Declared coordinate pieces: Σₖ coordinate_risks[k](wₖ) is the risk
    and coordinate_slopes[k](wₖ) the k-th gradient entry, bit for bit, on
    batches and on single points of Python floats."""

    @staticmethod
    def _assert_declared(land, seed, points=()):
        rng = np.random.default_rng(seed)
        d = land.dimension
        risks, slopes = land.coordinate_risks, land.coordinate_slopes
        assert len(risks) == len(slopes) == d
        lo, hi = land.domain_box[:, 0], land.domain_box[:, 1]
        batches = [rng.uniform(lo, hi, size=lead + (d,)) for lead in [(50,), (4, 5)]]
        if points:
            batches.append(np.array(points, dtype=float))
        for w in batches:
            risk, gradient = land.risk(w), land.gradient(w)
            total = risks[0](w[..., 0])
            for k in range(1, d):
                total = total + risks[k](w[..., k])
            np.testing.assert_array_equal(total, risk)
            by_piece = np.stack([slopes[k](w[..., k]) for k in range(d)], axis=-1)
            np.testing.assert_array_equal(by_piece, gradient)
            # each row again as d Python floats, against its batch row
            rows = zip(
                w.reshape(-1, d).tolist(),
                risk.reshape(-1).tolist(),
                gradient.reshape(-1, d).tolist(),
            )
            for point, r, g in rows:
                value = risks[0](point[0])
                for k in range(1, d):
                    value += risks[k](point[k])
                assert type(value) is float and value == r
                assert [slope(x) for slope, x in zip(slopes, point)] == g

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_double_well(self, d):
        self._assert_declared(double_well_landscape(d), 31 + d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_diagonal_quadratic(self, d):
        spectrum = np.random.default_rng(40 + d).uniform(0.2, 5.0, size=d)
        self._assert_declared(quadratic_landscape(d, matrix=np.diag(spectrum)), 41 + d)

    def test_spline(self):
        # the junctions c₁ + δ and c₂ − δ, their neighbours and the box ends
        land = spline_double_well_landscape()
        (c1, c2), delta = land.params["centers"], land.params["junction_offset"]
        (lo, hi), = land.domain_box
        junctions = [c1 + delta, c2 - delta]
        near = [np.nextafter(j, s) for j in junctions for s in (-np.inf, np.inf)]
        points = [[x] for x in [lo, hi, *junctions, *near, c1, c2, 0.0]]
        self._assert_declared(land, 51, points)

    def test_non_diagonal_quadratic_declares_none(self):
        land = quadratic_landscape(2, matrix=[[1.0, 0.3], [0.3, 2.0]])
        assert land.coordinate_risks is None and land.coordinate_slopes is None

    def test_empirical_landscape_declares_none(self):
        land = double_well_landscape(2)
        model = constant_loss_data_model(land)
        empirical = empirical_landscape(model, np.zeros((3, 1)))
        assert empirical.coordinate_risks is None and empirical.coordinate_slopes is None


class TestDataModels:
    def test_monte_carlo_loss_matches_risk(self):
        dm = rls_data_model()
        rng = np.random.default_rng(7)
        examples = dm.sample_examples(rng, 10**5)
        land = dm.landscape
        tol = 4.0 * land.loss_bound / math.sqrt(10**5)
        probes = np.linspace(-2.5, 2.5, 10)
        for w in probes:
            resid = examples[:, 1] - w * examples[:, 0]
            mc = float(np.mean(resid * resid))
            assert mc == pytest.approx(float(land.risk(np.array([w]))), abs=tol)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rls_loss_is_the_squared_residual(self, order):
        dm = rls_data_model()
        sample = np.asarray(dm.sample_examples(np.random.default_rng(8), 50), order=order)
        x, y = sample[:, 0], sample[:, 1]
        for w in (np.array([0.7]), np.random.default_rng(9).uniform(-3.0, 3.0, (4, 3, 1))):
            resid = y - w[..., :1] * x
            assert np.array_equal(dm.loss(w, sample), resid * resid)
            assert np.array_equal(dm.loss_gradient(w, sample), (-2.0 * resid * x)[..., None])

    @pytest.mark.parametrize(
        "dm",
        [
            rls_data_model(),
            constant_loss_data_model(double_well_landscape(2)),
        ],
        ids=["rls", "constant_loss"],
    )
    def test_sample_axes_broadcast_against_point_axes(self, dm):
        rng = np.random.default_rng(11)
        samples = np.stack([dm.sample_examples(rng, 7) for _ in range(3)])
        w = rng.uniform(-1.0, 1.0, (3, dm.landscape.dimension))
        for fn in (dm.loss, dm.loss_gradient, dm.loss_hessian):
            # point t with sample t, and one point with every sample
            assert np.array_equal(fn(w, samples), np.stack([fn(w[t], samples[t]) for t in range(3)]))
            assert np.array_equal(fn(w[0], samples), np.stack([fn(w[0], s) for s in samples]))

    def test_rls_clipping_never_binds(self):
        dm = rls_data_model()
        rng = np.random.default_rng(3)
        examples = dm.sample_examples(rng, 10**5)
        assert np.all(np.abs(examples[:, 1]) <= 1.0)
        with pytest.raises(ArgumentError):
            rls_data_model(slope=0.9, noise_halfwidth=0.5)
