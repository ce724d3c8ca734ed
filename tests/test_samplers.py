import dataclasses
import math

import numpy as np
import pytest

from gibbslab.errors import ArgumentError, ConditioningError, DivergenceError
from gibbslab.landscapes import (
    EllipsoidSpec,
    constant_loss_data_model,
    double_well_landscape,
    empirical_landscape,
    enumerate_minima,
    quadratic_landscape,
    rls_data_model,
    spline_double_well_landscape,
)
from gibbslab import samplers
from gibbslab.oracles import quadrature_measure, tensor_gauss_legendre
from gibbslab.samplers import (
    chain_seed,
    condition_on_region,
    default_step_size,
    sample_chain,
    target_from_landscape,
)

from helpers import gaussian_batch


def quadratic_target(bounds=(-5.0, 5.0)):
    return target_from_landscape(quadratic_landscape(1, bounds=bounds), 0.0)


class TestSeeding:
    def test_chain_seed_is_documented_mix(self):
        # the mix must be stable across releases: freeze two values
        assert chain_seed(0, 0) == chain_seed(0, 0)
        assert chain_seed(1, 0) != chain_seed(0, 0)
        assert chain_seed(0, 1) != chain_seed(0, 0)

    def test_bitwise_reproducible(self):
        tgt = quadratic_target()
        for kind in ("sgld", "metropolis"):
            a = sample_chain(kind, tgt, 10.0, 0.05, 2000, 100, master_seed=9, chain_id=3)
            b = sample_chain(kind, tgt, 10.0, 0.05, 2000, 100, master_seed=9, chain_id=3)
            assert np.array_equal(a.samples, b.samples)
            assert a.acceptance_rate == b.acceptance_rate

    def test_chains_differ_across_ids(self):
        tgt = quadratic_target()
        for kind in ("sgld", "metropolis"):
            a = sample_chain(kind, tgt, 10.0, 0.05, 500, 0, 9, chain_id=0)
            b = sample_chain(kind, tgt, 10.0, 0.05, 500, 0, 9, chain_id=1)
            assert not np.array_equal(a.samples, b.samples)

    def test_sample_count(self):
        tgt = quadratic_target()
        batch = sample_chain("sgld", tgt, 10.0, 0.05, 1234, 234, 1)
        assert len(batch) == 1000


class TestSgld:
    def test_vanishing_noise_is_gradient_descent(self):
        # risk (1/2)w^2 on a box centered at 3: iterates contract as (1-eta)^t;
        # at gamma = 1e300 the noise sqrt(2 eta/gamma) is below every ulp
        tgt = quadratic_target(bounds=(1.0, 5.0))
        eta = 0.1
        batch = sample_chain("sgld", tgt, 1e300, eta, 20, 0, 5)
        w0 = 3.0
        expected = [w0 * (1 - eta) ** (t + 1) for t in range(20)]
        np.testing.assert_allclose(batch.samples[:, 0], expected, rtol=1e-12)

    def test_stationary_variance_matches_ar1(self):
        # AR(1) second moment: var = 2/(gamma(2 - eta)) for risk (1/2)w^2
        gamma, eta, steps = 10.0, 0.01, 200_000
        tgt = quadratic_target()
        batch = sample_chain("sgld", tgt, gamma, eta, steps, steps // 5, 12)
        expected = 2.0 / (gamma * (2.0 - eta))
        assert float(batch.samples.var()) == pytest.approx(expected, rel=0.1)

    def test_divergence_names_step_size(self):
        tgt = quadratic_target()
        with pytest.raises(DivergenceError, match="step_size=3.0"):
            sample_chain("sgld", tgt, 10.0, 3.0, 200, 0, 1)

    def test_nan_iterate_diverges(self):
        # a NaN gradient from the batch call, and a NaN slope on one
        # coordinate, in d = 1 and on the second axis of a d = 2 target
        batch = dataclasses.replace(
            quadratic_target(), grad=lambda w: np.full_like(w, np.nan), coordinate_slopes=None
        )
        point = dataclasses.replace(quadratic_target(), coordinate_slopes=(lambda x: math.nan,))
        diagonal = target_from_landscape(quadratic_landscape(matrix=np.diag([1.0, 2.0])), 0.0)
        second = dataclasses.replace(
            diagonal, coordinate_slopes=(diagonal.coordinate_slopes[0], lambda x: math.nan)
        )
        for tgt in (batch, point, second):
            with pytest.raises(DivergenceError, match=r"step 1 .*step_size=0\.01"):
                sample_chain("sgld", tgt, 10.0, 0.01, 200, 0, 1)

    def test_divergence_on_one_axis_names_the_reference_step(self):
        # A = diag(1, 4) at η = 0.6: |1 − η| = 0.4 on axis 0 but |1 − 4η| =
        # 1.4 on axis 1, whose recursion alone leaves the 10-width halo
        tgt = target_from_landscape(quadratic_landscape(matrix=np.diag([1.0, 4.0])), 0.0)
        gamma, eta = 10.0, 0.6
        with np.errstate(over="ignore", invalid="ignore"):
            reference = sgld_one_draw_per_step(tgt, gamma, eta, 200, 7)
        box = tgt.domain_box
        width = box[:, 1] - box[:, 0]
        inside = (reference >= box[:, 0] - 10.0 * width) & (reference <= box[:, 1] + 10.0 * width)
        first = int(inside.all(axis=1).argmin())
        assert not inside[first, 1] and inside[: first + 1, 0].all()
        with pytest.raises(DivergenceError, match=rf"step {first + 1} .*step_size=0\.6"):
            sample_chain("sgld", tgt, gamma, eta, 200, 0, 7)

    def test_default_step_size_rule(self):
        tgt = quadratic_target()
        assert default_step_size(tgt, 10.0) == pytest.approx(0.5 / 10.0)

    @pytest.mark.parametrize(
        "landscape, gamma",
        [(spline_double_well_landscape(), 50.0), (double_well_landscape(dimension=2), 20.0)],
        ids=["spline", "double_well_d2"],
    )
    def test_step_size_reads_declared_curvature(self, landscape, gamma):
        # chains start at the box centre 0, on the barrier: R''(0) < 0, and
        # the d = 2 Hessian there is (R''(0))·I
        center = landscape.domain_box.mean(axis=1)
        assert np.all(center == 0.0)
        curvature = float(landscape.hessian(center)[0, 0])
        assert curvature < 0.0
        tgt = target_from_landscape(landscape, 0.0)
        assert default_step_size(tgt, gamma) == 0.5 / (gamma * abs(curvature))

    @pytest.mark.parametrize("ridge", [0.0, 0.05, 0.1])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: quadratic_landscape(1),
            lambda: quadratic_landscape(matrix=[[3.0, 1.0], [1.0, 0.5]]),
            lambda: quadratic_landscape(matrix=np.diag([0.2, 1.0, 7.0])),
            lambda: rls_data_model().landscape,
            lambda: empirical_landscape(
                rls_data_model(),
                rls_data_model().sample_examples(np.random.default_rng(3), 25),
            ),
            lambda: empirical_landscape(
                constant_loss_data_model(quadratic_landscape(2)), np.zeros((5, 1))
            ),
        ],
        ids=["quadratic_d1", "quadratic_d2_aniso", "quadratic_d3_diag", "rls",
             "empirical_rls", "constant_loss_quadratic"],
    )
    def test_step_size_of_quadratic_target_reads_its_hessian(self, make, ridge):
        # a constant Hessian: the one at the box centre is the one at 0
        land = make()
        tgt = target_from_landscape(land, ridge)
        hess = land.reg_hessian(np.zeros(land.dimension), ridge)
        rho = float(np.abs(np.linalg.eigvalsh(hess)).max())
        assert default_step_size(tgt, 20.0) == 0.5 / (20.0 * rho)


def sgld_one_draw_per_step(target, gamma, eta, steps, seed):
    """The SGLD chain over sample_chain's documented stream, one batch
    gradient call and one standard_normal(d) draw per step."""
    rng = np.random.default_rng(chain_seed(seed, 0))
    scale = math.sqrt(2.0 * eta / gamma)
    w = target.domain_box.mean(axis=1)
    path = []
    for _ in range(steps):
        w = w - eta * np.asarray(target.grad(w), dtype=float)
        w = w + scale * rng.standard_normal(target.dim)
        path.append(w)
    return np.array(path)


def metropolis_one_at_a_time(target, gamma, eta, steps, burn_in, seed, restart):
    """The Metropolis chain over sample_chain's documented block stream,
    one proposal and one potential call per step."""
    rng = np.random.default_rng(chain_seed(seed, 0))
    lo, hi = target.domain_box[:, 0], target.domain_box[:, 1]
    d = target.dim
    w = target.domain_box.mean(axis=1)
    fw = float(target.value(w))
    path, accepted = [], 0
    for start in range(0, steps, 4096):
        n = min(4096, steps - start)
        flags = rng.random(n) < restart
        uniform = rng.uniform(lo, hi, size=(n, d))
        jump = eta * rng.standard_normal((n, d))
        log_u = np.log(rng.random(n))
        for i in range(n):
            proposal = uniform[i] if flags[i] else w + jump[i]
            if np.all(proposal >= lo) and np.all(proposal <= hi):
                f_prop = float(target.value(proposal))
                if log_u[i] < -gamma * (f_prop - fw):
                    w, fw = proposal, f_prop
                    accepted += 1
            path.append(w)
    return np.array(path)[burn_in:], accepted / steps


# targets with and without point functions: the non-diagonal quadratic and
# the wrapped target declare no coordinate pieces, so their chains make one
# batch call per step; the spline's λ > 0 target adds the ridge to its pieces
NO_PIECES = {
    "d2_quadratic_no_pieces": lambda: target_from_landscape(
        quadratic_landscape(matrix=[[3.0, 1.0], [1.0, 0.5]]), 0.0
    ),
    "d2_wrapped": lambda: wrapped_target(double_well_landscape(2), 0.1),
}


class TestStream:
    @pytest.mark.parametrize("restart", [0.0, 0.1])
    @pytest.mark.parametrize(
        "make_target, gamma, eta",
        [
            # the box [-1, 1] rejects part of the local proposals
            (lambda: quadratic_target(bounds=(-1.0, 1.0)), 1.0, 0.5),
            (lambda: target_from_landscape(double_well_landscape(dimension=2), 0.0), 5.0, 0.3),
            (quadratic_target, 10.0, 0.3),
            (lambda: target_from_landscape(spline_double_well_landscape(), 0.05), 50.0, 0.3),
            (lambda: target_from_landscape(double_well_landscape(dimension=1), 0.1), 5.0, 0.3),
            # the two-float loop with the ridge term and on a box that cuts
            # every well, and the list loop on pieces, which d = 3 alone
            # reaches
            (lambda: target_from_landscape(double_well_landscape(dimension=2), 0.1), 5.0, 0.3),
            (lambda: target_from_landscape(
                double_well_landscape(2, bounds=[(-1.3, 1.1), (-1.2, 1.4)]), 0.0), 5.0, 0.3),
            (lambda: target_from_landscape(double_well_landscape(dimension=3), 0.0), 5.0, 0.3),
            (lambda: target_from_landscape(double_well_landscape(dimension=3), 0.1), 5.0, 0.3),
            (NO_PIECES["d2_quadratic_no_pieces"], 5.0, 0.3),
            (NO_PIECES["d2_wrapped"], 5.0, 0.3),
        ],
        ids=["d1_tight_box", "d2_double_well", "d1_high_acceptance", "spline_ridge",
             "d1_double_well_ridge", "d2_double_well_ridge", "d2_tight_box", "d3_double_well",
             "d3_double_well_ridge", *NO_PIECES],
    )
    def test_metropolis_equals_one_proposal_at_a_time(
        self, monkeypatch, make_target, gamma, eta, restart
    ):
        monkeypatch.setattr(samplers, "_RESTART_PROB", restart)
        tgt = make_target()
        steps, burn_in = 9000, 500
        batch = sample_chain("metropolis", tgt, gamma, eta, steps, burn_in, 11)
        expected, rate = metropolis_one_at_a_time(tgt, gamma, eta, steps, burn_in, 11, restart)
        assert np.array_equal(batch.samples, expected)
        assert batch.acceptance_rate == rate

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    @pytest.mark.parametrize(
        "landscape",
        [
            double_well_landscape(1),
            double_well_landscape(2),
            double_well_landscape(3),
            quadratic_landscape(matrix=np.diag([0.2, 1.0, 7.0])),
            spline_double_well_landscape(),
        ],
        ids=["double_well1", "double_well2", "double_well3", "quadratic_d3_diag", "spline"],
    )
    def test_point_functions_have_the_batch_bits(self, landscape, ridge):
        tgt = target_from_landscape(landscape, ridge)
        rng = np.random.default_rng(19)
        lo, hi = landscape.domain_box[:, 0], landscape.domain_box[:, 1]
        for w in rng.uniform(lo, hi, (200, landscape.dimension)):
            point = w.tolist()
            value = tgt.point_value(point[0] if landscape.dimension == 1 else point)
            assert type(value) is float and value == float(tgt.value(w))
            slopes = [slope(x) for slope, x in zip(tgt.coordinate_slopes, point, strict=True)]
            assert all(type(g) is float for g in slopes)
            assert slopes == tgt.grad(w).tolist()

    @pytest.mark.parametrize(
        "make_target",
        [
            lambda: target_from_landscape(double_well_landscape(dimension=1), 0.0),
            lambda: target_from_landscape(double_well_landscape(dimension=2), 0.0),
            lambda: target_from_landscape(double_well_landscape(dimension=2), 0.1),
            lambda: target_from_landscape(spline_double_well_landscape(), 0.0),
            lambda: target_from_landscape(double_well_landscape(dimension=1), 0.1),
            lambda: target_from_landscape(double_well_landscape(dimension=3), 0.1),
            lambda: target_from_landscape(quadratic_landscape(matrix=np.diag([0.2, 1.0, 7.0])), 0.0),
            NO_PIECES["d2_quadratic_no_pieces"],
        ],
        ids=["1", "2", "d2_ridge", "spline", "d1_ridge", "d3_ridge", "quadratic_d3_diag",
             "d2_quadratic_no_pieces"],
    )
    def test_sgld_equals_one_draw_per_step(self, make_target):
        tgt = make_target()
        gamma, eta, steps, burn_in = 20.0, 0.01, 9000, 500
        batch = sample_chain("sgld", tgt, gamma, eta, steps, burn_in, 11)
        expected = sgld_one_draw_per_step(tgt, gamma, eta, steps, 11)
        assert np.array_equal(batch.samples, expected[burn_in:])

    def test_divergence_after_first_block_names_step_size(self):
        # |1 − η| = 1.0005 on (1/2)w² from w = 3: the iterate leaves the
        # 10-width halo of [1, 5] near step 5100
        tgt = quadratic_target(bounds=(1.0, 5.0))
        eta = 2.0005
        assert len(sample_chain("sgld", tgt, 1e6, eta, 4096, 0, 2)) == 4096
        with pytest.raises(DivergenceError, match="step_size=2.0005"):
            sample_chain("sgld", tgt, 1e6, eta, 20_000, 0, 2)


def wrapped_target(landscape, ridge):
    """A target whose value and gradient add the ridge term explicitly,
    also at λ = 0 (the reference for the λ = 0 shortcut)."""
    risk, gradient = landscape.risk, landscape.gradient
    return samplers.GibbsTarget(
        dim=landscape.dimension,
        domain_box=np.array(landscape.domain_box),
        value=lambda w: risk(w) + ridge * (w * w).sum(axis=-1),
        grad=lambda w: gradient(w) + 2.0 * ridge * w,
        hessian=lambda w: landscape.reg_hessian(w, ridge),
    )


class TestZeroRidgeTarget:
    LANDSCAPES = [
        (double_well_landscape(1), 20.0),
        (double_well_landscape(2), 20.0),
        (spline_double_well_landscape(), 50.0),
    ]
    IDS = ["double_well1", "double_well2", "spline"]

    @pytest.mark.parametrize("landscape, gamma", LANDSCAPES, ids=IDS)
    def test_value_and_grad_are_the_risk_and_gradient(self, landscape, gamma):
        tgt = target_from_landscape(landscape, 0.0)
        rng = np.random.default_rng(13)
        lo, hi = landscape.domain_box[:, 0], landscape.domain_box[:, 1]
        for w in (rng.uniform(lo, hi), rng.uniform(lo, hi, (40, landscape.dimension))):
            assert np.array_equal(tgt.value(w), landscape.risk(w))
            assert np.array_equal(tgt.grad(w), landscape.gradient(w))

    @pytest.mark.parametrize("kind", ["sgld", "metropolis"])
    @pytest.mark.parametrize("landscape, gamma", LANDSCAPES, ids=IDS)
    def test_chains_equal_the_explicit_ridge_term(self, landscape, gamma, kind):
        tgt = target_from_landscape(landscape, 0.0)
        reference = wrapped_target(landscape, 0.0)
        eta = default_step_size(tgt, gamma) if kind == "sgld" else 0.3
        batch = sample_chain(kind, tgt, gamma, eta, 3000, 0, 17, chain_id=4)
        expected = sample_chain(kind, reference, gamma, eta, 3000, 0, 17, chain_id=4)
        assert np.array_equal(batch.samples, expected.samples)
        assert batch.acceptance_rate == expected.acceptance_rate


class TestMetropolis:
    def test_double_well_tv_against_quadrature(self):
        land = double_well_landscape()
        tgt = target_from_landscape(land, 0.0)
        gamma = 5.0
        batch = sample_chain("metropolis", tgt, gamma, 0.25, 250_000, 50_000, 21)
        assert batch.acceptance_rate is not None and 0.1 < batch.acceptance_rate < 0.9
        bins = np.linspace(-2.0, 2.0, 65)
        hist, _ = np.histogram(batch.samples[:, 0], bins=bins)
        emp = hist / hist.sum()
        grid = tensor_gauss_legendre(land.domain_box, 2048)
        pot = lambda w: land.reg_risk(w, 0.0)
        cells = [
            EllipsoidSpec(
                center=np.array([0.5 * (bins[k] + bins[k + 1])]),
                metric=np.eye(1),
                radius=0.5 * (bins[k + 1] - bins[k]),
            )
            for k in range(64)
        ]
        truth = quadrature_measure(pot, gamma, grid, regions=cells).masses
        tv = 0.5 * float(np.abs(emp - truth).sum())
        assert tv < 0.05

    def test_detailed_balance_on_three_bins(self):
        # empirical cross-bin flows must balance for a reversible chain
        tgt = quadratic_target()
        batch = sample_chain("metropolis", tgt, 2.0, 0.8, 200_000, 0, 33)
        edges = [-0.5, 0.5]
        states = np.digitize(batch.samples[:, 0], edges)
        flows = np.zeros((3, 3))
        for a, b in zip(states[:-1], states[1:]):
            flows[a, b] += 1
        for i in range(3):
            for j in range(i + 1, 3):
                total = flows[i, j] + flows[j, i]
                if total > 100:
                    imbalance = abs(flows[i, j] - flows[j, i]) / math.sqrt(total)
                    assert imbalance < 5.0

    def test_rejects_outside_box(self):
        tgt = quadratic_target(bounds=(-1.0, 1.0))
        batch = sample_chain("metropolis", tgt, 1.0, 0.5, 20_000, 0, 3)
        assert np.all(batch.samples >= -1.0) and np.all(batch.samples <= 1.0)


class TestEmpiricalTarget:
    def test_two_well_data_model_is_not_quadratic(self):
        # w = 0.3 and w = 2.5 sit at the two wells' minima, whose curvatures
        # are equal: the barrier between them is what is not quadratic
        land = spline_double_well_landscape(centers=(0.3, 2.5), curvatures=(4.0, 4.0))
        dm = constant_loss_data_model(land)
        sample = dm.sample_examples(np.random.default_rng(0), 20)
        emp = empirical_landscape(dm, sample)
        assert not emp.quadratic
        tgt = target_from_landscape(emp, 0.0)
        np.testing.assert_allclose(tgt.hessian(np.array([0.3])), tgt.hessian(np.array([2.5])))
        assert float(tgt.hessian(np.array([1.4]))[0, 0]) < 0.0

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_rls_minimum_is_least_squares_solution(self, ridge):
        dm = rls_data_model()
        sample = dm.sample_examples(np.random.default_rng(5), 100)
        tgt = target_from_landscape(empirical_landscape(dm, sample), ridge)
        # normal equations of (1/m)Σ(y − wx)² + λw², accumulated in plain Python
        sxx = sum(x * x for x, _ in sample) / len(sample)
        sxy = sum(x * y for x, y in sample) / len(sample)
        curvature = 2.0 * sxx + 2.0 * ridge
        w_min = np.array([2.0 * sxy / curvature])
        np.testing.assert_allclose(tgt.grad(w_min), [0.0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(tgt.hessian(w_min), [[curvature]], rtol=0.0, atol=1e-12)

    def test_constant_loss_follows_its_landscape(self):
        land = quadratic_landscape(1)
        dm = constant_loss_data_model(land)
        sample = dm.sample_examples(np.random.default_rng(0), 20)
        tgt = target_from_landscape(empirical_landscape(dm, sample), 0.1)
        population = target_from_landscape(land, 0.1)
        w = np.linspace(-5.0, 5.0, 41)[:, None]
        np.testing.assert_allclose(tgt.value(w), population.value(w), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(tgt.grad(np.zeros(1)), [0.0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(tgt.hessian(np.zeros(1)), [[1.2]], rtol=0.0, atol=1e-12)


class TestConditioning:
    def test_whole_domain_is_identity(self):
        batch = gaussian_batch(np.random.default_rng(2), 10.0, 500)
        # a ball of radius 1e3 holds the whole box [-5, 5] and every draw
        whole = EllipsoidSpec(center=np.zeros(1), metric=np.eye(1), radius=1e3)
        kept = condition_on_region(batch, whole)
        assert np.array_equal(kept.samples, batch.samples)
        assert kept.retained_fraction == 1.0

    def test_symmetric_double_well_splits_evenly(self):
        land = double_well_landscape()
        tgt = target_from_landscape(land, 0.0)
        gamma = 30.0
        minima = enumerate_minima(land, 0.0)
        batch = sample_chain("metropolis", tgt, gamma, 0.15, 120_000, 20_000, 4)
        right = [m for m in minima if m.location[0] > 0][0]
        kept = condition_on_region(batch, right.ellipsoid(1.0))
        assert kept.retained_fraction == pytest.approx(0.5, abs=0.05)

    def test_complement_fraction_tracks_quadrature(self):
        from gibbslab.bounds import tune_radius

        land = double_well_landscape()
        tgt = target_from_landscape(land, 0.0)
        minima = enumerate_minima(land, 0.0)
        pot = lambda w: land.reg_risk(w, 0.0)
        fractions, truths = [], []
        for gamma in (10.0, 100.0, 1000.0):
            r = tune_radius(gamma, 1.0 / 3.0)
            regions = [m.ellipsoid(r) for m in minima]
            step = 2.4 / math.sqrt(8.0 * gamma)
            batch = sample_chain("metropolis", tgt, gamma, step, 200_000, 40_000, 8)
            # complement of the union: samples in neither ellipsoid
            mask = ~(regions[0].contains(batch.samples) | regions[1].contains(batch.samples))
            frac = float(mask.mean())
            nodes = int(80 * math.sqrt(8.0 * gamma)) + 400
            grid = tensor_gauss_legendre(land.domain_box, nodes)
            truth = quadrature_measure(pot, gamma, grid, regions=regions).complement_mass[r]
            n = len(batch)
            sigma = math.sqrt(max(truth * (1 - truth), 1e-12) / n)
            # generous multiple of the binomial sigma: MCMC samples correlate
            assert abs(frac - truth) < 30.0 * sigma + 5e-3
            fractions.append(frac)
            truths.append(truth)
        assert fractions[2] < fractions[1] < fractions[0]
        assert truths[2] < truths[1] < truths[0]

    def test_order_preserved(self):
        batch = gaussian_batch(np.random.default_rng(6), 2.0, 2000)
        region = EllipsoidSpec(center=np.zeros(1), metric=np.eye(1), radius=0.5)
        kept = condition_on_region(batch, region)
        inside = batch.samples[region.contains(batch.samples)]
        assert np.array_equal(kept.samples, inside)

    def test_insufficient_samples(self):
        batch = gaussian_batch(np.random.default_rng(6), 2.0, 150)
        tiny = EllipsoidSpec(center=np.array([4.9]), metric=np.eye(1), radius=0.01)
        with pytest.raises(ConditioningError):
            condition_on_region(batch, tiny)

    def test_merge_order_independent(self):
        a = gaussian_batch(np.random.default_rng([6, 0]), 2.0, 1500)
        b = gaussian_batch(np.random.default_rng([6, 1]), 2.0, 1500)
        ab = np.concatenate([a.samples, b.samples])
        ba = np.concatenate([b.samples, a.samples])
        assert np.array_equal(np.sort(ab, axis=0), np.sort(ba, axis=0))
        assert ab.mean() == pytest.approx(ba.mean(), abs=1e-15)


class TestChainBatchInvariants:
    @pytest.mark.parametrize("kind", ["gibbs", "exact_gaussian"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ArgumentError, match=r"choose from \('sgld', 'metropolis'\)"):
            sample_chain(kind, quadratic_target(), 10.0, 0.1, 100, 0, 1)

    def test_parameter_validation(self):
        tgt = quadratic_target()
        with pytest.raises(ArgumentError):
            sample_chain("sgld", tgt, 10.0, -0.1, 100, 0, 1)
        with pytest.raises(ArgumentError):
            sample_chain("sgld", tgt, 10.0, 0.1, 100, 100, 1)
        with pytest.raises(ArgumentError):
            sample_chain("sgld", tgt, -1.0, 0.1, 100, 0, 1)
        with pytest.raises(ArgumentError, match="integers"):
            sample_chain("metropolis", tgt, 10.0, 0.1, 100.0, 0, 1)
        with pytest.raises(ArgumentError, match="integers"):
            sample_chain("metropolis", tgt, 10.0, 0.1, 100, 10.0, 1)
