import dataclasses
import math

import numpy as np
import pytest

from gibbslab.errors import (
    ArgumentError,
    ConditioningError,
    DivergenceError,
    SamplerKindError,
)
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
        for kind in ("sgld", "metropolis", "exact_gaussian"):
            a = sample_chain(kind, tgt, 10.0, 0.05, 2000, 100, master_seed=9, chain_id=3)
            b = sample_chain(kind, tgt, 10.0, 0.05, 2000, 100, master_seed=9, chain_id=3)
            assert np.array_equal(a.samples, b.samples)
            assert a.acceptance_rate == b.acceptance_rate

    def test_chains_differ_across_ids(self):
        tgt = quadratic_target()
        a = sample_chain("exact_gaussian", tgt, 10.0, 0.05, 500, 0, 9, chain_id=0)
        b = sample_chain("exact_gaussian", tgt, 10.0, 0.05, 500, 0, 9, chain_id=1)
        assert not np.array_equal(a.samples, b.samples)

    def test_sample_count(self):
        tgt = quadratic_target()
        batch = sample_chain("sgld", tgt, 10.0, 0.05, 1234, 234, 1)
        assert len(batch) == 1000


class TestSgld:
    def test_noise_free_is_gradient_descent(self):
        # risk (1/2)w^2 on a box centered at 3: iterates contract as (1-eta)^t
        tgt = quadratic_target(bounds=(1.0, 5.0))
        eta = 0.1
        batch = sample_chain("sgld", tgt, 10.0, eta, 20, 0, 5, noise_free=True)
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
        tgt = dataclasses.replace(quadratic_target(), grad=lambda w: np.full_like(w, np.nan))
        with pytest.raises(DivergenceError, match=r"step 1 .*step_size=0\.01"):
            sample_chain("sgld", tgt, 10.0, 0.01, 200, 0, 1)

    def test_default_step_size_rule(self):
        tgt = quadratic_target()
        assert default_step_size(tgt, 10.0) == pytest.approx(0.5 / 10.0)
        dw_target = target_from_landscape(double_well_landscape(), 0.0)
        est = default_step_size(dw_target, 10.0)
        assert est > 0.0


def metropolis_one_at_a_time(target, gamma, eta, steps, burn_in, seed, restart_prob):
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
        restart = rng.random(n) < restart_prob
        uniform = rng.uniform(lo, hi, size=(n, d))
        jump = eta * rng.standard_normal((n, d))
        log_u = np.log(rng.random(n))
        for i in range(n):
            proposal = uniform[i] if restart[i] else w + jump[i]
            if np.all(proposal >= lo) and np.all(proposal <= hi):
                f_prop = float(target.value(proposal))
                if log_u[i] < -gamma * (f_prop - fw):
                    w, fw = proposal, f_prop
                    accepted += 1
            path.append(w)
    return np.array(path)[burn_in:], accepted / steps


class TestStream:
    @pytest.mark.parametrize("window", [16, 5])
    @pytest.mark.parametrize("restart_prob", [0.0, 0.1])
    @pytest.mark.parametrize(
        "landscape, gamma, eta",
        [
            # the box [-1, 1] rejects part of the local proposals
            (quadratic_landscape(1, bounds=(-1.0, 1.0)), 1.0, 0.5),
            (double_well_landscape(dimension=2), 5.0, 0.3),
            # acceptance about 0.655 keeps the window near 6 proposals
            (quadratic_landscape(1), 10.0, 0.3),
        ],
        ids=["d1_tight_box", "d2_double_well", "d1_high_acceptance"],
    )
    def test_metropolis_equals_one_proposal_at_a_time(
        self, monkeypatch, landscape, gamma, eta, restart_prob, window
    ):
        monkeypatch.setattr(samplers, "_WINDOW", window)
        tgt = target_from_landscape(landscape, 0.0)
        steps, burn_in = 9000, 500
        batch = sample_chain(
            "metropolis", tgt, gamma, eta, steps, burn_in, 11, restart_prob=restart_prob
        )
        expected, rate = metropolis_one_at_a_time(
            tgt, gamma, eta, steps, burn_in, 11, restart_prob
        )
        assert np.array_equal(batch.samples, expected)
        assert batch.acceptance_rate == rate

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_sgld_equals_one_draw_per_step(self, dimension):
        tgt = target_from_landscape(double_well_landscape(dimension=dimension), 0.0)
        gamma, eta, steps, burn_in = 20.0, 0.01, 9000, 500
        batch = sample_chain("sgld", tgt, gamma, eta, steps, burn_in, 11)
        rng = np.random.default_rng(chain_seed(11, 0))
        scale = math.sqrt(2.0 * eta / gamma)
        w = tgt.domain_box.mean(axis=1)
        path = []
        for _ in range(steps):
            w = w - eta * np.asarray(tgt.grad(w), dtype=float)
            w = w + scale * rng.standard_normal(dimension)
            path.append(w)
        assert np.array_equal(batch.samples, np.array(path)[burn_in:])

    def test_divergence_after_first_block_names_step_size(self):
        # |1 − η| = 1.0005 on (1/2)w² from w = 3: the iterate leaves the
        # 10-width halo of [1, 5] near step 5100
        tgt = quadratic_target(bounds=(1.0, 5.0))
        eta = 2.0005
        assert len(sample_chain("sgld", tgt, 1e6, eta, 4096, 0, 2)) == 4096
        with pytest.raises(DivergenceError, match="step_size=2.0005"):
            sample_chain("sgld", tgt, 1e6, eta, 20_000, 0, 2)


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


class TestExactGaussian:
    def test_moments_converge(self):
        gamma, n = 7.0, 200_000
        tgt = quadratic_target()
        batch = sample_chain("exact_gaussian", tgt, gamma, 0.1, n, 0, 17)
        std = 1.0 / math.sqrt(gamma)
        assert abs(float(batch.samples.mean())) < 4.0 * std / math.sqrt(n)
        assert float(batch.samples.var()) == pytest.approx(1.0 / gamma, rel=0.02)

    def test_requires_quadratic_target(self):
        tgt = target_from_landscape(double_well_landscape(), 0.0)
        with pytest.raises(SamplerKindError):
            sample_chain("exact_gaussian", tgt, 10.0, 0.1, 100, 0, 1)

    def test_unknown_kind(self):
        with pytest.raises(ArgumentError):
            sample_chain("gibbs", quadratic_target(), 10.0, 0.1, 100, 0, 1)


class TestEmpiricalTarget:
    def test_two_well_data_model_is_not_quadratic(self):
        # w = 0 and w = 0.61 both lie in the left well, where the curvature
        # equals the right well's: equal Hessians there say nothing
        land = spline_double_well_landscape(centers=(0.3, 2.5), curvatures=(4.0, 4.0))
        dm = constant_loss_data_model(land)
        sample = dm.sample_examples(np.random.default_rng(0), 20)
        tgt = target_from_landscape(empirical_landscape(dm, sample), 0.0)
        assert tgt.quadratic is None
        with pytest.raises(SamplerKindError):
            sample_chain("exact_gaussian", tgt, 10.0, 0.1, 100, 0, 1)

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_rls_gaussian_is_least_squares_solution(self, ridge):
        dm = rls_data_model()
        sample = dm.sample_examples(np.random.default_rng(5), 100)
        w_min, hess = target_from_landscape(empirical_landscape(dm, sample), ridge).quadratic
        # normal equations of (1/m)Σ(y − wx)² + λw², accumulated in plain Python
        sxx = sum(x * x for x, _ in sample) / len(sample)
        sxy = sum(x * y for x, y in sample) / len(sample)
        curvature = 2.0 * sxx + 2.0 * ridge
        np.testing.assert_allclose(hess, [[curvature]], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(w_min, [2.0 * sxy / curvature], rtol=0.0, atol=1e-12)

    def test_constant_loss_follows_its_landscape(self):
        dm = constant_loss_data_model(quadratic_landscape(1))
        sample = dm.sample_examples(np.random.default_rng(0), 20)
        w_min, hess = target_from_landscape(empirical_landscape(dm, sample), 0.1).quadratic
        np.testing.assert_allclose(w_min, [0.0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(hess, [[1.2]], rtol=0.0, atol=1e-12)


class TestConditioning:
    def test_whole_domain_is_identity(self):
        tgt = quadratic_target()
        batch = sample_chain("exact_gaussian", tgt, 10.0, 0.1, 500, 0, 2)
        kept = condition_on_region(batch, None)
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
        tgt = quadratic_target()
        batch = sample_chain("exact_gaussian", tgt, 2.0, 0.1, 2000, 0, 6)
        region = EllipsoidSpec(center=np.zeros(1), metric=np.eye(1), radius=0.5)
        kept = condition_on_region(batch, region)
        inside = batch.samples[region.contains(batch.samples)]
        assert np.array_equal(kept.samples, inside)

    def test_insufficient_samples(self):
        tgt = quadratic_target()
        batch = sample_chain("exact_gaussian", tgt, 2.0, 0.1, 150, 0, 6)
        tiny = EllipsoidSpec(center=np.array([4.9]), metric=np.eye(1), radius=0.01)
        with pytest.raises(ConditioningError):
            condition_on_region(batch, tiny)

    def test_merge_order_independent(self):
        tgt = quadratic_target()
        a = sample_chain("exact_gaussian", tgt, 2.0, 0.1, 1500, 0, 6, chain_id=0)
        b = sample_chain("exact_gaussian", tgt, 2.0, 0.1, 1500, 0, 6, chain_id=1)
        ab = np.concatenate([a.samples, b.samples])
        ba = np.concatenate([b.samples, a.samples])
        assert np.array_equal(np.sort(ab, axis=0), np.sort(ba, axis=0))
        assert ab.mean() == pytest.approx(ba.mean(), abs=1e-15)


class TestChainBatchInvariants:
    def test_parameter_validation(self):
        tgt = quadratic_target()
        with pytest.raises(ArgumentError):
            sample_chain("sgld", tgt, 10.0, -0.1, 100, 0, 1)
        with pytest.raises(ArgumentError):
            sample_chain("sgld", tgt, 10.0, 0.1, 100, 100, 1)
        with pytest.raises(ArgumentError):
            sample_chain("sgld", tgt, -1.0, 0.1, 100, 0, 1)
