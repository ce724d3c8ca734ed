import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc

from gibbslab.bounds import GibbsConfig, local_excess_bound
from gibbslab.errors import ArgumentError, ContractError, ResolutionError
from gibbslab.landscapes import (
    DataModel,
    EllipsoidSpec,
    Landscape,
    constant_loss_data_model,
    double_well_landscape,
    enumerate_minima,
    disjoint_radius,
    quadratic_landscape,
    rls_data_model,
    spline_double_well_landscape,
)
from gibbslab import harness, oracles
from gibbslab.oracles import (
    derivative_check,
    empirical_excess_risk,
    empirical_generalization_gap,
    irm_objective,
    product_measure,
    quadrature_measure,
    tensor_gauss_legendre,
)
from gibbslab.samplers import (
    chain_seed,
    condition_on_region,
    sample_chain,
    target_from_landscape,
)
from gibbslab.specfun import regularized_gamma_P, truncated_quadratic_moment

from helpers import ball_quadrature, gaussian_batch


def gaussian_potential(w):
    return 0.5 * np.sum(w * w, axis=-1)


def _late_minimum_wells(d, gamma, counts):
    """Two wells along the leading axis of width about 1/√γ, the lower one
    placed in the last block of the doubled grid so the running minimum
    drops late and every sum is rescaled; the other axes are smooth and
    narrow region boundaries only along the leading axis sit where the
    density is negligible, so the doubling check passes in d = 2 and 3 as
    well. Returns the potential, box, regions and an integrand."""
    box = np.array([[-2.0, 2.0]] + [[-1.0, 1.0]] * (d - 1))
    probe = tensor_gauss_legendre(box, [2 * n for n in counts])
    *_, (last_nodes, _) = probe.blocks()
    low = np.r_[last_nodes[:, 0].mean(), np.zeros(d - 1)]
    high = np.r_[-0.8, np.zeros(d - 1)]
    metric = np.diag([1.0] + [1e-3] * (d - 1))
    regions = [
        EllipsoidSpec(center=high, metric=metric, radius=0.55),
        EllipsoidSpec(center=low, metric=metric, radius=0.6),
    ]

    def pot(w):
        well = lambda c: 0.5 * gamma * (w[:, 0] - c[0]) ** 2
        side = 0.5 * np.sum(w[:, 1:] ** 2, axis=-1)
        return -np.logaddexp(-well(high) - 2.0, -well(low)) / gamma + side / gamma

    g = lambda w: w[:, 0] + np.sum(w * w, axis=-1)
    return pot, box, regions, g


def _assert_matches_whole_array(meas, pot, gamma, box, counts, regions, g):
    """Every value of ``meas`` against numpy sums over the whole doubled
    grid at rel 1e-12, with the running minimum shown to drop late."""
    # the returned values are those of the doubled grid, which in d = 1
    # also has panel edges on the region boundaries
    d = len(counts)
    edges = [[e.center[0] + s * e.radius for e in regions for s in (-1, 1)]]
    fine = tensor_gauss_legendre(box, [2 * n for n in counts], edges if d == 1 else None)
    blocks = list(fine.blocks())
    assert len(blocks) > 1
    f = pot(fine.nodes)
    assert np.argmin(f) >= len(f) - len(blocks[-1][1])
    assert f[: len(f) - len(blocks[-1][1])].min() > f.min()
    dens = fine.weights * np.exp(-gamma * (f - f.min()))
    total = dens.sum()
    masks = [e.contains(fine.nodes) for e in regions]
    gd = dens * g(fine.nodes)
    assert meas.log_z == pytest.approx(np.log(total) - gamma * f.min(), rel=1e-12)
    np.testing.assert_allclose(meas.masses, [dens[m].sum() / total for m in masks], rtol=1e-12)
    for e, m in zip(regions, masks):
        assert meas.complement_mass[e.radius] == pytest.approx(dens[~m].sum() / total, rel=1e-12)
    assert meas.conditional["g"] == pytest.approx(gd.sum() / total, rel=1e-12)
    np.testing.assert_allclose(
        meas.region_conditional["g"], [gd[m].sum() / dens[m].sum() for m in masks], rtol=1e-12
    )


def _assert_same_bits(a, b):
    """Every value of two measures equal bit for bit (NaN where NaN)."""
    assert a.log_z == b.log_z
    assert a.nodes_per_axis == b.nodes_per_axis
    assert a.complement_mass == b.complement_mass
    assert a.conditional == b.conditional
    np.testing.assert_array_equal(a.masses, b.masses, strict=True)
    assert a.region_conditional.keys() == b.region_conditional.keys()
    for name, values in a.region_conditional.items():
        np.testing.assert_array_equal(values, b.region_conditional[name], strict=True)


def _assert_close(a, b, rel):
    """Every value of two measures within ``rel`` relative of each other."""
    np.testing.assert_allclose(oracles._values(a), oracles._values(b), rtol=rel, atol=0.0)


@dataclasses.dataclass(frozen=True)
class _CountingRegion(EllipsoidSpec):
    """An ellipsoid that records how many points each ``contains`` reads."""

    seen: list = dataclasses.field(default_factory=list)

    def contains(self, w):
        self.seen.append(len(w))
        return super().contains(w)


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

    @pytest.mark.parametrize(
        "counts", [[40000], [300, 1000], [48, 64, 96]], ids=["d1", "d2", "d3"]
    )
    def test_node_layout_matches_meshgrid(self, counts):
        # unequal counts per axis; each grid spans several blocks, all but
        # the last of them holding many rows of the leading axis
        d = len(counts)
        grid = tensor_gauss_legendre(np.tile([-1.5, 2.0], (d, 1)), counts)
        mesh = np.meshgrid(*[x for x, _ in grid.axes], indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        wmesh = np.meshgrid(*[w for _, w in grid.axes], indexing="ij")
        weights = wmesh[0]
        for extra in wmesh[1:]:
            weights = weights * extra
        weights = weights.ravel()
        blocks = list(grid.blocks())
        assert len(blocks) > 1 and len(blocks[0][1]) >= 2 * math.prod(grid.nodes_per_dim[1:])
        assert np.array_equal(np.concatenate([b for b, _ in blocks]), nodes)
        assert np.array_equal(np.concatenate([w for _, w in blocks]), weights)
        assert np.array_equal(grid.nodes, nodes)
        assert np.array_equal(grid.weights, weights)

    def test_panel_rule_integrates_legendre_polynomials(self):
        # one panel on [-1, 1] is the declared 16-point rule itself, exact
        # through degree 31: ∫P_k is 2 for k = 0 and 0 above
        x, w = tensor_gauss_legendre([[-1.0, 1.0]], 16).axes[0]
        assert len(x) == 16 and np.all(np.diff(x) > 0.0) and -1.0 < x[0]
        for k in range(32):
            p_k = np.polynomial.legendre.legval(x, [0.0] * k + [1.0])
            assert abs(float(w @ p_k) - (2.0 if k == 0 else 0.0)) <= 1e-14

    def test_panel_rule_is_exactly_symmetric(self):
        x, w = tensor_gauss_legendre([[-1.0, 1.0]], 16).axes[0]
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    def test_rules_are_built_on_first_access(self, monkeypatch):
        # in d = 1 quadrature_measure lays the given grid out again with the
        # region edges as panel edges: only that grid and its doubling get
        # their rules built, never the one it was given
        real, built = oracles._gl_on_edges, []
        monkeypatch.setattr(
            oracles, "_gl_on_edges", lambda edges: built.append(len(edges) - 1) or real(edges)
        )
        grid = tensor_gauss_legendre([[-2.0, 2.0]], 160)
        assert grid.nodes_per_dim == (160,) and not built
        region = EllipsoidSpec(center=np.array([1.0]), metric=np.array([[8.0]]), radius=0.5)
        meas = quadrature_measure(lambda w: (w[:, 0] - 1.0) ** 2, 20.0, grid, regions=[region])
        assert len(built) == 2 and built[1] == 2 * built[0]
        assert meas.nodes_per_axis == ((16 * built[0],), (16 * built[1],))

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

    @pytest.mark.parametrize("with_region", [False, True], ids=["no_region", "region"])
    def test_keeps_the_grid_breakpoints(self, with_region):
        # a kink at 0.3 on a panel edge: both passes must keep it there,
        # with or without the d = 1 region edges added to the panel edges
        grid = tensor_gauss_legendre([[-2.0, 2.0]], 160, breakpoints=[[0.3]])
        kink = lambda w: np.abs(w[..., 0] - 0.3)
        gamma = 5.0
        z = (2.0 - math.exp(-gamma * 2.3) - math.exp(-gamma * 1.7)) / gamma
        # the interval [-1, 0], left of the kink
        region = EllipsoidSpec(center=np.array([-0.5]), metric=np.eye(1), radius=0.5)
        regions = [region] if with_region else []
        meas = quadrature_measure(kink, gamma, grid, regions=regions)
        assert meas.log_z == pytest.approx(math.log(z), rel=1e-13)
        if with_region:
            mass = (math.exp(-gamma * 0.3) - math.exp(-gamma * 1.3)) / (gamma * z)
            assert meas.masses[0] == pytest.approx(mass, rel=1e-13)

    def test_under_resolved_raises_with_suggestion(self):
        grid = tensor_gauss_legendre([[-2.0, 2.0]], 32)
        sharp = lambda w: 0.5 * 1e4 * np.sum(w * w, axis=-1)
        with pytest.raises(ResolutionError) as err:
            quadrature_measure(sharp, 100.0, grid)
        assert err.value.suggested_nodes is not None

    @pytest.mark.parametrize(
        "bad",
        [
            lambda w: np.where(w[:, 0] > 1.5, np.nan, 0.5 * w[:, 0] ** 2),
            lambda w: np.full(len(w), np.nan),
            lambda w: np.where(w[:, 0] < -1.9, -np.inf, 0.5 * w[:, 0] ** 2),
        ],
        ids=["partly_nan", "wholly_nan", "partly_minus_inf"],
    )
    def test_nan_or_minus_inf_potential_raises_with_count(self, bad):
        # the coarse grid is read first; its count of bad values is reported
        grid = tensor_gauss_legendre([[-2.0, 2.0]], 64)
        values = bad(grid.nodes)
        expected = int(np.count_nonzero(np.isnan(values) | (values == -np.inf)))
        assert 0 < expected
        with pytest.raises(ArgumentError, match=rf"at {expected} of {len(values)} grid nodes"):
            quadrature_measure(bad, 1.0, grid)

    def test_nan_outside_empty_region_conditionals_fails_the_doubling_check(self):
        grid = tensor_gauss_legendre([[-9.0, 9.0]], 500)
        outside = EllipsoidSpec(center=np.array([20.0]), metric=np.eye(1), radius=1.0)
        meas = quadrature_measure(
            gaussian_potential, 1.0, grid, regions=[outside],
            integrands={"w": lambda w: 1.0 + w[:, 0]},
        )
        assert meas.masses[0] == 0.0 and np.isnan(meas.region_conditional["w"][0])
        with pytest.raises(ResolutionError, match="drift nan"):
            quadrature_measure(
                gaussian_potential, 1.0, grid,
                integrands={"g": lambda w: np.where(w[:, 0] > 8.0, np.nan, 1.0)},
            )

    def test_plus_inf_potential_is_zero_density(self):
        # a panel edge sits at 0, so the half-line integral stays spectral
        grid = tensor_gauss_legendre([[-9.0, 9.0]], 500)
        half = lambda w: np.where(w[:, 0] < 0.0, np.inf, gaussian_potential(w))
        meas = quadrature_measure(half, 1.0, grid)
        assert math.exp(meas.log_z) == pytest.approx(math.sqrt(0.5 * math.pi), rel=1e-8)
        with pytest.raises(ArgumentError, match="every grid node"):
            quadrature_measure(lambda w: np.full(len(w), np.inf), 1.0, grid)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_match_whole_array_reference(self, d):
        counts = {1: [20000], 2: [256, 128], 3: [128, 32, 32]}[d]
        pot, box, regions, g = _late_minimum_wells(d, 200.0, counts)
        meas = quadrature_measure(
            pot, 200.0, tensor_gauss_legendre(box, counts), regions=regions,
            integrands={"g": g},
        )
        _assert_matches_whole_array(meas, pot, 200.0, box, counts, regions, g)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_density_nodes_are_not_read(self, d):
        # at γ = 20000 the wells are a few hundredths wide and most nodes
        # have density exactly 0.0: the integrand and the regions see only
        # the others, and every sum still matches the whole-array one
        gamma = 20000.0
        counts = {1: [20000], 2: [1024, 32], 3: [1024, 16, 16]}[d]
        pot, box, regions, g = _late_minimum_wells(d, gamma, counts)
        seen = []

        def counting_g(w):
            seen.append(len(w))
            return g(w)

        counting = [_CountingRegion(e.center, e.metric, e.radius) for e in regions]
        meas = quadrature_measure(
            pot, gamma, tensor_gauss_legendre(box, counts), regions=counting,
            integrands={"g": counting_g},
        )
        read = sum(math.prod(n) for n in meas.nodes_per_axis)
        assert 0 < sum(seen) < 0.5 * read
        for region in counting:
            assert sum(region.seen) == sum(seen)
        _assert_matches_whole_array(meas, pot, gamma, box, counts, regions, g)

    def test_nan_integrand_at_zero_density_nodes_is_never_read(self):
        # e^(−50 w²) is exactly 0.0 for |w| > 3.87, so the NaN never meets
        # a nonzero factor and cannot poison a sum or the doubling check
        grid = tensor_gauss_legendre([[-9.0, 9.0]], 2000)
        inside = EllipsoidSpec(center=np.zeros(1), metric=np.eye(1), radius=1.0)
        assert np.exp(-100.0 * 0.5 * 5.0**2) == 0.0
        meas = quadrature_measure(
            gaussian_potential, 100.0, grid, regions=[inside],
            integrands={"g": lambda w: np.where(np.abs(w[:, 0]) > 5.0, np.nan, 1.0 + w[:, 0])},
        )
        assert meas.conditional["g"] == pytest.approx(1.0, abs=1e-12)
        assert meas.region_conditional["g"][0] == pytest.approx(1.0, abs=1e-12)

    def test_small_blocks_match_whole_array_reference(self, monkeypatch):
        # 1024-node blocks cut the doubled 512 × 256 grid into 128 blocks,
        # so every sum is the sum of many block sums and the running
        # minimum drops in the last of them
        monkeypatch.setattr(oracles, "_QUAD_BLOCK", 1024)
        counts = [256, 128]
        pot, box, regions, g = _late_minimum_wells(2, 200.0, counts)
        fine = tensor_gauss_legendre(box, [2 * n for n in counts])
        assert len(list(fine.blocks())) == 128
        meas = quadrature_measure(
            pot, 200.0, tensor_gauss_legendre(box, counts), regions=regions,
            integrands={"g": g},
        )
        _assert_matches_whole_array(meas, pot, 200.0, box, counts, regions, g)

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    @pytest.mark.parametrize(
        "land,nodes",
        [
            (double_well_landscape(1), 2000),
            (quadratic_landscape(2, matrix=np.array([[1.0, 0.3], [0.3, 2.0]])), 400),
        ],
        ids=["double_well1", "quadratic2"],
    )
    def test_ridge_has_the_bits_of_reg_risk(self, land, nodes, ridge):
        # the risk and λ give the measure of reg_risk(w, λ) bit for bit,
        # with the risk integrand read off the risk's own values
        minima = enumerate_minima(land, ridge)
        regions = [m.ellipsoid(0.8 * disjoint_radius(minima)) for m in minima]
        grid = tensor_gauss_legendre(land.domain_box, nodes)
        by_ridge = quadrature_measure(
            land.risk, 100.0, grid, regions, {"risk": land.risk}, ridge=ridge
        )
        explicit = quadrature_measure(
            lambda w: land.reg_risk(w, ridge), 100.0, grid, regions, {"risk": land.risk}
        )
        _assert_same_bits(by_ridge, explicit)

    def test_exp_is_exactly_zero_at_or_below_the_cut(self):
        # the skip drops only nodes whose factor np.exp gives as 0.0
        cut = oracles._EXP_ZERO
        below = np.linspace(cut - 100.0, cut, 2_000_001)
        assert below[-1] == cut
        assert not np.any(np.exp(below))
        assert not np.any(np.exp(np.array([-np.inf, -1e300])))
        # and the cut sits within one unit of the last nonzero subnormal
        assert np.exp(cut + 1.0) > 0.0

    def test_memory_does_not_grow_with_nodes(self):
        import tracemalloc

        # the fine grid holds 4M nodes: its whole node array alone is 64 MB;
        # the region holds the whole box, so its boundary cannot fail the doubling check
        grid = tensor_gauss_legendre([[-6.0, 6.0]] * 2, 1000)
        region = EllipsoidSpec(center=np.zeros(2), metric=np.eye(2), radius=9.0)
        tracemalloc.start()
        try:
            meas = quadrature_measure(
                gaussian_potential, 1.0, grid, regions=[region],
                integrands={"sq": lambda w: np.sum(w * w, axis=-1)},
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert meas.log_z == pytest.approx(math.log(2.0 * math.pi), rel=1e-8)

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


def _diagonal_quadratic_case(d, seed):
    """A diagonal quadratic on a box 40 well widths wide each way, so that
    truncation is below e^(-800), and the ellipsoid of its one minimum."""
    gamma = 50.0
    h = np.random.default_rng(seed).uniform(0.5, 4.0, size=d)
    half = 40.0 / math.sqrt(gamma * h.min())
    land = quadratic_landscape(d, matrix=np.diag(h), bounds=(-half, half))
    return land, gamma, h


class TestProductMeasure:
    """The product oracle against independent references, at rel 1e-8."""

    @staticmethod
    def _measure(land, gamma, regions, ridge=0.0, nodes=1024):
        pots = [lambda x, f=f: f(x) + ridge * (x * x) for f in land.coordinate_risks]
        return product_measure(
            pots, gamma, land.domain_box, nodes, regions=regions,
            integrands={"risk": land.coordinate_risks},
        )

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("whitened", [1.5, 3.0, 7.0])
    def test_diagonal_quadratic_against_incomplete_gamma(self, d, whitened):
        land, gamma, h = _diagonal_quadratic_case(d, seed=10 * d + int(whitened))
        r = whitened / math.sqrt(gamma)
        region = EllipsoidSpec(center=np.zeros(d), metric=np.diag(h), radius=r)
        meas = self._measure(land, gamma, [region])
        a, z = 0.5 * d, 0.5 * gamma * r * r
        log_z = sum(0.5 * math.log(2.0 * math.pi / (gamma * hk)) for hk in h)
        assert meas.log_z == pytest.approx(log_z, rel=1e-8)
        assert meas.masses[0] == pytest.approx(gammainc(a, z), rel=1e-8)
        # at whitened radius 7 the complement is about 1e-10 in d = 2: one
        # minus the mass would keep at most six of its digits
        assert meas.complement_mass[r] == pytest.approx(gammaincc(a, z), rel=1e-8)
        excess = (d / (2.0 * gamma)) * gammainc(a + 1.0, z) / gammainc(a, z)
        assert meas.region_conditional["risk"][0] == pytest.approx(excess, rel=1e-8)
        assert meas.conditional["risk"] == pytest.approx(d / (2.0 * gamma), rel=1e-8)

    @pytest.mark.parametrize(
        "d,gamma,ridge,rel,order",
        [(2, 100.0, 0.0, 0.3, 160), (2, 20.0, 0.1, 0.8, 160), (3, 20.0, 0.1, 0.5, 64)],
    )
    def test_double_well_against_ball_quadrature(self, d, gamma, ridge, rel, order):
        land = double_well_landscape(d)
        minima = enumerate_minima(land, ridge)
        r = rel * disjoint_radius(minima)
        meas = self._measure(land, gamma, [m.ellipsoid(r) for m in minima], ridge)
        # the 1-d Gibbs factors, normalized by scipy.integrate.quad
        lo, hi = land.domain_box[0]
        well = lambda x: (x * x - 1.0) ** 2 + ridge * x * x
        f_min = min(well(x) for x in np.linspace(lo, hi, 4001))
        factor = lambda x: np.exp(-gamma * (well(x) - f_min))
        peaks = [-1.0, 1.0]
        z1 = quad(factor, lo, hi, points=peaks, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert meas.log_z == pytest.approx(d * (math.log(z1) - gamma * f_min), rel=1e-8)
        mean1 = quad(
            lambda x: factor(x) * (x * x - 1.0) ** 2, lo, hi,
            points=peaks, epsabs=0.0, epsrel=1e-13, limit=200,
        )[0] / z1
        assert meas.conditional["risk"] == pytest.approx(d * mean1, rel=1e-8)
        # in d = 3 the first and last of the 8 wells (mirror images) keep
        # the reference's 262k-point rules affordable
        for i, m in [*enumerate(minima)][:: 1 if d == 2 else len(minima) - 1]:
            # whitened ellipsoid: w = c + y / √h over the ball |y| <= r
            scale = 1.0 / np.sqrt(np.diagonal(m.reg_hessian))

            def dens(y):
                w = m.location + y * scale
                return np.prod(factor(w) / z1, axis=-1) * np.prod(scale)

            mass = ball_quadrature(dens, r, d, order)
            risk = ball_quadrature(
                lambda y: dens(y) * land.risk(m.location + y * scale), r, d, order
            )
            assert meas.masses[i] == pytest.approx(mass, rel=1e-8)
            assert meas.region_conditional["risk"][i] == pytest.approx(risk / mass, rel=1e-8)

    def test_double_well_2d_complement_against_nested_quad(self):
        # a point the masked tensor grid cannot resolve: one minus the masses
        # would carry about 1e-4 relative rounding on this complement of 1.3e-12
        land = double_well_landscape(2)
        gamma = 100.0
        minima = enumerate_minima(land, 0.0)
        r = 0.3 * disjoint_radius(minima)
        meas = self._measure(land, gamma, [m.ellipsoid(r) for m in minima])
        factor = lambda x: math.exp(-gamma * (x * x - 1.0) ** 2)
        opts = dict(epsabs=0.0, epsrel=1e-12, limit=200)
        z1 = quad(factor, -2.0, 2.0, points=[-1.0, 1.0], **opts)[0]
        rho = r / math.sqrt(8.0)  # both curvatures are 8 at (±1, ±1)

        def outside_x2(x1):
            # chords of the two ellipsoids centred at x1 ≈ ±1, if any
            off = 1.0 - ((abs(x1) - 1.0) / rho) ** 2
            if off <= 0.0:
                return z1
            s = rho * math.sqrt(off)
            gaps = [(-2.0, -1.0 - s), (-1.0 + s, 1.0 - s), (1.0 + s, 2.0)]
            return sum(quad(factor, a, b, **opts)[0] for a, b in gaps)

        ends = [-1.0 - rho, -1.0 + rho, 1.0 - rho, 1.0 + rho]
        comp = quad(lambda x1: factor(x1) * outside_x2(x1), -2.0, 2.0, points=ends, **opts)[0]
        comp /= z1 * z1
        assert 1e-12 < comp < 2e-12
        assert meas.complement_mass[r] == pytest.approx(comp, rel=1e-8)

    def test_middle_gap_inside_one_panel(self):
        # 1040 nodes make 65 panels on [-2, 2], so the barrier gap
        # [-0.001, 0.001] between the two chords lies inside one panel of
        # the coarse pass and gets its own rule; it holds the complement
        land = double_well_landscape(1)
        gamma = 20.0
        minima = enumerate_minima(land, 0.0)
        r = 0.999 * disjoint_radius(minima)
        rho = r / math.sqrt(8.0)  # both curvatures are 8 at ±1
        edges = oracles._panel_edges(-2.0, 2.0, 1040)
        assert not np.any((edges >= -1.0 + rho) & (edges <= 1.0 - rho))
        meas = product_measure(
            land.coordinate_risks, gamma, land.domain_box, 1040,
            regions=[m.ellipsoid(r) for m in minima],
        )
        factor = lambda x: math.exp(-gamma * (x * x - 1.0) ** 2)
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        z = quad(factor, -2.0, 2.0, points=[-1.0, 0.0, 1.0], **opts)[0]
        gaps = [(-2.0, -1.0 - rho), (-1.0 + rho, 1.0 - rho), (1.0 + rho, 2.0)]
        comp = sum(quad(factor, a, b, **opts)[0] for a, b in gaps) / z
        assert 1e-11 < comp < 1.1e-11
        assert meas.complement_mass[r] == pytest.approx(comp, rel=1e-10, abs=0.0)

    def test_light_well_beside_a_heavy_one(self):
        # with the ridge the stiff well (curvature 4) holds 3e-8 of the mass:
        # its chord as a difference of prefix sums from the box's left end,
        # which pass the wide well, would keep only about 8 of its digits
        land = spline_double_well_landscape()
        gamma, ridge = 5000.0, 0.05
        minima = enumerate_minima(land, ridge)
        r = 0.5 * disjoint_radius(minima)
        risk = lambda x: land.risk(x[..., None])
        # the harness's node count for this point: 20 per well width across the box
        meas = product_measure(
            [lambda x: risk(x) + ridge * x * x], gamma, land.domain_box, 17182,
            regions=[m.ellipsoid(r) for m in minima], integrands={"risk": [risk]},
        )
        stiff = minima[1]
        h, c = 4.0, float(stiff.location[0])
        reg = lambda x: float(risk(np.array([x]))[0]) + ridge * x * x
        f_min = reg(float(minima[0].location[0]))
        factor = lambda x: math.exp(-gamma * (reg(x) - f_min))
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        z = quad(factor, -3.0, 3.0, points=[m.location[0] for m in minima], **opts)[0]
        half = r / math.sqrt(h + 2.0 * ridge)
        mass = quad(factor, c - half, c + half, points=[c], **opts)[0] / z
        assert 3e-8 < mass < 3.2e-8
        assert meas.masses[1] == pytest.approx(mass, rel=1e-10, abs=0.0)
        # the well is the quadratic ½h(w − 1)² across its ellipsoid, whose
        # whitened radius of 70 leaves the Gaussian's excess ½h/(γ(h + 2λ))
        excess = meas.region_conditional["risk"][1] - float(land.risk(stiff.location))
        assert excess == pytest.approx(0.5 * h / (gamma * (h + 2.0 * ridge)), rel=1e-10, abs=0.0)

    def test_light_well_between_two_heavy_ones(self):
        # the middle chord holds 2.6e-10 of the mass between two wells of
        # about 0.5 each, so a difference of prefix or of suffix sums loses
        # it whichever side it starts from
        phi = lambda x: x**2 * (x**2 - 4.0) ** 2 / 16.0 + 0.6 * np.exp(-2.0 * x**2)
        gamma, r = 40.0, 0.9
        regions = [
            EllipsoidSpec(center=np.array([c]), metric=np.array([[h]]), radius=r)
            for c, h in ((-2.0, 8.0), (0.0, 2.0), (2.0, 8.0))
        ]
        meas = product_measure(
            [phi], gamma, [[-3.0, 3.0]], 4000, regions=regions,
            integrands={"x2": [lambda x: x * x]},
        )
        factor = lambda x: math.exp(-gamma * phi(x))
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        z = quad(factor, -3.0, 3.0, points=[-2.0, 0.0, 2.0], **opts)[0]
        half = r / math.sqrt(2.0)
        mass = quad(factor, -half, half, points=[0.0], **opts)[0]
        second = quad(lambda x: x * x * factor(x), -half, half, points=[0.0], **opts)[0]
        assert 2.5e-10 < mass / z < 2.7e-10
        assert meas.masses[1] == pytest.approx(mass / z, rel=1e-12, abs=0.0)
        assert meas.region_conditional["x2"][1] == pytest.approx(second / mass, rel=1e-12, abs=0.0)

    def test_agrees_with_tensor_rule_where_it_converges(self):
        land = quadratic_landscape(2, matrix=np.diag([1.0, 2.0]))
        gamma = 100.0
        minima = enumerate_minima(land, 0.0)
        regions = [minima[0].ellipsoid(0.8 * disjoint_radius(minima))]
        product = self._measure(land, gamma, regions, nodes=400)
        tensor = quadrature_measure(
            lambda w: land.reg_risk(w, 0.0), gamma,
            tensor_gauss_legendre(land.domain_box, 400),
            regions=regions, integrands={"risk": land.risk},
        )
        assert product.log_z == pytest.approx(tensor.log_z, rel=1e-6)
        np.testing.assert_allclose(product.masses, tensor.masses, rtol=1e-6)
        r = regions[0].radius
        assert product.complement_mass[r] == pytest.approx(tensor.complement_mass[r], abs=1e-12)
        assert product.conditional["risk"] == pytest.approx(tensor.conditional["risk"], rel=1e-6)
        np.testing.assert_allclose(
            product.region_conditional["risk"], tensor.region_conditional["risk"], rtol=1e-6
        )
        assert product.nodes_per_axis == ((400, 400), (800, 800))

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_ridge_has_the_bits_of_the_explicit_potential(self, ridge):
        land = double_well_landscape(2)
        minima = enumerate_minima(land, ridge)
        regions = [m.ellipsoid(0.5 * disjoint_radius(minima)) for m in minima]
        risks = land.coordinate_risks
        by_ridge = product_measure(
            risks, 20.0, land.domain_box, 400, regions, {"risk": risks}, ridge=ridge
        )
        explicit = product_measure(
            [lambda x, f=f: f(x) + ridge * (x * x) for f in risks], 20.0, land.domain_box,
            400, regions, {"risk": risks},
        )
        _assert_same_bits(by_ridge, explicit)

    def test_each_piece_is_evaluated_once_per_point(self):
        # a risk integrand that is the potential's piece reads that piece's
        # values: asking for it adds no evaluation
        land = double_well_landscape(2)
        seen = []

        def counted(f):
            def piece(x):
                seen.append(np.size(x))
                return f(x)

            return piece

        pieces = [counted(f) for f in land.coordinate_risks]
        minima = enumerate_minima(land, 0.1)
        regions = [m.ellipsoid(0.5 * disjoint_radius(minima)) for m in minima]
        product_measure(pieces, 20.0, land.domain_box, 400, regions, ridge=0.1)
        alone = sum(seen)
        seen.clear()
        product_measure(pieces, 20.0, land.domain_box, 400, regions, {"risk": pieces}, ridge=0.1)
        assert sum(seen) == alone > 0

    def test_nan_integrand_at_zero_density_points_is_never_read(self):
        # e^(−50 x²) is exactly 0.0 for |x| > 3.87: the NaN beyond 5 meets
        # no nonzero factor on the axes' rules, on the partial panels or on
        # the chords of the wide region, which reach |x| = 6
        assert np.exp(-50.0 * 5.0**2) == 0.0
        phi = lambda x: 50.0 * x * x
        g = lambda x: np.where(np.abs(x) > 5.0, np.nan, 0.5 + x)
        regions = [
            EllipsoidSpec(center=np.zeros(2), metric=100.0 * np.eye(2), radius=r)
            for r in (1.0, 60.0)
        ]
        meas = product_measure(
            [phi, phi], 1.0, [(-10.0, 10.0)] * 2, 400, regions=regions,
            integrands={"g": [g, g]},
        )
        assert meas.conditional["g"] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(meas.region_conditional["g"], 1.0, rtol=0.0, atol=1e-12)
        assert meas.masses[1] == pytest.approx(1.0, abs=1e-12)

    def test_small_slice_blocks_keep_the_values(self, monkeypatch):
        # the d = 3 point with 64-slice blocks: the last axis's 6400 and
        # 16384 slices run in 100 and 256 blocks
        land, gamma, h = _diagonal_quadratic_case(3, seed=37)
        region = EllipsoidSpec(center=np.zeros(3), metric=np.diag(h), radius=7.0 / math.sqrt(gamma))
        default = self._measure(land, gamma, [region])
        blocks = []
        nested = oracles._nested

        def counting(axes, k, members, t, *args):
            if len(t) <= 64:
                blocks.append(k)
            return nested(axes, k, members, t, *args)

        monkeypatch.setattr(oracles, "_SLICE_BLOCK", 64)
        monkeypatch.setattr(oracles, "_nested", counting)
        small = self._measure(land, gamma, [region])
        assert blocks.count(2) > 100
        _assert_close(small, default, rel=1e-12)

    def test_zero_weight_slices_are_not_split(self, monkeypatch, tmp_path):
        # the quadratic d = 3 point at γ = 100, r = 0.8·r0: most slices of
        # the chord rules carry density exactly 0.0 and are never split
        raw = {
            "landscape": {"name": "quadratic", "params": {"dimension": 3}},
            "gibbs": {"gamma": 100.0, "ridge": 0.0, "m": 1000},
            "radius": {"relative": 0.8},
            "theorems": ["local_excess", "ellipsoid_mass", "complement_mass"],
            "master_seed": 1,
        }
        slices, weighted, split_slices = [], [], []
        nested, split = oracles._nested, oracles._Axis.split

        def counting_nested(axes, k, members, t, w, wg, *args):
            if len(t) <= oracles._SLICE_BLOCK:
                slices.append(len(t))
                # a subnormal pair weight may round w to 0 and leave wg not
                weighted.append(int(np.count_nonzero((w != 0.0) | np.any(wg != 0.0, axis=0))))
            return nested(axes, k, members, t, w, wg, *args)

        def counting_split(self, cuts):
            split_slices.append(cuts.shape[1])
            return split(self, cuts)

        monkeypatch.setattr(oracles, "_nested", counting_nested)
        monkeypatch.setattr(oracles._Axis, "split", counting_split)
        harness.run_experiment(harness.validate_config(raw), out_dir=tmp_path)
        # both passes: 1 + 80 + 80² and 1 + 128 + 128² slices
        assert sum(slices) == 22994
        assert sum(split_slices) == sum(weighted) < 0.5 * sum(slices)

    def test_rejects_what_it_cannot_integrate(self):
        land = double_well_landscape(2)
        minima = enumerate_minima(land, 0.0)
        tilted = EllipsoidSpec(np.ones(2), np.array([[8.0, 1.0], [1.0, 8.0]]), 0.5)
        with pytest.raises(ArgumentError, match="axis-aligned"):
            self._measure(land, 20.0, [tilted])
        # at twice r0 the ellipsoids of (1, 1) and (1, -1) overlap
        overlapping = [m.ellipsoid(2.0 * disjoint_radius(minima)) for m in minima]
        with pytest.raises(ArgumentError, match="overlap"):
            self._measure(land, 20.0, overlapping)
        nan = [lambda x: np.where(x > 1.9, np.nan, x * x)] * 2
        with pytest.raises(ArgumentError, match="NaN or -inf"):
            product_measure(nan, 1.0, land.domain_box, 64)

    def test_under_resolved_raises(self):
        land = quadratic_landscape(2, matrix=np.diag([1.0, 2.0]))
        with pytest.raises(ResolutionError):
            self._measure(land, 1e4, [], nodes=16)


class TestEmpiricalExcessRisk:
    def test_all_samples_at_minimum_give_zero(self):
        land = quadratic_landscape(1)
        minimum = enumerate_minima(land, 0.0)[0]
        r = 0.8
        from gibbslab.samplers import ChainBatch

        batch = ChainBatch(
            samples=np.tile(minimum.location, (200, 1)),
            kind="iid",
            master_seed=0,
            chain_id=0,
            step_size=0.1,
            burn_in=0,
            steps=200,
            region=minimum.ellipsoid(r),
        )
        est = empirical_excess_risk(land, minimum, batch, r)
        assert est.value == 0.0

    def test_gaussian_draws_match_closed_form(self):
        gamma, r = 10.0, 1.2
        land = quadratic_landscape(1)
        minimum = enumerate_minima(land, 0.0)[0]
        batch = gaussian_batch(np.random.default_rng(3), gamma, 400_000)
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

    @pytest.mark.parametrize(
        "case, ridge, r",
        [
            ("unconditioned", 0.0, 0.5),
            ("wrong_radius", 0.0, 0.9),
            # same centre 0 and radius, but metric 1 + 2λ = 3 at λ = 1
            ("wrong_metric", 1.0, 0.5),
        ],
    )
    def test_contract_errors(self, case, ridge, r):
        land = quadratic_landscape(1)
        minimum = enumerate_minima(land, 0.0)[0]
        batch = gaussian_batch(np.random.default_rng(3), 10.0, 500)
        if case != "unconditioned":
            batch = condition_on_region(batch, minimum.ellipsoid(0.5))
        with pytest.raises(ContractError):
            empirical_excess_risk(land, enumerate_minima(land, ridge)[0], batch, r)


def _least_squares_2d_data_model():
    """ℓ(w, (x, y)) = (y − w·x)² with x ~ N(0, Σ), Σ correlated, and
    y = w*·x + ν, ν ~ N(0, σ²): R(w) = (w − w*)ᵀΣ(w − w*) + σ²."""
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    w_star = np.array([0.4, -0.3])
    noise = 0.5
    chol = np.linalg.cholesky(cov)

    def risk(w):
        dev = np.asarray(w, dtype=float) - w_star
        return np.einsum("...i,ij,...j->...", dev, cov, dev) + noise**2

    def residuals(w, sample):
        return sample[..., 2] - (sample[..., :2] @ np.asarray(w, dtype=float)[..., None])[..., 0]

    def loss_hessian(w, sample):
        hess = 2.0 * sample[..., :2, None] * sample[..., None, :2]
        lead = np.broadcast_shapes(np.shape(w)[:-1] + (1,), hess.shape[:-2])
        return np.broadcast_to(hess, lead + (2, 2))

    def sample_examples(rng, n):
        x = rng.standard_normal((n, 2)) @ chol.T
        return np.column_stack([x, x @ w_star + noise * rng.standard_normal(n)])

    landscape = Landscape(
        name="least_squares2",
        dimension=2,
        domain_box=np.array([[-3.0, 3.0], [-3.0, 3.0]]),
        loss_bound=100.0,
        risk=risk,
        gradient=lambda w: 2.0 * (np.asarray(w, dtype=float) - w_star) @ cov,
        hessian=lambda w: np.broadcast_to(2.0 * cov, np.shape(w)[:-1] + (2, 2)),
        initial_points=(w_star,),
        quadratic=True,
    )
    return DataModel(
        name="least_squares2",
        landscape=landscape,
        loss=lambda w, sample: residuals(w, sample) ** 2,
        loss_gradient=lambda w, sample: -2.0 * residuals(w, sample)[..., None] * sample[..., :2],
        loss_hessian=loss_hessian,
        sample_examples=sample_examples,
        quadratic=True,
    )


def _quartic_data_model(a=0.5):
    """ℓ(w, z) = (w² − z)² with z ~ U[1 − a, 1 + a] on [−2, 2]: a loss that
    is not quadratic in w, whose risk is (w² − 1)² + a²/3."""

    def risk(w):
        x = np.asarray(w, dtype=float)[..., 0]
        return (x * x - 1.0) ** 2 + a * a / 3.0

    def gradient(w):
        x = np.asarray(w, dtype=float)
        return 4.0 * x * (x * x - 1.0)

    def hessian(w):
        x = np.asarray(w, dtype=float)[..., None]
        return 12.0 * x * x - 4.0

    def loss(w, sample):
        x = np.asarray(w, dtype=float)[..., :1]
        return (x * x - sample[..., 0]) ** 2

    def loss_gradient(w, sample):
        x = np.asarray(w, dtype=float)[..., :1]
        return (4.0 * x * (x * x - sample[..., 0]))[..., None]

    def loss_hessian(w, sample):
        x = np.asarray(w, dtype=float)[..., :1]
        return (12.0 * x * x - 4.0 * sample[..., 0])[..., None, None]

    landscape = Landscape(
        name="quartic_loss",
        dimension=1,
        domain_box=np.array([[-2.0, 2.0]]),
        loss_bound=(3.0 + a) ** 2,
        risk=risk,
        gradient=gradient,
        hessian=hessian,
        initial_points=(np.array([-1.0]), np.array([1.0])),
    )
    return DataModel(
        name="quartic_loss",
        landscape=landscape,
        loss=loss,
        loss_gradient=loss_gradient,
        loss_hessian=loss_hessian,
        sample_examples=lambda rng, n: rng.uniform(1.0 - a, 1.0 + a, size=(n, 1)),
    )


def _coin_data_model():
    """ℓ(w, z) = z·w² with z a fair coin on the quadratic R(w) = ½w²: its
    empirical Hessian at m = 1 is 2z, singular for z = 0."""
    return DataModel(
        name="coin",
        landscape=quadratic_landscape(1, matrix=[[1.0]]),
        loss=lambda w, z: np.asarray(w)[..., :1] ** 2 * z[..., 0],
        loss_gradient=lambda w, z: (2.0 * np.asarray(w)[..., :1] * z[..., 0])[..., None],
        # adding 0·w broadcasts the Hessian over w's batch axes
        loss_hessian=lambda w, z: (2.0 * z[..., 0] + 0.0 * np.asarray(w)[..., :1])[
            ..., None, None
        ],
        sample_examples=lambda rng, n: rng.integers(0, 2, size=(n, 1)).astype(float),
        quadratic=True,
    )


def _trial_gaps(monkeypatch, *args, **kwargs):
    """The estimate of ``empirical_generalization_gap`` and its per-trial values."""
    seen = []
    mean_estimate = oracles._mean_estimate

    def recording(values):
        seen.append(values.copy())
        return mean_estimate(values)

    monkeypatch.setattr(oracles, "_mean_estimate", recording)
    est = empirical_generalization_gap(*args, **kwargs)
    monkeypatch.setattr(oracles, "_mean_estimate", mean_estimate)
    return est, seen[0]


def _gauss_hermite_gaps(dm, gamma, ridge, m, trials, seed):
    """Per trial, E_w[R(w) − R̂_S(w)] for w ~ N(c, (γH)⁻¹), the untruncated
    Gaussian target, by the 3-point-per-axis Gauss-Hermite rule in whitened
    coordinates: exact for a quadratic integrand."""
    u, weights = np.polynomial.hermite_e.hermegauss(3)
    weights /= weights.sum()
    d = dm.landscape.dimension
    nodes = np.stack(np.meshgrid(*[u] * d, indexing="ij"), axis=-1).reshape(-1, d)
    node_weights = np.prod(np.meshgrid(*[weights] * d, indexing="ij"), axis=0).ravel()
    gaps = []
    for t in range(trials):
        sample = dm.sample_examples(np.random.default_rng(chain_seed(seed, 2 * t)), m)
        # one Newton step from w = 0 lands on the minimizer c of the
        # quadratic regularized empirical risk, whose Hessian is H
        w0 = np.zeros(d)
        hess = np.mean(dm.loss_hessian(w0, sample), axis=-3) + 2.0 * ridge * np.eye(d)
        center = w0 - np.linalg.solve(hess, np.mean(dm.loss_gradient(w0, sample), axis=-2))
        chol = np.linalg.cholesky(gamma * hess)
        w = center + np.linalg.solve(chol.T, nodes.T).T
        gap = dm.landscape.risk(w) - np.mean(dm.loss(w, sample), axis=-1)
        gaps.append(node_weights @ gap)
    return np.array(gaps)


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

    @pytest.mark.parametrize(
        "make_model, gamma",
        [
            (rls_data_model, 1e-3),
            (rls_data_model, 1.0),
            (rls_data_model, 10.0),
            (_least_squares_2d_data_model, 10.0),
        ],
        ids=["rls-1e-3", "rls-1", "rls-10", "least_squares2-10"],
    )
    def test_quadratic_gap_is_the_gaussian_expectation(self, monkeypatch, make_model, gamma):
        dm = make_model()
        ridge, m, trials = 0.1, 200, 50
        est, gaps = _trial_gaps(monkeypatch, dm, gamma, ridge, m, trials=trials, master_seed=4,
                                steps=10)
        reference = _gauss_hermite_gaps(dm, gamma, ridge, m, trials, 4)
        np.testing.assert_allclose(gaps, reference, rtol=1e-12, atol=0.0)
        # steps is accepted and not read
        assert est == empirical_generalization_gap(
            dm, gamma, ridge, m, trials=trials, master_seed=4, steps=20_000
        )

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

    @pytest.mark.parametrize(
        "land",
        [
            quadratic_landscape(2, matrix=[[1.0, 0.3], [0.3, 2.0]]),
            # its target's minimizer is off 0, so m·R(c) and a sum of m
            # equal losses can round apart there
            rls_data_model().landscape,
        ],
        ids=["quadratic2", "rls"],
    )
    def test_example_independent_quadratic_loss_gives_exact_zero(self, land):
        est = empirical_generalization_gap(
            constant_loss_data_model(land), 5.0, 0.1, 20, trials=50, master_seed=4
        )
        assert est.value == 0.0
        assert est.halfwidth_95 == 0.0

    @pytest.mark.parametrize(
        "make_model, m",
        [
            # blocks of 32 trials at m = 1000: 50 trials leave a partial last block
            (rls_data_model, 1000),
            (_least_squares_2d_data_model, 1000),
            # above the block size every block holds one trial
            (rls_data_model, oracles._GAP_BLOCK + 1),
        ],
        ids=["rls-partial-block", "least_squares2-partial-block", "rls-one-trial-blocks"],
    )
    def test_quadratic_gap_at_block_edges(self, monkeypatch, make_model, m):
        dm = make_model()
        gamma, ridge, trials = 10.0, 0.1, 50
        _, gaps = _trial_gaps(monkeypatch, dm, gamma, ridge, m, trials=trials, master_seed=4)
        reference = _gauss_hermite_gaps(dm, gamma, ridge, m, trials, 4)
        np.testing.assert_allclose(gaps, reference, rtol=1e-12, atol=0.0)

    def test_quadratic_memory_does_not_grow_with_trials_times_m(self):
        import tracemalloc

        # the whole (trials × m × 2) sample array would take 80 MB
        dm = rls_data_model()
        tracemalloc.start()
        try:
            empirical_generalization_gap(dm, 10.0, 0.1, 100_000, trials=50, master_seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_model_not_declared_quadratic_is_refused(self):
        with pytest.raises(ArgumentError, match="'quartic_loss' is not declared quadratic"):
            empirical_generalization_gap(
                _quartic_data_model(), 10.0, 0.1, 100, trials=50, master_seed=4
            )

    def test_singular_hessian_is_refused(self):
        # at λ = 0 the Hessian diag(2, 0) is singular in every trial
        dm = constant_loss_data_model(quadratic_landscape(2, matrix=np.diag([1.0, 0.0])))
        with pytest.raises(
            ArgumentError, match=r"^trial 0: .* smallest eigenvalue 0, .* positive ridge$"
        ):
            empirical_generalization_gap(dm, 5.0, 0.0, 20, trials=50, master_seed=4)
        est = empirical_generalization_gap(dm, 5.0, 0.1, 20, trials=50, master_seed=4)
        assert est.value == 0.0

    @pytest.mark.parametrize("block", [None, 1, 2], ids=["one-block", "1", "2"])
    def test_first_singular_trial_is_named(self, monkeypatch, block):
        # at λ = 0 and m = 1 a coin trial's Hessian is 2z: singular for z = 0
        dm = _coin_data_model()
        if block is not None:
            monkeypatch.setattr(oracles, "_GAP_BLOCK", block)
        coins = np.array([
            dm.sample_examples(np.random.default_rng(chain_seed(4, 2 * t)), 1)[0, 0]
            for t in range(60)
        ])
        first = np.flatnonzero(coins == 0.0)[0]
        assert first > 2
        with pytest.raises(ArgumentError, match=rf"^trial {first}: .* eigenvalue 0, "):
            empirical_generalization_gap(dm, 5.0, 0.0, 1, trials=60, master_seed=4)

    def test_coin_trials_take_the_closed_form(self, monkeypatch):
        # at m = 1 a coin trial's Hessian is 2z + 2λ and its gap is
        # E[½w² − zw²] = (½ − z)/(γ(2z + 2λ)) for w ~ N(0, (γH)⁻¹)
        dm = _coin_data_model()
        gamma, ridge, trials = 5.0, 0.25, 60
        coins = np.array([
            dm.sample_examples(np.random.default_rng(chain_seed(4, 2 * t)), 1)[0, 0]
            for t in range(trials)
        ])
        _, gaps = _trial_gaps(monkeypatch, dm, gamma, ridge, 1, trials=trials, master_seed=4)
        reference = (0.5 - coins) / (gamma * (2.0 * coins + 2.0 * ridge))
        np.testing.assert_allclose(gaps, reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan], ids=["negative", "zero", "nan"])
    def test_gamma_must_be_positive(self, gamma):
        with pytest.raises(ArgumentError, match="gamma must be positive"):
            empirical_generalization_gap(
                rls_data_model(), gamma, 0.1, 100, trials=50, master_seed=4
            )

    def test_negative_ridge_is_refused(self):
        # at λ = −0.5 every rls trial's H = 2·mean(x²) − 1 is negative
        with pytest.raises(ArgumentError, match="ridge weight must be nonnegative"):
            empirical_generalization_gap(
                rls_data_model(), 1.0, -0.5, 100, trials=50, master_seed=4
            )

    def test_rls_gaps_match_the_sample_statistics_closed_form(self, monkeypatch):
        # ℓ = (y − wx)², so R̂_S(w) = Syy − 2w·Sxy + w²·Sxx in the sample
        # means; f = R̂_S + λw² has minimizer c = Sxy/(Sxx + λ) and curvature
        # 2(Sxx + λ); and R(w) = ((w − a)² + b²)/3 for y = ax + ν, x ~ U[−1, 1],
        # ν ~ U[−b, b], whose clipping to [−1, 1] never binds
        a, b, gamma, ridge, m, trials, seed = 0.5, 0.5, 10.0, 0.1, 100, 20_000, 12345
        est, gaps = _trial_gaps(monkeypatch, rls_data_model(a, b), gamma, ridge, m,
                                trials=trials, master_seed=seed)
        reference = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng(chain_seed(seed, 2 * t))
            x = rng.uniform(-1.0, 1.0, m)
            y = a * x + rng.uniform(-b, b, m)
            sxx, sxy, syy = np.mean(x * x), np.mean(x * y), np.mean(y * y)
            c = sxy / (sxx + ridge)
            value = ((c - a) ** 2 + b * b) / 3.0 - (syy - 2.0 * c * sxy + c * c * sxx)
            reference[t] = value + 0.5 * (2.0 / 3.0 - 2.0 * sxx) / (2.0 * gamma * (sxx + ridge))
        np.testing.assert_allclose(gaps, reference, rtol=1e-10, atol=0.0)
        assert est.value == pytest.approx(np.mean(reference), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "make_model, gamma, m",
        [
            (rls_data_model, 1.0, 100),
            (rls_data_model, 1.0, 1000),
            (rls_data_model, 10.0, 100),
            (rls_data_model, 10.0, 1000),
            (_least_squares_2d_data_model, 10.0, 200),
        ],
        ids=["rls-1-100", "rls-1-1000", "rls-10-100", "rls-10-1000", "least_squares2-10-200"],
    )
    def test_direct_gap_agrees_with_the_gibbs_identity(self, make_model, gamma, m):
        # gen = I_SKL(W; S)/γ for any Gibbs learner (Aminian et al. 2021),
        # here with each trial's Gaussian target rebuilt from its draws:
        # both models' loss is (y − w·x)² with the sample's last column y
        dm = make_model()
        ridge, trials, seed = 0.1, 1000, 20260809
        est = empirical_generalization_gap(dm, gamma, ridge, m, trials=trials, master_seed=seed)
        d = dm.landscape.dimension
        centers, precisions = np.empty((trials, d)), np.empty((trials, d, d))
        for t in range(trials):
            sample = dm.sample_examples(np.random.default_rng(chain_seed(seed, 2 * t)), m)
            x, y = sample[:, :-1], sample[:, -1]
            gram = x.T @ x / m + ridge * np.eye(d)
            centers[t] = np.linalg.solve(gram, x.T @ y / m)
            precisions[t] = 2.0 * gamma * gram
        value, se = _gibbs_identity(centers, precisions, gamma)
        assert abs(est.value - value) <= 4.0 * math.hypot(est.std_error, se)


def _gibbs_identity(centers, precisions, gamma):
    """I_SKL(W; S)/γ over T trials with Gaussian posteriors N(c_t, Λ_t⁻¹),
    and its jackknife standard error.

    I_SKL is the mean over trials t of E_{w ~ q_t} log q_t(w) less the mean
    over pairs s ≠ t of E_{w ~ q_s} log q_t(w): a U-statistic. Each
    expectation is −½[tr(Λ_t Λ_s⁻¹) + (c_s − c_t)ᵀΛ_t(c_s − c_t)] up to
    q_t's normaliser, which the self and the cross mean share.
    """
    trials = len(centers)
    covs = np.linalg.inv(precisions)
    diff = centers[:, None, :] - centers[None, :, :]
    cross = -0.5 * (
        np.einsum("tij,sji->st", precisions, covs)
        + np.sum(diff * np.einsum("tij,stj->sti", precisions, diff), axis=-1)
    )
    self_pairs = np.diag(cross)
    self_sum, cross_sum = self_pairs.sum(), cross.sum() - self_pairs.sum()
    value = self_sum / trials - cross_sum / (trials * (trials - 1))
    # leave-one-out: trial k takes its self pair, its row and its column
    loo = (self_sum - self_pairs) / (trials - 1) - (
        cross_sum - cross.sum(axis=0) - cross.sum(axis=1) + 2.0 * self_pairs
    ) / ((trials - 1) * (trials - 2))
    se = math.sqrt((trials - 1) / trials * np.sum((loo - loo.mean()) ** 2))
    return value / gamma, se / gamma


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_whole_axis_formula(self, d):
        # the objective as written with numpy sums over the coordinate axis
        rng = np.random.default_rng(30 + d)
        g = rng.standard_normal((d, d))
        land = quadratic_landscape(d, matrix=g @ g.T + np.eye(d), bounds=(-3.0, 3.0))
        grid = tensor_gauss_legendre(land.domain_box, [48, 32, 16][:d])
        gamma, ridge = 2.0, 0.3
        nodes, weights = grid.nodes, grid.weights
        sq = np.sum(nodes * nodes, axis=-1)
        p = np.exp(-gamma * (land.risk(nodes) + ridge * sq))
        p /= np.sum(weights * p)
        precision = 2.0 * gamma * ridge
        log_ref = 0.5 * d * math.log(precision / (2.0 * math.pi)) - 0.5 * precision * sq
        kl = float(np.sum(weights * (p * (np.log(p) - log_ref))))
        old = float(np.sum(weights * p * land.risk(nodes))) + kl / gamma
        assert irm_objective(p, land.risk, gamma, ridge, grid) == old

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
        # a Metropolis chain's average of R has a standard error ∝ 1/√n
        # once n is many autocorrelation times: 4x the steps halve it
        land = quadratic_landscape(1)
        tgt = target_from_landscape(land, 0.0)
        means_small, means_large = [], []
        for cid in range(40):
            small = sample_chain("metropolis", tgt, 4.0, 1.0, 400, 0, 99, chain_id=cid)
            large = sample_chain("metropolis", tgt, 4.0, 1.0, 1600, 0, 999, chain_id=cid)
            means_small.append(float(land.risk(small.samples).mean()))
            means_large.append(float(land.risk(large.samples).mean()))
        ratio = np.std(means_small) / np.std(means_large)
        assert ratio == pytest.approx(2.0, abs=0.8)
