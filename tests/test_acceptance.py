"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (run pytest with -s
or look at captured output). Tolerances are pinned here, not calibrated.
"""

import math
import time

import numpy as np
from scipy.integrate import quad as scipy_quad

import gibbslab as gl

from helpers import ball_quadrature, sample_truncated_gaussian_ellipsoid


def _report(n: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {n:02d}] {status}: {desc}{suffix}")
    assert ok, f"criterion {n} failed: {desc}{suffix}"


def test_criterion_01_truncated_moment_identity():
    start = time.monotonic()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for d in (1, 2, 5):
        for _ in range(3):
            g = rng.standard_normal((d, d))
            a = g @ g.T
            h = rng.standard_normal((d, d))
            m = h @ h.T + 0.1 * np.eye(d)
            for r in (0.5, 1.0, 2.0):
                closed = gl.truncated_quadratic_moment(a, m, r)
                x = sample_truncated_gaussian_ellipsoid(rng, m, r, 10**6)
                mc = float(np.mean(np.einsum("ni,ij,nj->n", x, a, x)))
                worst = max(worst, abs(closed - mc) / abs(mc))
    elapsed = time.monotonic() - start
    _report(
        1,
        "truncated quadratic moment vs 1e6-sample Monte-Carlo, 2% rel",
        worst <= 0.02 and elapsed < 60.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_truncated_gaussian_integral():
    oracle_1d, err = scipy_quad(lambda u: math.exp(-(u * u)), -1.0, 1.0)
    assert err < 1e-12
    rel_1d = abs(gl.gaussian_region_integral(2.0, 1.0, 1) - oracle_1d) / oracle_1d
    rels = [rel_1d]
    for d in (2, 3):
        gamma, r = 2.0, 1.0
        oracle = ball_quadrature(
            lambda pts: np.exp(-0.5 * gamma * np.sum(pts * pts, axis=-1)), r, d
        )
        rels.append(abs(gl.gaussian_region_integral(gamma, r, d) - oracle) / oracle)
    _report(
        2,
        "Gaussian ball integral vs adaptive (d=1, 1e-8) and tensor (d=2,3, 1e-6) quadrature",
        rels[0] <= 1e-8 and max(rels[1:]) <= 1e-6,
        f"rels {[f'{v:.1e}' for v in rels]}",
    )


def test_criterion_03_regularized_gamma_lower_bound():
    ok = True
    for a in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        for z in (0.0, 0.1, 1.0, 5.0, 20.0, 50.0):
            low = gl.regularized_gamma_lower(a, z)
            p = gl.regularized_gamma_P(a, z)
            ok &= low <= p + 1e-12
            if a == 1.0:
                ok &= abs(low - p) <= 1e-12
    _report(3, "(1-e^{-alpha z})^a <= P(a,z) on the 6x6 grid, equality at a=1", ok)


def _conditional_excess(landscape, minimum, gamma, ridge, r, nodes=0):
    minima = gl.enumerate_minima(landscape, ridge)
    lam_max = max(float(np.linalg.eigvalsh(m.reg_hessian)[-1]) for m in minima)
    width = float(np.max(landscape.domain_box[:, 1] - landscape.domain_box[:, 0]))
    auto = int(math.ceil(20.0 * width * math.sqrt(gamma * lam_max)))
    grid = gl.tensor_gauss_legendre(landscape.domain_box, max(nodes, auto, 200))
    meas = gl.quadrature_measure(
        lambda w: landscape.reg_risk(w, ridge),
        gamma,
        grid,
        regions=[minimum.ellipsoid(r)],
        integrands={
            "excess": lambda w: landscape.risk(w) - float(landscape.risk(minimum.location))
        },
    )
    return meas.region_conditional["excess"][0]


def test_criterion_04_localized_excess_risk_bound():
    start = time.monotonic()
    margins = []
    for land in (gl.quadratic_landscape(1), gl.double_well_landscape()):
        minima = gl.enumerate_minima(land, 0.0)
        r = 0.3 * gl.disjoint_radius(minima)
        for gamma in (1.0, 10.0, 100.0):
            for m_size in (10, 100, 1000):
                cfg = gl.GibbsConfig(
                    gamma=gamma, ridge=0.0, m=m_size, loss_bound=land.loss_bound
                )
                for minimum in minima:
                    bound = gl.local_excess_bound(minimum, cfg, r)
                    oracle = _conditional_excess(land, minimum, gamma, 0.0, r)
                    margins.append(bound.total - oracle)
    elapsed = time.monotonic() - start
    _report(
        4,
        "Theorem-3 bound strictly dominates quadrature conditional excess risk "
        "(quadratic and double-well, 3x3 grid)",
        min(margins) > 0.0 and elapsed < 120.0,
        f"min margin {min(margins):.3e}, {elapsed:.1f}s",
    )


def test_criterion_05_generalization_bound():
    start = time.monotonic()
    dm = gl.rls_data_model()
    ridge = 0.1
    ok = True
    details = []
    for gamma in (1.0, 10.0):
        for m_size in (100, 1000):
            est = gl.empirical_generalization_gap(
                dm, gamma, ridge, m_size, trials=200, master_seed=20260809, steps=400
            )
            three_sigma = 1.5 * est.halfwidth_95
            for variant in ("theorem", "hoeffding_stated"):
                cfg = gl.GibbsConfig(
                    gamma=gamma,
                    ridge=ridge,
                    m=m_size,
                    loss_bound=dm.landscape.loss_bound,
                    gen_bound_variant=variant,
                )
                bound = gl.generalization_bound(cfg)
                ok &= est.value - three_sigma <= bound
            details.append(f"gap({gamma},{m_size})={est.value:.2e}")
    elapsed = time.monotonic() - start
    _report(
        5,
        "empirical generalization gap within both bound variants (200 datasets, 3 sigma)",
        ok and elapsed < 300.0,
        f"{'; '.join(details)}, {elapsed:.1f}s",
    )


def test_criterion_06_minima_distribution():
    land = gl.spline_double_well_landscape()
    minima = gl.enumerate_minima(land, 0.0)
    pot = lambda w: land.reg_risk(w, 0.0)
    ok = True
    ratio_detail = ""
    for gamma in (20.0, 100.0, 1000.0):
        nodes = max(2000, int(40 * math.sqrt(gamma * 4.0) * 6))
        grid = gl.tensor_gauss_legendre(land.domain_box, nodes)
        for r in (0.45, 0.8):
            masses = gl.quadrature_measure(
                pot, gamma, grid, regions=[m.ellipsoid(r) for m in minima]
            ).masses
            pi_quad = masses / masses.sum()
            cfg = gl.GibbsConfig(gamma=gamma, ridge=0.0, m=1000, loss_bound=land.loss_bound)
            dist = gl.minima_distribution(minima, cfg, r)
            ok &= bool(np.all(pi_quad <= dist.upper_bounds * (1.0 + 1e-9)))
            if gamma == 1000.0 and r == 0.45:
                rel = np.max(np.abs(pi_quad - dist.pi_infinity) / dist.pi_infinity)
                ok &= rel <= 0.05
                ratio_detail = f"pi_quad vs pi_inf rel {rel:.2e}"
    _report(
        6,
        "quadrature minima distribution within Lemma upper bounds; "
        "mass ratio matches pi_infinity at gamma=1e3 within 5%",
        ok,
        ratio_detail,
    )


def test_criterion_07_complement_vanishing():
    land = gl.double_well_landscape()
    minima = gl.enumerate_minima(land, 0.0)
    r0 = gl.disjoint_radius(minima)
    pot = lambda w: land.reg_risk(w, 0.0)
    masses = []
    bound_ok = True
    for gamma in (10.0, 100.0, 1000.0, 10000.0):
        r = gl.tune_radius(gamma, 1.0 / 3.0)
        assert r <= r0
        nodes = int(20 * 4 * math.sqrt(gamma * 8.0)) + 200
        grid = gl.tensor_gauss_legendre(land.domain_box, nodes)
        comp_mass = gl.quadrature_measure(
            pot, gamma, grid, regions=[m.ellipsoid(r) for m in minima]
        ).complement_mass[r]
        masses.append(comp_mass)
        cfg = gl.GibbsConfig(gamma=gamma, ridge=0.0, m=1000, loss_bound=land.loss_bound)
        cb = gl.complement_mass_bound(minima, cfg, r)
        if 0.0 <= cb.raw <= 1.0:
            bound_ok &= comp_mass <= cb.clamped
    decreasing = all(b < a for a, b in zip(masses, masses[1:]))
    _report(
        7,
        "complement mass strictly decreasing under tuned radius; within clamped "
        "bound wherever the raw bound is a probability",
        decreasing and bound_ok,
        "masses " + ", ".join(f"{v:.3e}" for v in masses),
    )


def test_criterion_08_ellipsoid_mass_sandwich():
    ok = True
    worst_coincidence = 0.0
    for land, coincide in (
        (gl.double_well_landscape(), False),
        (gl.quadratic_landscape(1), True),
    ):
        minima = gl.enumerate_minima(land, 0.0)
        r0 = gl.disjoint_radius(minima)
        pot = lambda w: land.reg_risk(w, 0.0)
        for gamma in (20.0, 50.0, 100.0):
            lam_max = max(float(np.linalg.eigvalsh(m.reg_hessian)[-1]) for m in minima)
            width = float(land.domain_box[0, 1] - land.domain_box[0, 0])
            nodes = int(20 * width * math.sqrt(gamma * lam_max)) + 200
            grid = gl.tensor_gauss_legendre(land.domain_box, nodes)
            log_z = gl.quadrature_measure(pot, gamma, grid).log_z
            cfg = gl.GibbsConfig(gamma=gamma, ridge=0.0, m=100, loss_bound=land.loss_bound)
            for frac in (0.1, 0.3, 0.6):
                r = frac * r0
                for minimum in minima:
                    mass = gl.quadrature_measure(
                        pot, gamma, grid, regions=[minimum.ellipsoid(r)]
                    ).masses[0]
                    sb = gl.ellipsoid_mass_bounds(minimum, cfg, r, log_z=log_z)
                    ok &= sb.lower_with_z <= mass * (1 + 1e-9)
                    ok &= mass <= sb.upper * (1 + 1e-9)
                    if len(minima) == 1:
                        # the Z-free lower bound is only sound for a single
                        # well (its Z estimate uses one minimum's expansion)
                        ok &= sb.lower_free <= mass * (1 + 1e-9)
                    if coincide:
                        for v in (sb.upper, sb.lower_with_z, sb.lower_free):
                            worst_coincidence = max(
                                worst_coincidence, abs(v - mass) / mass
                            )
    _report(
        8,
        "Laplace sandwich on ellipsoid masses (double-well 3x3 grid); all three "
        "bounds coincide with quadrature on the quadratic to rel 1e-6",
        ok and worst_coincidence <= 1e-6,
        f"worst quadratic-coincidence rel {worst_coincidence:.2e}",
    )


def test_criterion_09_sampler_stationarity():
    # SGLD on the quadratic: chain variance vs the AR(1) closed form
    gamma, eta = 10.0, 0.01
    tgt = gl.target_from_landscape(gl.quadratic_landscape(1), 0.0)
    steps, burn = 10**6, 2 * 10**5
    batch = gl.sample_chain("sgld", tgt, gamma, eta, steps, burn, master_seed=31)
    var = float(batch.samples.var())
    expected = 2.0 / (gamma * (2.0 - eta))
    sgld_rel = abs(var - expected) / expected

    # Metropolis on the double-well vs the quadrature density, TV on 128 bins
    land = gl.double_well_landscape()
    tgt2 = gl.target_from_landscape(land, 0.0)
    gamma2 = 20.0
    eta2 = 2.4 / math.sqrt(gamma2 * 8.0)
    batch2 = gl.sample_chain(
        "metropolis", tgt2, gamma2, eta2, 1_250_000, 250_000, master_seed=32
    )
    edges = np.linspace(-2.0, 2.0, 129)
    hist, _ = np.histogram(batch2.samples[:, 0], bins=edges)
    emp = hist / hist.sum()
    grid = gl.tensor_gauss_legendre(land.domain_box, 4096)
    pot = lambda w: land.reg_risk(w, 0.0)
    f = pot(grid.nodes)
    dens = grid.weights * np.exp(-gamma2 * (f - f.min()))
    dens /= dens.sum()
    truth = np.zeros(128)
    idx = np.clip(np.digitize(grid.nodes[:, 0], edges) - 1, 0, 127)
    np.add.at(truth, idx, dens)
    tv = 0.5 * float(np.abs(emp - truth).sum())
    _report(
        9,
        "SGLD variance within 5% of the AR(1) law; Metropolis within TV 0.02 "
        "of the quadrature density",
        sgld_rel <= 0.05 and tv <= 0.02,
        f"sgld rel {sgld_rel:.3f}, tv {tv:.4f}",
    )


def test_criterion_10_information_risk_minimality():
    land = gl.double_well_landscape()
    gamma, ridge = 10.0, 0.2
    grid = gl.tensor_gauss_legendre(land.domain_box, 1500)
    pot = lambda w: land.risk(w)
    f = pot(grid.nodes)
    gibbs = np.exp(-gamma * (f + ridge * np.sum(grid.nodes**2, axis=-1)))
    gibbs /= np.sum(grid.weights * gibbs)
    base = gl.irm_objective(gibbs, pot, gamma, ridge, grid)
    w = grid.nodes[:, 0]
    gaps = []
    for k in range(1, 21):
        c = 0.05 + 0.01 * k
        if k % 4 == 0:
            tilt = c * np.sin(0.9 * k * w)
        elif k % 4 == 1:
            tilt = c * w
        elif k % 4 == 2:
            tilt = c * np.abs(w)
        else:
            tilt = c * np.cos(w + 0.1 * k)
        pert = gibbs * np.exp(tilt)
        pert /= np.sum(grid.weights * pert)
        gaps.append(gl.irm_objective(pert, pot, gamma, ridge, grid) - base)
    _report(
        10,
        "Gibbs density minimizes the information-risk objective against 20 "
        "perturbed densities, strictly",
        min(gaps) > 1e-8,
        f"min gap {min(gaps):.3e}",
    )


def test_criterion_11_derivative_checks():
    worst = 0.0
    for obj in (
        gl.quadratic_landscape(2),
        gl.double_well_landscape(1),
        gl.double_well_landscape(2),
        gl.spline_double_well_landscape(),
        gl.rls_data_model(),
    ):
        report = gl.derivative_check(obj, n_probes=25)
        worst = max(worst, report.max_error)
    _report(
        11,
        "finite-difference gradient/Hessian checks at 25 probes, rel <= 1e-5",
        worst <= 1e-5,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_12_deterministic_reports(tmp_path):
    raw = {
        "landscape": {"name": "double_well", "params": {"dimension": 1}},
        "gibbs": {"gamma": [20.0, 100.0], "ridge": 0.0, "m": [100]},
        "radius": {"relative": [0.3]},
        "theorems": ["local_excess", "minima_distribution", "ellipsoid_mass", "complement_mass"],
        "master_seed": 424242,
    }
    from gibbslab.harness import load_config, run_experiment

    cfg = load_config(raw)
    first = run_experiment(cfg, out_dir=tmp_path / "one")
    second = run_experiment(cfg, out_dir=tmp_path / "two")
    identical = (first.run_dir / "report.csv").read_bytes() == (
        second.run_dir / "report.csv"
    ).read_bytes()
    _report(
        12,
        "re-running an experiment with the same master seed yields byte-identical report.csv",
        identical,
        f"{len(first.rows)} rows",
    )
